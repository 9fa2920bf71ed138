(** Deterministic metrics registry, scrape loop and wire codec.

    Every subsystem counts in its own {!Amoeba_sim.Stats.t} — counter
    cells and log2 histograms — and this module gives those counts a
    single live surface.  A registry holds two kinds of named
    instrument: sampled {e gauges}, and whole [Stats.t] {e sources}
    expanded under a prefix.  A {e scrape} folds every instrument into an
    immutable, name-sorted {!snapshot} stamped with virtual time.  A
    {!Scraper} polls the virtual clock and pushes snapshots into a bounded
    {!Ring}, giving each server a time series an operator (or the
    {!Health} evaluator) can fold over.

    Everything is driven by the simulation: no threads, no wall clock.  Two
    runs of the same workload scrape byte-identical snapshots — CI diffs
    the encoded bytes. *)

exception Duplicate_metric of string
(** Raised when two instruments are registered (or expand at scrape time)
    under the same name. *)

type t
(** A registry: a named set of instruments belonging to one server. *)

type registry = t

val create : string -> t
(** [create name] is an empty registry labelled [name] in expositions. *)

val name : t -> string

val gauge : t -> string -> (unit -> int) -> unit
(** Register a sampled gauge; the thunk runs at every scrape.  Raises
    {!Duplicate_metric} if the name is taken. *)

val stats_source : t -> prefix:string -> Amoeba_sim.Stats.t -> unit
(** Expand a whole {!Amoeba_sim.Stats.t} at scrape time: every counter
    [k] appears as [prefix ^ "." ^ k], every histogram likewise.  A cell
    made with {!Amoeba_sim.Stats.counter} scrapes as 0 before its first
    bump.  The prefix itself must be unique in the registry. *)

val metric_names : t -> string list
(** Registered names (sources by their prefix), sorted. *)

(** {2 Snapshots} *)

type value =
  | Counter of int
  | Gauge of int
  | Hist of { count : int; sum : int; p50 : int; p95 : int; p99 : int; max_value : int }

type sample = { s_name : string; s_value : value }

type snapshot = { at_us : int; samples : sample list  (** sorted by name *) }

val scrape : t -> at_us:int -> snapshot
(** Read every instrument now.  Raises {!Duplicate_metric} if a source
    expansion collides with another registered name. *)

val find : snapshot -> string -> value option

val value_int : value -> int
(** The headline integer of a value ([Hist] reports its count). *)

val to_text : snapshot -> string
(** Deterministic text exposition, one metric per line:
    [<name> counter <n>], [<name> gauge <n>],
    [<name> hist count <n> sum <n> p50 <n> p95 <n> p99 <n> max <n>],
    preceded by an [# at_us <t>] header. *)

val encode_snapshot : snapshot -> bytes
(** Big-endian wire form, suitable for a STD_STATUS reply body. *)

val decode_snapshot : bytes -> (snapshot, string) result
(** Inverse of {!encode_snapshot}; [Error] on truncation or an unknown
    sample kind. *)

(** {2 Time series} *)

module Ring : sig
  (** Bounded snapshot time series: pushing beyond capacity drops the
      oldest. *)

  type t

  val create : capacity:int -> t
  (** Raises [Invalid_argument] on a non-positive capacity. *)

  val push : t -> snapshot -> unit
  val length : t -> int
  val latest : t -> snapshot option

  val snapshots : t -> snapshot list
  (** Oldest first. *)
end

module Scraper : sig
  (** Virtual-clock scrape loop, poll-driven so it composes with any
      event loop: call {!poll} at convenient points; a snapshot is taken
      whenever at least [interval_us] of virtual time has passed since
      the previous one. *)

  type t

  val create :
    registry:registry -> clock:Amoeba_sim.Clock.t -> interval_us:int -> capacity:int -> t
  (** Raises [Invalid_argument] on a non-positive interval. *)

  val poll : t -> snapshot option
  (** Scrape if due ([Some snapshot], pushed into the ring), else
      [None]. *)

  val force : t -> snapshot
  (** Scrape unconditionally, push, and restart the interval. *)

  val ring : t -> Ring.t
  val registry : t -> registry
end
