(** Operation counters and duration summaries.

    Each simulated component (disk, network, server) keeps a [Stats.t] so
    experiments can report how many physical operations an API call cost —
    e.g. that a cached Bullet read performs zero disk transfers. *)

type t
(** A named collection of counters and samples. *)

type summary = {
  count : int;
  sum : float;
  min : float;
  max : float;
  mean : float;
}
(** Summary of an observed sample series; [min]/[max]/[mean] are 0 when
    [count] is 0. *)

module Hist : sig
  (** Fixed-bucket log2 latency histogram: exact counts (no sampling),
      mergeable, integer-only on the record path so hot loops can record
      without boxing.  Bucket 0 holds values [<= 0]; bucket [k] holds
      [2^(k-1), 2^k). *)

  type t

  val create : unit -> t
  val record : t -> int -> unit

  val merge : into:t -> t -> unit
  (** Add [src]'s buckets and moments into [into]; exact (unlike merging
      two reservoirs). *)

  val count : t -> int
  val sum : t -> int
  val min_value : t -> int
  val max_value : t -> int
  val mean : t -> float

  val percentile : t -> float -> int
  (** Nearest-rank (same 0-based [q*(n-1)] convention as
      {!Stats.percentile}): the upper bound of the bucket holding that
      rank, clamped to the observed min/max.  Exact at the extremes,
      within 2x in between.  0 for an empty histogram. *)

  val buckets : t -> (int * int * int) list
  (** Non-empty buckets as [(lo, hi, count)], ascending. *)
end

val create : ?seed:int -> string -> t
(** [create name] is an empty collection labelled [name] in reports.
    [seed] (default a fixed constant) seeds the private xorshift that
    drives reservoir replacement once a series exceeds its retention cap;
    two collections built with the same seed and fed identical
    observations report identical percentiles.  A seed of 0 is replaced
    by the default (xorshift's fixed point). *)

val name : t -> string

val incr : t -> string -> unit
(** Bump the named counter by one. *)

val add : t -> string -> int -> unit
(** Bump the named counter by [n]. *)

val count : t -> string -> int
(** Current value of the named counter (0 if never bumped). *)

val observe : t -> string -> float -> unit
(** Record one sample of the named series. *)

val summary : t -> string -> summary
(** Summarise the named series (all-zero summary if never observed). *)

val percentile : t -> string -> float -> float
(** [percentile t key q] for [q] in [\[0, 1\]] (nearest-rank over the
    retained samples; series retain up to 65536 samples, after which new
    observations replace random earlier ones — reservoir sampling).
    Returns 0 for an empty series. *)

val counter : t -> string -> int ref
(** The named counter's cell, created at 0 on first use; {!counters}
    lists it from that moment.  Hold on to the cell to bump it from a hot
    path without a name lookup ({!reset} detaches held cells). *)

val hist : t -> string -> Hist.t
(** The named histogram, created empty on first use.  Hold on to the
    result when recording from a hot loop — the lookup allocates, the
    returned handle does not. *)

val record : t -> string -> int -> unit
(** Record one integer sample (e.g. a duration in µs) into the named
    histogram. *)

val hists : t -> (string * Hist.t) list
(** All histograms, sorted by name. *)

val reset : t -> unit
(** Clear all counters, samples and histograms. *)

val counters : t -> (string * int) list
(** All counters, sorted by name. *)

val pp : Format.formatter -> t -> unit
(** Render counters one per line, for debug output. *)
