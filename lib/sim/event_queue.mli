(** A binary-heap event queue for discrete-event simulation.

    Events order by (time, sequence); the sequence number is the
    insertion order and breaks every tie, so simultaneous events pop in
    insertion order and the simulation stays deterministic.

    {2 The tie-race sanitizer}

    Deterministic is not the same as meant: two events at the same time
    pop in whatever order the code happened to push them, which is a
    latent race against refactorings. With the
    sanitizer enabled ([AMOEBA_TIE_CHECK=1] in the environment, or
    [set_tie_check true] — dune runtest and the CI determinism jobs do)
    every such collision must carry an explicit [?pin] sequence number,
    strictly increasing in insertion order; violations are accumulated
    as {!tie} reports naming the [?site] of both events. The check is
    purely observational — it never changes the pop order — so enabling
    it cannot change a simulation's bytes. *)

type 'a t

val create : unit -> 'a t

val push : ?pin:int -> ?site:string -> 'a t -> time:int -> 'a -> unit
(** Schedule a payload at an absolute time (µs). [pin] asserts this
    event's place among same-time events: within a collision set, pins
    must be strictly increasing in insertion order. [site] names the
    scheduling site in tie reports. *)

val pop : 'a t -> (int * 'a) option
(** Earliest event, or [None] when empty. *)

val peek_time : 'a t -> int option

val size : 'a t -> int

val is_empty : 'a t -> bool

(** {2 Sanitizer state (process-global)} *)

type tie = {
  tie_at : int;
  tie_first : string;  (** earlier-queued site, or ["<unpinned>"] *)
  tie_second : string;
  tie_reason : string;
}

val set_tie_check : bool -> unit
(** Also enabled at startup when [AMOEBA_TIE_CHECK] is [1]/[true]/[yes]. *)

val tie_check_enabled : unit -> bool

val ties : unit -> tie list
(** Every violation recorded since the last [clear_ties], oldest first. *)

val clear_ties : unit -> unit

val tie_to_string : tie -> string
