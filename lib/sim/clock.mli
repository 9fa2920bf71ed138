(** Virtual simulated time.

    All timing in the simulated Amoeba substrate flows through a [Clock.t]:
    components (network, disk, CPU models) charge elapsed time by calling
    {!advance}, and experiments read {!now} before and after an operation.
    Time is counted in integer microseconds, which keeps measurements exact
    and deterministic across runs. *)

type t
(** A mutable virtual clock. *)

val create : unit -> t
(** A fresh clock at time 0. *)

val now : t -> int
(** Current virtual time in microseconds. *)

val advance : t -> int -> unit
(** [advance clock us] moves the clock forward by [us] microseconds.
    Raises [Invalid_argument] if [us] is negative. *)

val advance_to : t -> int -> unit
(** [advance_to clock t] sets the clock to [max (now clock) t]; used when an
    operation completes at an absolute time (e.g. the end of a parallel
    batch). *)

val reset : t -> unit
(** Set the clock back to 0. *)

val parallel : t -> (unit -> 'a) list -> 'a list
(** [parallel clock fs] runs each thunk starting from the same instant and
    sets the clock to the *latest* completion time, modelling operations
    that proceed concurrently (e.g. mirrored disk writes issued together).
    Results are returned in order. *)

val unobserved : t -> (unit -> 'a) -> 'a
(** [unobserved clock f] runs [f] and then restores the clock to its prior
    value: the work happens (state changes, statistics accrue) but its
    duration is off the measured critical path. Models background activity
    such as write-behind to replicas beyond the P-FACTOR. *)

val elapsed : t -> (unit -> 'a) -> 'a * int
(** [elapsed clock f] runs [f] and returns its result together with the
    virtual time it consumed. *)

val to_ms : int -> float
(** Microseconds to (floating-point) milliseconds. *)
