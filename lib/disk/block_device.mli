(** A simulated sector-addressed disk drive.

    Reads and writes operate on whole sectors, charge virtual time to the
    clock according to the drive {!Geometry.t}, track the head position
    (so sequential access is cheap and scattered access pays seeks), and
    accrue per-operation statistics. Drives can be failed and repaired to
    exercise the Bullet server's mirroring and recovery paths, and single
    sectors can be marked bad to exercise the startup consistency scan. *)

type t

exception Failure of string
(** Raised when accessing a failed drive or a bad sector; carries the
    drive id and the failing sector. *)

val create : id:string -> geometry:Geometry.t -> clock:Amoeba_sim.Clock.t -> t
(** A fresh, zero-filled drive. *)

val id : t -> string

val geometry : t -> Geometry.t

val clock : t -> Amoeba_sim.Clock.t
(** The simulation clock this drive charges time to. *)

val read : t -> sector:int -> count:int -> bytes
(** [read t ~sector ~count] returns [count] sectors starting at [sector],
    charging access time. Raises {!Failure} if the drive is failed or the
    range covers a bad sector, [Invalid_argument] if out of range. *)

val read_into : t -> sector:int -> count:int -> dst:bytes -> dst_off:int -> len:int -> unit
(** [read_into t ~sector ~count ~dst ~dst_off ~len] is {!read} that lands
    the first [len] bytes of the [count] sectors in [dst] at [dst_off]
    instead of allocating: the same {!access}, because the drive still
    transfers whole sectors. [len] may stop short of the last sector's end. On any
    exception [dst] is untouched. Raises [Invalid_argument] if [len]
    exceeds [count] sectors or the destination range is out of [dst]. *)

val access : t -> sector:int -> count:int -> write:bool -> unit
(** The timed access alone, which {!read}, {!read_into} and {!write}
    each make once before moving their bytes: the range and health
    checks, the fault hook, the [disk.read]/[disk.write] span, the
    charge, the head movement and the stats. Moves no bytes, so a
    caller that needs them takes them with {!peek_into} afterwards (the
    mirror does, once every part of a read has succeeded). Same
    exceptions as {!read}. *)

val access_us : t -> sector:int -> count:int -> write:bool -> int
(** What an access of [count] sectors at [sector] would charge now:
    {!Geometry.access_us}, sequential when the head sits at [sector].
    Every timed access charges exactly this. Charges nothing itself. *)

val write : t -> sector:int -> bytes -> unit
(** [write t ~sector data] writes [data] — whose length must be a positive
    multiple of the sector size — starting at [sector], charging access
    time. Same exceptions as {!read}. *)

val fail : t -> unit
(** Take the drive offline: every subsequent access raises {!Failure}. *)

val repair : t -> unit
(** Bring a failed drive back online. Its contents are whatever they were
    at failure time; recovery (copying from a replica) is the caller's
    job. *)

val is_failed : t -> bool

val set_fault_hook : t -> (sector:int -> count:int -> write:bool -> bool) option -> unit
(** Install (or with [None] remove) a transient-fault predicate,
    consulted on every timed access. Returning [true] makes that access
    raise {!Failure} after charging its access time — a soft media error:
    the same access retried may succeed. Used by [Amoeba_fault.Injector]
    for probabilistic sector-error plans. *)

val set_tracer : t -> Amoeba_trace.Trace.ctx option -> unit
(** Install (or with [None] remove) the tracer.  Traced accesses emit a
    [disk.read]/[disk.write] span whose [disk.seek]/[disk.rotate]/
    [disk.xfer] children split the access charge into its mechanical
    components; the children advance exactly the same total time as the
    untraced single charge. *)

val set_bad_sector : t -> int -> unit
(** Mark one sector as unreadable/unwritable. *)

val clear_bad_sector : t -> int -> unit

val copy_from : src:t -> dst:t -> unit
(** Whole-disk copy, the paper's recovery mechanism ("Recovery is simply
    done by copying the complete disk"). Charges one sequential read of
    [src] and one sequential write of [dst]. The drives must have equal
    capacity. *)

val stats : t -> Amoeba_sim.Stats.t
(** Counters: [reads], [writes], [sectors_read], [sectors_written],
    [seeks] (non-sequential accesses). *)

val peek : t -> sector:int -> count:int -> bytes
(** Read without charging time or stats; for tests and image inspection. *)

val peek_into : t -> sector:int -> dst:bytes -> dst_off:int -> len:int -> unit
(** {!peek} that lands [len] bytes from the start of [sector] in [dst] at
    [dst_off] instead of allocating. *)

val poke : t -> sector:int -> bytes -> unit
(** Write without charging time or stats; for tests and image setup. *)
