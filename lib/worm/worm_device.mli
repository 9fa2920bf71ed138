(** A write-once optical disk.

    The paper (§2): the version mechanism "presents the possibility of
    keeping versions on write-once storage such as optical disks".
    An optical WORM drive of the era: slow to position (~80 ms), modest
    transfer (~300 KB/s write, ~600 KB/s read), and each block is
    writable exactly once — there is no delete, ever.

    The device is an append-only sequence of variable-size records; a
    record's index is its permanent address. *)

type t

type slot = int
(** Permanent record address on this platter. *)

exception Write_once_violation
(** Raised by {!overwrite} — kept in the API to document the physical
    contract; nothing in this library calls it. *)

exception Platter_full

val create : capacity:int -> clock:Amoeba_sim.Clock.t -> t
(** A blank platter of [capacity] bytes. *)

val used : t -> int

val records : t -> int

val append : t -> bytes -> slot
(** Burn one record; charges positioning + write transfer at optical
    speed. Raises {!Platter_full} when the data does not fit. *)

val read : t -> slot -> bytes
(** Read a record back; charges positioning + read transfer. Raises
    [Invalid_argument] on an unknown slot. *)

val overwrite : t -> slot -> bytes -> 'a
(** Always raises {!Write_once_violation}: that is the point. *)
