(** Capability rights bits.

    The paper: "there may be a bit indicating the right to read the file,
    another bit for deleting the file, and so on". Rights are an 8-bit
    field carried in the capability and sealed into the check field, so a
    holder cannot widen them without the server's secret. *)

type t
(** An 8-bit rights set. *)

val none : t

val all : t

val read : t
(** Right to retrieve the object ([BULLET.READ], [BULLET.SIZE]). *)

val delete : t
(** Right to destroy the object. *)

val modify : t
(** Right to derive a new version ([BULLET.MODIFY], directory updates). *)

val union : t -> t -> t

val inter : t -> t -> t

val subset : t -> t -> bool
(** [subset a b] is true when every right in [a] is also in [b]. *)

val mem : t -> t -> bool
(** [mem bit set] — alias for [subset bit set], reads well for single
    bits. *)

val equal : t -> t -> bool

val to_int : t -> int

val of_int : int -> t
(** Truncates to 8 bits. *)
