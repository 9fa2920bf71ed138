(** Big-endian integer layout for every disk and wire format.

    The stdlib's [Bytes] and [Buffer] [*_be] accessors cover 8, 16 and
    64 bits; this module adds only what they lack: an unsigned 32-bit
    field (stored through [Int32]), the 48-bit field of ports and inode
    randoms, and one bounds-checked cursor for decoding stored or
    received bytes. A decoder fails on short input by raising
    {!Truncated}, never [Invalid_argument]. *)

val get_u32 : bytes -> int -> int
(** Unsigned: the result is in [0, 2{^32}). *)

val set_u32 : bytes -> int -> int -> unit
(** Stores the low 32 bits. *)

val add_u32 : Buffer.t -> int -> unit

val get_u48 : bytes -> int -> int64

val set_u48 : bytes -> int -> int64 -> unit
(** Stores the low 48 bits. *)

exception Truncated
(** A read past the end of the input. *)

module Reader : sig
  type t = private { data : bytes; mutable pos : int }

  val of_bytes : bytes -> t

  val take : t -> int -> int
  (** [take r n] checks that [n] bytes remain, skips them and returns
      the offset of the first. Raises {!Truncated} if fewer remain or
      [n] is negative. *)

  val u8 : t -> int

  val u16 : t -> int

  val u32 : t -> int

  val i64 : t -> int64

  val string : t -> int -> string
  (** [string r n] reads [n] bytes. *)

  val at_end : t -> bool
end
