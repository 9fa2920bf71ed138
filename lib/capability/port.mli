(** Amoeba service ports.

    A port is a 48-bit location-independent number chosen by a server and
    published to its clients; RPC requests are addressed to ports, not
    machines. *)

type t
(** An opaque 48-bit port. Structural equality and hashing work. *)

val of_int64 : int64 -> t
(** Truncates to 48 bits. *)

val random : Amoeba_sim.Prng.t -> t
(** A fresh random port, as a server chooses at startup. *)

val equal : t -> t -> bool

val hash : t -> int

val to_string : t -> string
(** 12 hex digits. *)

val of_string : string -> t
(** Inverse of {!to_string}. Raises [Invalid_argument] on malformed
    input. *)

val pp : Format.formatter -> t -> unit

val write : t -> bytes -> int -> unit
(** [write p buf off] stores the 6-byte wire encoding at [off]. *)

val read : bytes -> int -> t
(** [read buf off] decodes 6 bytes at [off]. *)

val wire_size : int
(** 6 bytes. *)
