(** Amoeba capabilities.

    A capability names and protects one object: the {e port} identifies
    the managing server, the {e object number} indexes the server's table
    (an inode number for the Bullet server), the {e rights} say what the
    holder may do, and the {e check field} seals the rights against
    tampering (see {!Sealer}). *)

type t = {
  port : Port.t;
  obj : int;  (** object number within the server, 0 .. 2^31-1 *)
  rights : Rights.t;
  check : int64;  (** sealed check field *)
}

val v : port:Port.t -> obj:int -> rights:Rights.t -> check:int64 -> t

val equal : t -> t -> bool

val wire_size : int
(** Bytes of the wire encoding: 6 (port) + 4 (object) + 2 (rights) +
    8 (check) = 20. *)

val write : t -> bytes -> int -> unit
(** Store the wire encoding at the given offset. *)

val read : bytes -> int -> t
(** Decode a capability at the given offset. *)

val of_reader : Amoeba_sim.Codec.Reader.t -> t
(** Decode the next {!wire_size} bytes. Raises
    {!Amoeba_sim.Codec.Truncated} if fewer remain. *)

val to_bytes : t -> bytes

val of_bytes : bytes -> t
(** Raises [Invalid_argument] if the buffer is not exactly
    {!wire_size} bytes. *)

val to_string : t -> string
(** Printable round-trippable form, [port:obj:rights:check] in hex. *)

val of_string : string -> t
(** Inverse of {!to_string}; raises [Invalid_argument] on malformed
    input. *)
