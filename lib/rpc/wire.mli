(** Binary framing of RPC messages, for transports that cross a real
    byte stream (the TCP transport, image files). One frame is a 4-byte
    big-endian length followed by the encoded message. *)

val encode : Message.t -> bytes
(** The full frame, including the length prefix. *)

val decode : bytes -> (Message.t, string) result
(** Decode the payload of one frame (without the length prefix). *)

val read_frame : Unix.file_descr -> (bytes, string) result
(** Read one complete frame payload from a stream socket; [Error] on EOF
    or malformed length. *)

val write_frame : Unix.file_descr -> Message.t -> unit
(** Write one complete frame. *)
