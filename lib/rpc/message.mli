(** RPC request and reply messages.

    Amoeba's RPC carries a small fixed header (addressed port, command or
    status, a capability, two integer arguments) plus an opaque buffer.
    Whole-file transfer means the buffer is the entire file for Bullet
    operations; block servers put one block in it. *)

type t = {
  port : Amoeba_cap.Port.t;  (** service the request is addressed to *)
  command : int;  (** operation code (requests) *)
  status : Status.t;  (** outcome (replies; [Ok] in requests) *)
  cap : Amoeba_cap.Capability.t option;  (** object operated on / returned *)
  arg0 : int;  (** small argument: size, offset, p-factor … *)
  arg1 : int;  (** second small argument *)
  xid : int;
      (** client transaction id, 0 = none. A client stamps a fresh id on
          each {e logical} mutating operation and reuses it across
          timeout retries; servers deduplicate on it, giving mutations
          at-most-once semantics over a lossy network. Idempotent
          operations (READ, SIZE) go out with [xid = 0] and are simply
          re-executed. *)
  body : bytes;  (** bulk data *)
}

val request :
  port:Amoeba_cap.Port.t ->
  command:int ->
  ?cap:Amoeba_cap.Capability.t ->
  ?arg0:int ->
  ?arg1:int ->
  ?xid:int ->
  ?body:bytes ->
  unit ->
  t

val reply :
  status:Status.t -> ?cap:Amoeba_cap.Capability.t -> ?arg0:int -> ?arg1:int -> ?body:bytes -> unit -> t
(** A reply is addressed back over the open transaction, so it needs no
    port; the null port is used. *)

val error : Status.t -> t
(** Shorthand for an empty-bodied error reply. *)

val reply_of_result : encode:('a -> t) -> ('a, Status.t) result -> t
(** A service's reply to an operation's result: [encode] an [Ok] value,
    or send an [Error] status as {!error}. *)

val with_cap : t -> (Amoeba_cap.Capability.t -> t) -> t
(** Run [k] on the request's capability; a request without one gets a
    [Bad_request] error reply. *)

val header_bytes : int
(** Wire size of the fixed header, for the network cost model. *)

val wire_bytes : t -> int
(** Header plus body size. *)
