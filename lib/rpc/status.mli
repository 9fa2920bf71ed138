(** RPC reply status codes shared by all Amoeba services. *)

type t =
  | Ok
  | Bad_capability  (** check-field verification failed or rights missing *)
  | No_such_object  (** object number not in the server's table *)
  | No_space  (** allocation failed (disk, cache or inode table full) *)
  | Not_found  (** directory lookup miss *)
  | Bad_request  (** malformed arguments or unknown command *)
  | Exists  (** directory entry already present *)
  | Server_failure  (** internal error, e.g. all replica disks down *)
  | Timeout
      (** no reply within the transport's timeout interval: the request or
          reply was lost, or the destination port is not (currently)
          bound — e.g. the server crashed. Safe to retry idempotent
          operations; mutations carry a transaction id the server
          deduplicates (see {!Message.t.xid}). *)

val to_int : t -> int

val of_int : int -> t
(** Unknown codes decode as [Server_failure]. *)

val to_string : t -> string

exception Error of t
(** Raised by client stubs on a non-[Ok] reply. *)

val check : t -> unit
(** [check s] raises [Error s] unless [s] is [Ok]. *)
