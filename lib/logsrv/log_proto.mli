(** Wire protocol and client stubs for the log server.

    Appends carry only the new record — the point of having a separate
    server for logs (paper §2). *)

val serve : Log_store.t -> Amoeba_rpc.Transport.t -> unit

(** {1 Client} *)

type client

val connect : Amoeba_rpc.Transport.t -> Amoeba_cap.Port.t -> client
(** Stubs raise {!Amoeba_rpc.Status.Error} on failure. *)

val create_log : client -> Amoeba_cap.Capability.t

val append : client -> Amoeba_cap.Capability.t -> bytes -> int
(** Returns the log length after the append. *)

val sync : client -> Amoeba_cap.Capability.t -> unit

val length : client -> Amoeba_cap.Capability.t -> int

val durable_length : client -> Amoeba_cap.Capability.t -> int

val read_log : client -> Amoeba_cap.Capability.t -> bytes

val compact_log : client -> Amoeba_cap.Capability.t -> unit

val delete_log : client -> Amoeba_cap.Capability.t -> unit
