(** Bullet wire protocol: command numbers and the server-side dispatcher.

    Whole-file transfer keeps this trivially small — requests carry at
    most a capability, two integers and one buffer; replies carry a
    status, possibly a capability and possibly the file. *)

val cmd_create : int

val cmd_size : int

val cmd_read : int

val cmd_delete : int

val cmd_read_range : int

val cmd_modify : int

val cmd_append : int

val cmd_truncate : int

val cmd_restrict : int

val cmd_stat : int

val cmd_std_status : int
(** Amoeba's standard status request: the reply body is the server's
    metrics snapshot — binary ({!encode_status}) when the request's
    [arg0] is 0, the text exposition ({!Amoeba_metrics.Metrics.to_text})
    when [arg0] is 1. *)

val cmd_txn_prepare : int
(** 2PC prepare ([arg0] = txn id, [arg1] = {!Server.txn_kind} via
    {!encode_txn_kind}): kind create carries the contents in the body
    and replies with the pending object's capability; kind delete
    carries the victim capability and condemns it. The reply status is
    the participant's vote. Commands 20..22 (and the directory
    service's 25..27) are globally unique so the fault injector can
    classify 2PC legs by command number. *)

val cmd_txn_commit : int
(** 2PC commit ([arg0] = txn id, [arg1] = kind, cap = the object).
    Idempotent; carries the capability so an amnesiac (rebooted)
    participant can still resolve it. *)

val cmd_txn_abort : int
(** 2PC abort. With a capability: roll back that object ([arg1] =
    kind). Without: presumed abort of every prepared action of [arg0]'s
    transaction ({!Server.txn_abort_all}). *)

val encode_txn_kind : Server.txn_kind -> int

type stat = {
  live_files : int;
  free_blocks : int;
  data_blocks : int;
  cache_used : int;
  cache_capacity : int;
}
(** The STAT reply: server occupancy counters, five big-endian u32s on
    the wire. *)

val decode_stat : bytes -> stat
(** Decode a STAT reply body (the inverse of the dispatcher's encoder).
    Raises {!Amoeba_sim.Codec.Truncated} on a short body. *)

val encode_status : Server.t -> bytes
(** The STD_STATUS binary reply body: the server's registry scraped now
    (virtual time), through {!Amoeba_metrics.Metrics.encode_snapshot}. *)

val decode_status : bytes -> (Amoeba_metrics.Metrics.snapshot, string) result
(** Decode a STD_STATUS binary reply body (client side). *)

val dispatch : Server.t -> Amoeba_rpc.Message.t -> Amoeba_rpc.Message.t
(** Decode one request, run it against the server, encode the reply.
    Unknown commands and missing capabilities yield [Bad_request]. *)

val serve : Server.t -> Amoeba_rpc.Transport.t -> unit
(** Register the server's dispatcher on its port, wrapped in a
    {!Amoeba_rpc.Transport.dedup} reply cache of 1024 entries keyed by
    {!Amoeba_rpc.Message.t.xid}. A retried mutation whose first execution's
    reply was lost gets the remembered reply rather than running twice —
    at-most-once semantics. Requests with [xid = 0] (all reads) bypass
    the cache. When the transport has a tracer installed, each dispatch
    runs inside a [serve.<op>] span and dedup cache hits emit a
    [serve.dedup_hit] event. The cache is created fresh per registration, so a server
    reboot forgets it. *)
