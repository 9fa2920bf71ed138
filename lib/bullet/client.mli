(** Client stubs for the Bullet service.

    These are what application code (the directory server, the UNIX
    emulation, the examples and the benchmarks) calls: each stub builds a
    request, runs one RPC transaction — paying the Amoeba wire costs — and
    decodes the reply. Stubs raise {!Amoeba_rpc.Status.Error} on any
    non-[Ok] reply.

    On a [Timeout] reply (lost message or crashed server) the stub
    retries, up to the [attempts] bound given at {!connect}, doubling a
    backoff wait between tries. Read-only operations are idempotent and
    simply re-execute; mutating operations are stamped with a fresh
    {!Amoeba_rpc.Message.t.xid} that is reused verbatim across the
    retries, and the server deduplicates on it — so a CREATE whose reply
    was lost does not create a second file on retry. *)

type t

val connect :
  ?model:Amoeba_rpc.Net_model.t ->
  ?link:Amoeba_rpc.Link.t ->
  ?attempts:int ->
  ?backoff_us:int ->
  Amoeba_rpc.Transport.t ->
  Amoeba_cap.Port.t ->
  t
(** A client of the Bullet service on the given port; [model] defaults to
    {!Amoeba_rpc.Net_model.amoeba}. [link] tags every transaction with a
    link class for link-scoped fault plans (the federation sets it to the
    link it derived [model] from). [attempts] (default 1, i.e. no
    retries) bounds the total number of sends per operation; after the
    [k]th timeout the stub waits [backoff_us * 2{^ k-1}] (default base
    50 ms) before resending. *)

val port : t -> Amoeba_cap.Port.t

val transport : t -> Amoeba_rpc.Transport.t

val stats : t -> Amoeba_sim.Stats.t
(** Counters: [transactions] (logical operations issued), [timeouts]
    (timed-out sends), [retries] (resends after a timeout), [exhausted]
    (operations that failed after the last allowed attempt).  The
    [trans_us] histogram records each transaction's client-visible
    latency in µs, retries and backoff included — the source of the
    p50/p95/p99 columns in the loss-sweep reports. *)

val create : t -> ?p_factor:int -> bytes -> Amoeba_cap.Capability.t
(** [BULLET.CREATE]; [p_factor] defaults to 2 (both disks, as in the
    paper's measurements). *)

val size : t -> Amoeba_cap.Capability.t -> int

val read : t -> Amoeba_cap.Capability.t -> bytes
(** [BULLET.SIZE] then [BULLET.READ], as the paper prescribes: "First
    BULLET.SIZE is called to get the size of the file ... Then
    BULLET.READ is invoked". Two transactions. *)

val read_now : t -> Amoeba_cap.Capability.t -> bytes
(** Just the [BULLET.READ] transaction, when the size is already known
    (the kernel mapped-file path). *)

val delete : t -> Amoeba_cap.Capability.t -> unit

val read_range : t -> Amoeba_cap.Capability.t -> pos:int -> len:int -> bytes

val modify : t -> Amoeba_cap.Capability.t -> pos:int -> bytes -> Amoeba_cap.Capability.t
(** [modify], [append] and [truncate] derive the new version at
    P-FACTOR 2. *)

val append : t -> Amoeba_cap.Capability.t -> bytes -> Amoeba_cap.Capability.t

val truncate : t -> Amoeba_cap.Capability.t -> int -> Amoeba_cap.Capability.t

val restrict : t -> Amoeba_cap.Capability.t -> Amoeba_cap.Rights.t -> Amoeba_cap.Capability.t

(** {1 Two-phase commit legs}

    Result-typed rather than raising: a no-vote and a decision-leg
    timeout are outcomes the coordinator branches on. Each call is one
    leg of the {!Amoeba_txn} protocol against this server; all carry
    fresh xids (one send's retries reuse the xid, a coordinator re-send
    after recovery is a new send resolved by participant idempotence). *)

val txn_prepare_create :
  t -> txn:int -> bytes -> (Amoeba_cap.Capability.t, Amoeba_rpc.Status.t) result

val txn_prepare_delete :
  t -> txn:int -> Amoeba_cap.Capability.t -> (unit, Amoeba_rpc.Status.t) result

val txn_commit :
  t -> txn:int -> kind:Server.txn_kind -> Amoeba_cap.Capability.t -> (unit, Amoeba_rpc.Status.t) result

val txn_abort :
  t -> txn:int -> kind:Server.txn_kind -> Amoeba_cap.Capability.t -> (unit, Amoeba_rpc.Status.t) result

val txn_abort_all : t -> txn:int -> (unit, Amoeba_rpc.Status.t) result

type stat_info = Proto.stat = {
  live_files : int;
  free_blocks : int;
  data_blocks : int;
  cache_used : int;
  cache_capacity : int;
}

val stat : t -> stat_info
(** Server statistics (administration). *)
