(** The simulated network: a registry of services and a transaction
    primitive.

    [trans] is Amoeba's combined send-request/await-reply call. The
    transport charges wire time for the request, hands the message to the
    service registered on the destination port (which charges its own CPU
    and disk time while handling it), then charges wire time for the
    reply. All of this advances the shared virtual clock, so an
    experiment's elapsed time is exactly the client-visible delay.

    The transport also owns the failure semantics of the wire: a request
    to an unbound port (a crashed or never-started server) costs the
    client the model's full timeout interval and returns a {!Status.Timeout}
    reply, and an installed {!fault_hook} can drop, duplicate or corrupt
    messages — the building blocks [Amoeba_fault.Injector] uses. *)

type t

type service = Message.t -> Message.t
(** A request handler. Exceptions escaping a handler become
    [Server_failure] replies. *)

val dedup : ?on_hit:(Message.t -> unit) -> service -> service
(** At-most-once execution: wrap a service in a bounded reply cache
    keyed by {!Message.t.xid} (1024 entries, FIFO eviction). A
    retried or duplicated request whose xid is cached gets the remembered
    reply instead of running again, and [on_hit] sees it. Requests with
    [xid = 0] bypass the cache. Each call makes a fresh cache, so a
    server that re-registers after a reboot forgets it. *)

type delivery =
  | Deliver  (** normal delivery, both directions *)
  | Drop_request  (** the request never arrives; client times out *)
  | Drop_reply
      (** the server executes (side effects happen!) but the reply is
          lost; client times out *)
  | Duplicate_request
      (** the request arrives twice; the second execution is off the
          client's critical path. Servers deduplicate mutations by
          {!Message.t.xid}. *)
  | Corrupt_reply
      (** the reply is damaged in flight; checksums catch it and the
          client stub discards it — observably a loss *)

type fault_hook = link:Link.t option -> Message.t -> delivery
(** Consulted once per transaction, before delivery. [link] is the link
    class the caller tagged the transaction with ({!trans}'s [?link]),
    [None] for untagged traffic — it lets a plan fault one link class
    (the international line) while local traffic is untouched. Installed
    by the fault injector; also its chance to fire scheduled fault
    events that have come due on the virtual clock. *)

val create : clock:Amoeba_sim.Clock.t -> t

val clock : t -> Amoeba_sim.Clock.t

val register : t -> Amoeba_cap.Port.t -> service -> unit
(** Publish a service on a port. Raises [Invalid_argument] if the port is
    already bound. *)

val unregister : t -> Amoeba_cap.Port.t -> unit
(** Remove a service, e.g. to simulate a crashed server. *)

val lookup : t -> Amoeba_cap.Port.t -> service option

val set_fault_hook : t -> fault_hook option -> unit
(** Install (or with [None] remove) the delivery fault hook. *)

val set_tracer : t -> Amoeba_trace.Trace.ctx option -> unit
(** Install (or with [None] remove) the tracer.  With a tracer installed,
    every [trans] opens a root span ([rpc], trace id derived from the
    request xid) with [net.send]/[net.recv]/[net.timeout] children and a
    [net.fault] event when the fault hook intervenes.  Services read the
    tracer via {!tracer} to nest their own spans inside the transaction.
    With [None] the hot path is the exact untraced code. *)

val tracer : t -> Amoeba_trace.Trace.ctx option

val trans : ?link:Link.t -> t -> model:Net_model.t -> Message.t -> Message.t
(** One RPC transaction under the given wire-cost model. [link] tags the
    transaction with the link class it rides (the federation passes the
    link it computed the model from) and is forwarded to the fault hook.
    A request to an unbound port, or one whose request or reply the
    fault hook loses, returns a [Timeout] reply after the model's
    [timeout_us] has elapsed from the start of the transaction — the
    client stub learns nothing sooner. Retry policy is the client's job
    (see [Bullet_core.Client]). *)

val stats : t -> Amoeba_sim.Stats.t
(** Counters: [transactions], [bytes_sent], [bytes_received],
    [unbound_port], [timeouts], and the fault breakdown
    [dropped_requests], [dropped_replies], [duplicated_requests],
    [corrupted_replies], [unbound_timeouts]. *)

val register_metrics : t -> Amoeba_metrics.Metrics.t -> unit
(** Register the wire's live surface: a [rpc.registered_ports] gauge and
    every {!stats} counter ([transactions], [timeouts], the fault
    breakdown, ...) under the [rpc.] prefix. *)
