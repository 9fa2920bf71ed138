(** Binds a {!Plan.t} to a running rig and makes it happen.

    The injector installs itself as the transport's delivery hook and as
    each mirror drive's transient-fault hook. Scripted events fire when
    their virtual time has passed — checked at every RPC transaction and
    at explicit {!poll} calls — and fire {e off the measured path}: a
    whole-disk resync or a reboot's inode-table scan charges no client
    time, but its duration is recorded in {!stats} ([resync_us],
    [reboot_us] series) so experiments can still report it.

    A [Drive_rejoin] event is different in kind: it starts an {e online}
    resync. The failed drives come back fully dirty and the injector
    runs one bounded [Mirror.resync_step] per poll point, {e charged to
    the clock} — background copying steals slices of foreground disk
    time rather than happening for free, and no single foreground
    operation ever waits for more than one batch. When the mirror
    reaches [Clean] the wall-clock (virtual) duration of the whole
    online resync is recorded in the [online_resync_us] series.

    Link-scoped events ([Link_loss], [Link_partition], [Link_heal])
    apply only to transactions tagged with that link class (see
    [Amoeba_rpc.Transport.trans]'s [?link]); untagged traffic sees only
    the global rates.

    The injector is generic over what is running on the transport, so
    the events that act on the rig itself — [Server_crash],
    [Server_reboot], [Lease_clock_skew], [Shard_kill], and a [Txn_crash]
    reaching its edge — are handed to one harness-supplied [act]. For a
    Bullet rig, [act Server_crash] typically unregisters the port and
    calls [Server.crash], and [act Server_reboot] restarts the server on
    the surviving image (same seed, so capabilities minted before the
    crash remain valid) and re-registers it.

    All probabilistic draws come from one PRNG seeded by the plan, and
    the draw order is fixed, so a given plan against a given workload is
    exactly reproducible. *)

type t

val attach :
  ?transport:Amoeba_rpc.Transport.t ->
  ?mirror:Amoeba_disk.Mirror.t ->
  ?act:(Plan.event -> unit) ->
  clock:Amoeba_sim.Clock.t ->
  Plan.t ->
  t
(** Install the plan's hooks; events already due (at time 0) fire
    immediately. [Drive_fail]/[Drive_recover]/[Drive_rejoin] events
    require [mirror]; message-fault draws require [transport] (without
    it they never happen).

    [act] receives [Server_crash], [Server_reboot], [Lease_clock_skew]
    and [Shard_kill] as they fire, and [Txn_crash edge] when a
    {!txn_point} call reaches the armed edge (arming alone does not call
    it). A reboot's [act] is timed into the [reboot_us] series. Callers
    match on the events they handle and ignore the rest; the default
    ignores every event. Typical actions: [Lease_clock_skew] →
    [Amoeba_lease.Station.set_skew]; [Txn_crash] → unregister a port,
    drop a server's volatile state, or raise to unwind the coordinator
    mid-protocol; [Shard_kill] → [Amoeba_cluster.Cluster.kill_server]. *)

val txn_point : t -> Plan.txn_edge -> unit
(** Declare that the harness's two-phase commit just reached [edge].
    Due scripted events fire first; then, if a [Txn_crash] for exactly
    this edge is armed, it is consumed and [act (Txn_crash edge)] runs
    (under the same atomicity as other event applications — the crash
    action itself draws no faults). The 2PC coordinator calls this at each of
    its protocol edges; an experiment's crash action decides what
    "crash" means for its rig. *)

val poll : t -> unit
(** Fire every scripted event whose time has passed, then run one
    resync step if an online resync is in flight. Call this from the
    experiment loop when no RPC traffic would otherwise trigger the
    check (e.g. to make a reboot happen during an idle period, or to
    let a resync drain during client think time). *)

val verdict :
  t -> link:Amoeba_rpc.Link.t option -> Amoeba_rpc.Message.t -> Amoeba_rpc.Transport.delivery
(** The delivery decision for one message, exactly as the installed
    transport hook computes it (due events fire first, then a resync
    step, then the fault draws). Exposed for carriers that deliver
    messages outside the simulated transport — [bulletd --fault-plan]
    consults this over the real-socket path. *)

val detach : t -> unit
(** Remove all hooks; remaining scheduled events never fire. *)

val pending : t -> int
(** Scripted events not yet fired. *)

val stats : t -> Amoeba_sim.Stats.t
(** Counters [drive_failures], [drive_recoveries], [drive_rejoins],
    [server_crashes], [server_reboots], [online_resyncs], [lease_skews],
    [link_partition_drops], [link_request_drops], [link_reply_drops],
    [txn_crashes_armed], [txn_crashes], [txn_drop_<leg>],
    [txn_dup_<leg>] (and [txn_dup_<leg>_discarded] for reply legs),
    [shard_kills]; series [resync_us], [reboot_us],
    [online_resync_us]. *)

val register_metrics : t -> Amoeba_metrics.Metrics.t -> unit
(** Register the injector's live surface: a [fault.pending_events] gauge
    (scripted events not yet fired) and every {!stats} counter under the
    [fault.] prefix. *)
