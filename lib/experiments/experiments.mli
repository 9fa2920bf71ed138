(** The paper's evaluation, as reusable experiment drivers.

    Each driver builds a fresh simulated 1989 testbed (16.7 MHz servers,
    10 Mbit/s Ethernet, late-80s drives), runs one of the paper's
    measurements, and returns the data. The benchmark executable prints
    them in the paper's table format; the integration tests assert the
    paper's quantitative claims on them. Virtual time makes every number
    deterministic. *)

type row = {
  size : int;  (** file size in bytes *)
  read_us : int;  (** read delay, µs *)
  write_us : int;  (** Bullet: CREATE+DELETE delay; NFS: CREATE delay *)
}

val bandwidth_kbs : size:int -> us:int -> float
(** KB/s given a transfer size and delay. *)

val paper_sizes : int list
(** The Fig. 2/Fig. 3 rows. *)

(** {1 Main tables} *)

val fig2_bullet : ?sizes:int list -> unit -> row list
(** The paper's Fig. 2: Bullet READ (file fully in server cache, as the
    paper states) and CREATE+DELETE with the file written to both disks. *)

type attrib_breakdown = {
  at_total_us : int;  (** end-to-end duration; equals the sum of the rest *)
  at_net_us : int;  (** wire latency/transmit and timeout waits *)
  at_cpu_us : int;  (** per-request server CPU charge *)
  at_cache_us : int;  (** cache memcpy traffic *)
  at_disk_us : int;  (** seek + rotation + transfer *)
  at_other_us : int;  (** server/client self-time no deeper span claims *)
}

type attrib_row = {
  at_size : int;
  at_read : attrib_breakdown;  (** cached SIZE+READ pair *)
  at_write : attrib_breakdown;  (** CREATE+DELETE pair *)
}

val fig2_attrib : ?sizes:int list -> unit -> attrib_row list
(** Fig. 2 re-measured with the tracer on: every simulated microsecond of
    each row charged to a layer by {!Amoeba_trace.Attrib}.  The cached
    READ rows show only net + cpu (+ memcpy) time — the paper's §4 claim
    as measured output — while CREATE+DELETE is dominated by the
    synchronous disk writes. *)

val fig3_nfs : ?sizes:int list -> unit -> row list
(** The paper's Fig. 3: SUN NFS READ and CREATE, client caching disabled
    ([lockf]), one data disk, 3 MB server buffer cache aged between the
    create and read phases (normally loaded server). *)

type comparison = {
  size : int;
  read_ratio : float;  (** NFS read delay / Bullet read delay (claim: 3–6×) *)
  bullet_write_kbs : float;
  nfs_write_kbs : float;
  nfs_read_kbs : float;
  write_ratio : float;  (** Bullet/NFS write bandwidth (claim: ~10× at 1 MB) *)
}

val compare_servers : ?sizes:int list -> unit -> comparison list
(** Fig. 2 vs Fig. 3, aligned by size — the §4 prose claims. *)

(** {1 Secondary experiments} *)

val pfactor_sweep : ?size:int -> unit -> (int * int) list
(** [(p_factor, create_delay_us)] for P-FACTOR 0, 1, 2 (claim C5). *)

type frag_report = {
  files_written : int;
  disk_utilisation : float;  (** fraction of the data area holding files *)
  fragmentation_before : float;
  largest_hole_before : int;
  compaction_moved_blocks : int;
  compaction_us : int;
  fragmentation_after : float;
}

val fragmentation_experiment : ?churn_ops:int -> ?seed:int64 -> unit -> frag_report
(** Drive a create/delete churn against a small disk until allocation
    pressure shows, then run the 3 a.m. compaction (paper §3's trade-off:
    an 800 MB disk storing ~500 MB of files). *)

type cache_report = {
  hit_us : int;
  miss_us : int;
  cold_us : int;  (** read straight after restart (inode table in RAM, file on disk) *)
  hit_rate_working_set : float;  (** LRU hit rate when the working set fits *)
  hit_rate_thrash : float;  (** and when it exceeds the cache *)
}

val cache_experiment : unit -> cache_report

type ablation_report = {
  first_fit_frag : float;
  best_fit_frag : float;
  first_fit_failures : int;  (** creates refused under churn *)
  best_fit_failures : int;
}

val allocation_ablation : ?churn_ops:int -> unit -> ablation_report
(** First-fit (the paper's choice) vs best-fit under identical churn. *)

type trace_report = {
  ops : int;
  bullet_total_us : int;
  nfs_total_us : int;
  speedup : float;
  bullet_p50_ms : float;  (** median per-operation latency *)
  bullet_p99_ms : float;
  nfs_p50_ms : float;
  nfs_p99_ms : float;
}

val trace_replay : ?ops:int -> ?seed:int64 -> ?mix:Workload.Trace.mix -> unit -> trace_report
(** Replay the same BSD-style trace (1984 size distribution, 75 %
    whole-file reads by default) against both servers end to end. *)

val mix_sweep : ?ops:int -> unit -> (float * float) list
(** [(update_fraction, bullet_speedup)] as the workload shifts from the
    read-dominated BSD mix toward small in-place updates — the regime
    where immutability pays a whole-file copy per update and the
    baseline merely rewrites one block. Honest about where the design
    loses: the speedup falls toward (and can cross) 1 as updates
    dominate, which is exactly why §2 concedes logs and databases to
    other mechanisms. *)

type append_report = {
  appends : int;
  log_server_us : int;  (** via the log server *)
  modify_us : int;  (** via BULLET.MODIFY (server-side copy) *)
  naive_us : int;  (** read + whole-file re-create from the client *)
}

val append_ablation : ?appends:int -> ?record_bytes:int -> ?base_bytes:int -> unit -> append_report
(** The log-file problem of §2: three ways to append under the immutable
    model. *)

type immediate_report = {
  plain_write_us : int;  (** 60 B create+write, stock baseline *)
  immediate_write_us : int;  (** same with inode-inline small files *)
  plain_read_us : int;  (** 60 B read, aged cache *)
  immediate_read_us : int;
  bullet_read_us : int;  (** Bullet, same file size, for scale *)
}

val immediate_ablation : unit -> immediate_report
(** ABL3 — reference [1]'s "immediate files" retrofitted onto the block
    baseline: small-file operations touch only the inode. Narrows the
    small-file gap; leaves the large-file gap untouched (that one is the
    Bullet design itself). *)

type geo_report = {
  file_bytes : int;
  local_read_us : int;  (** replica at the reader's site *)
  regional_read_us : int;  (** replica one gateway away *)
  wide_read_us : int;  (** replica across the international line *)
  nearest_pick : string;  (** which site [fetch] chose for the remote reader *)
  publish_local_us : int;
  publish_replicated_us : int;  (** publish + ship one replica abroad *)
}

val geo_experiment : ?file_bytes:int -> unit -> geo_report
(** Geographic scalability (paper §2.1): a federation spanning
    Amsterdam, a regional site and Norway; read one file from replicas
    at each distance and show nearest-replica selection. *)

type naming_report = {
  depth : int;  (** path components resolved *)
  local_resolve_us : int;  (** server-side walk, one RPC, same Ethernet *)
  local_stepwise_us : int;  (** one lookup RPC per component *)
  wide_resolve_us : int;  (** same, with the directory server abroad *)
  wide_stepwise_us : int;
}

val naming_experiment : ?depth:int -> unit -> naming_report
(** Path resolution cost: the directory server walks "a/b/.../leaf" in
    one RPC vs the client looking up each component. On the local
    Ethernet the difference is small; across a gateway it is the
    difference between one and N wide-area round trips — why Amoeba
    resolved paths server-side. *)

type scale_point = {
  clients : int;
  throughput_per_sec : float;
  mean_response_ms : float;
  utilisation : float;
}

type scale_report = {
  bullet_service_us : int;  (** measured per-request server demand (4 KB read) *)
  nfs_service_us : int;
  bullet_knee : float;  (** analytic saturation population *)
  nfs_knee : float;
  bullet_points : scale_point list;
  nfs_points : scale_point list;
}

val scale_experiment : ?client_counts:int list -> ?think_ms:int -> unit -> scale_report
(** Quantitative scalability (paper §2: "there may be thousands of
    processors accessing files"): a closed loop of pool processors
    reading 4 KB files. Server demands are measured on the real
    implementations (Bullet: RAM-cache hit; NFS: per-block path on a
    normally-loaded server); contention comes from discrete-event
    simulation of the FIFO server queue. *)

type cache_sweep_point = {
  cache_mb : int;
  hit_rate : float;
  mean_read_ms : float;
}

val cache_size_sweep : ?working_set_mb:int -> ?cache_mbs:int list -> unit -> cache_sweep_point list
(** Scan a fixed working set (64 KB files, three passes, LRU) under
    different server cache sizes; the knee sits where the cache stops
    covering the working set — the sizing argument behind "all of the
    server's remaining memory will be used for file caching". *)

val pfactor_matrix :
  ?sizes:int list -> unit -> (int * (int * int) list) list
(** [(size, [(p, create_us); ...]); ...] — how the P-FACTOR trade moves
    with file size (the network term grows, the disk term is what p
    removes). *)

(** {1 FAULTS — behaviour under failures}

    Driven by [Amoeba_fault] plans: deterministic schedules of drive
    failures, server crashes and probabilistic message faults against a
    live rig. Same plan, same seed — byte-identical results. *)

type availability_report = {
  avail_ops : int;  (** client reads issued over the 10 s run *)
  avail_failed : int;  (** reads that surfaced an error (claim: 0) *)
  normal_p99_ms : float;  (** tail latency, both drives live *)
  degraded_p99_ms : float;  (** tail latency during the drive outage *)
  degraded_reads : int;  (** mirror reads served with a drive down *)
  resync_ms : float;  (** whole-disk copy when the drive returns *)
}

val fault_availability : unit -> availability_report
(** Drive 0 fails at t=2 s and is repaired + resynced at t=6 s under a
    steady uncached read load: "the file server can proceed
    uninterruptedly by using the other disk". *)

type resync_point = { disk_mb : int; resync_ms : float }

val resync_sweep : ?sector_counts:int list -> unit -> resync_point list
(** Mirror resync ("copying the complete disk") time against disk
    capacity — linear, independent of live data. *)

type reboot_point = { table_files : int; reboot_ms : float }

val reboot_sweep : ?max_files_list:int list -> unit -> reboot_point list
(** Crash-then-reboot time against inode-table size: boot is one
    sequential scan of the table. *)

type loss_point = {
  loss_pct : float;
  loss_ops : int;
  loss_completed : int;  (** ops that succeeded within the retry bound *)
  loss_retries : int;  (** resends the client stats recorded *)
  loss_timeouts : int;
  duplicate_executions : int;  (** retried CREATEs run twice (claim: 0) *)
  goodput_kbs : float;
  loss_p50_ms : float;  (** per-transaction latency percentiles, retries *)
  loss_p95_ms : float;  (** and backoff included, from the client's log2 *)
  loss_p99_ms : float;  (** histogram — the tail the goodput mean hides *)
}

val loss_sweep : ?loss_rates:float list -> unit -> loss_point list
(** Create+read goodput under 1–10% per-direction message loss, with
    timeout + bounded exponential retry and xid dedup on mutations. *)

type crash_report = {
  crash_ops : int;
  crash_failed : int;  (** ops lost to the crash (claim: 0 — retries span it) *)
  outage_ms : float;  (** scripted crash-to-reboot gap *)
  crash_reboot_ms : float;  (** measured boot-scan duration *)
  crash_retries : int;
  pre_crash_file_ok : bool;
      (** a capability minted before the crash still reads correctly
          after reboot (same seed, same sealer) *)
}

val crash_recovery : unit -> crash_report
(** Server crashes mid-workload at t=2 s (port unbound, cache and
    write-behind lost), reboots at t=2.5 s from the surviving image;
    clients retry across the outage. *)

(** {1 RESYNC: degraded-but-improving operation} *)

type resync_window = {
  w_start_ms : int;
  w_state : string;  (** mirror state at the end of the window *)
  w_remaining : int;  (** resync backlog (sectors) at the end of the window *)
  w_ops : int;
  w_p50_ms : float;
  w_p95_ms : float;
  w_p99_ms : float;
}

type resync_report = {
  rw_windows : resync_window list;
  rw_ops : int;
  rw_failed : int;
  rw_read_repairs : int;
  rw_fallthroughs : int;
  rw_resync_steps : int;
  rw_resync_sectors : int;
  rw_online_resync_ms : float;  (** virtual wall time from rejoin to clean *)
  rw_step_cost_ms : float;  (** worst-case disk cost of one resync batch *)
  rw_normal_max_ms : float;  (** slowest op before the failure *)
  rw_max_op_ms : float;  (** slowest op anywhere, resync included *)
  rw_clean_at_end : bool;
}

val resync_experiment : ?sectors:int -> ?batch:int -> unit -> resync_report
(** The online-resync story across fail → rejoin → clean: drive 1 dies
    at t=2 s and rejoins fully dirty at t=4 s; the backlog drains one
    [batch]-sector step per poll point, charged against the foreground
    read workload. The windowed percentiles show latency rising during
    the resync and recovering after, with zero failed operations; the
    resync backlog shrinks monotonically; and no single op ever costs
    more than its own I/O plus a bounded number of batches
    ([rw_max_op_ms] vs [rw_step_cost_ms]). *)

type wan_fault_report = {
  wf_wide_ops : int;
  wf_wide_failed : int;  (** during the loss phase, after retries *)
  wf_partition_ops : int;
  wf_partition_failed : int;  (** must equal [wf_partition_ops] *)
  wf_healed_ok : bool;
  wf_local_ops : int;
  wf_local_failed : int;
  wf_link_request_drops : int;
  wf_link_reply_drops : int;
  wf_partition_drops : int;
  wf_retries : int;
  wf_quiet_local_us : int;  (** one warm local fetch before any fault *)
  wf_faulted_local_us : int;  (** the same fetch while the wide line is down *)
}

val wan_fault_experiment : ?file_bytes:int -> unit -> wan_fault_report
(** Fault the international line, not the network: [Link_loss 0.25] then
    [Link_partition] then [Link_heal], all scoped to [Wide]. Cross-border
    fetches ride retries through the loss phase and fail during the
    partition; local traffic never fails and — because link-scoped
    faults on other links consume no random draw — the faulted local
    fetch costs exactly as much as the quiet one. *)

type pair_report = {
  pr_ops : int;
  pr_failed : int;
  pr_outage_ops : int;  (** mutations applied while the primary was down *)
  pr_diverged : string option;
  pr_state_match : bool;  (** replica state dumps byte-identical *)
  pr_healed : bool;
}

val dir_pair_recovery : unit -> pair_report
(** The replicated directory pair under a plan: the primary dies at
    t=1 s in the middle of a mutation stream, the backup serves alone,
    and the heal at t=3 s replays the backup's state onto the primary
    via a checkpoint copy. Afterwards the replicas must show no
    divergence and their canonical state dumps
    ({!Amoeba_dir.Dir_pair.replica_dumps}) must be byte-identical. *)

(** {2 LOAD: multi-station concurrency and overload} *)

type load_profile = {
  lpr_class : string;  (** operation class, e.g. ["read64k"] *)
  lpr_segments : (string * int) list;
      (** scheduler demand: (station name, µs) in request order; sums to
          [lpr_traced_us] exactly *)
  lpr_traced_us : int;  (** attributed end-to-end time of the traced op *)
}

type load_point = {
  lp_clients : int;
  lp_throughput : float;
  lp_mean_ms : float;
  lp_p50_ms : float;
  lp_p95_ms : float;
  lp_p99_ms : float;
  lp_util : (string * float) list;  (** per-station utilisation *)
}

type overload_point = {
  ov_policy : string;  (** ["block"], ["shed"] or ["deadline"] *)
  ov_goodput : float;  (** completions that reached a waiting client, per second *)
  ov_p99_ms : float;
  ov_offered : int;
  ov_completed : int;
  ov_failed : int;
  ov_shed : int;
  ov_deadline_misses : int;
  ov_abandoned : int;
  ov_retried : int;
  ov_late : int;  (** completions the server wasted on departed clients *)
}

type server_load = {
  sl_name : string;
  sl_profiles : load_profile list;
  sl_knee : float;  (** analytic saturation population *)
  sl_serial_cap_per_sec : float;  (** one-request-at-a-time throughput bound *)
  sl_knee_throughput : float;  (** measured at [ceil sl_knee] clients *)
  sl_points : load_point list;
}

type load_report = {
  lr_bullet : server_load;
  lr_nfs : server_load;
  lr_overload_clients : int;
      (** 2x the measured saturation population (smallest swept client
          count within 5% of peak) *)
  lr_peak_goodput : float;  (** best throughput over the plain sweep *)
  lr_overload : overload_point list;
}

val load_experiment :
  ?client_counts:int list -> ?think_ms:int -> ?requests_per_client:int -> unit -> load_report
(** The concurrent-server scaling story.  Demand profiles are measured
    by tracing the real Bullet and NFS servers once per operation class
    and converting the attribution sweep into per-station segments (the
    sums are asserted to match the traced time exactly); the scheduler
    then sweeps client counts over a CPU + wire + drive-arm station
    network, and drives the Bullet configuration at twice its measured
    saturation population under
    [Block]/[Shed]/[Deadline] with retrying clients.  Raises [Failure]
    if any acceptance invariant is violated: knee throughput must beat
    the serial bound, shedding must hold goodput within 10% of peak, and
    blocking must collapse below it. *)

val load_sched_trace : unit -> Amoeba_trace.Sink.t * Amoeba_sched.Sched.report
(** A small overloaded deterministic run with [sched.*] spans collected
    in the returned sink — the trace the CI double-run diffs and
    [bullet_trace --sched] renders. *)

(** {2 LEASE: the zero-RPC read fast path} *)

type lease_fault = {
  lf_plan : string;
  lf_reads : int;
  lf_failed : int;  (** liveness losses: [Not_found] after removal, exhausted retries *)
  lf_stale : int;  (** reads returning old bytes after the mutation completed — must be 0 *)
  lf_revalidations : int;  (** renew + grant RPCs the station issued *)
  lf_consistent : bool;  (** pair replicas byte-identical (and epoch agreed) at the end *)
}

type lease_report = {
  le_cold_rpcs : int;  (** first read: lease grant + SIZE + READ *)
  le_warm_reads : int;
  le_warm_rpcs : int;  (** across all warm reads — must be 0 *)
  le_warm_read_us : int;  (** one warm read: local verify + memcpy only *)
  le_trusted_hit_us : int;
  le_untrusted_hit_us : int;
  le_untrusted_hit_rpcs : int;  (** the verification round trip *)
  le_renew_rpcs : int;  (** read after expiry: the one cheap epoch check *)
  le_forged_rejected : bool;  (** forged check field fails local verification *)
  le_faults : lease_fault list;
  le_hot_profile : load_profile;  (** hot-read demand as leased stations see it *)
  le_hot_rpc_count : int;  (** "rpc" spans in the traced warm read — must be 0 *)
  le_baseline_hot : load_profile;  (** the same hot read through plain RPC *)
  le_baseline_knee : float;
  le_baseline_knee_throughput : float;
  le_leased_knee : float;
  le_leased_knee_throughput : float;
  le_server_evicted_bytes : int;  (** under pressure, from the server RAM cache *)
  le_client_evicted_bytes : int;  (** same counter, client side *)
}

val lease_experiment : unit -> lease_report
(** The zero-RPC read fast path, end to end.  A trusted station (holding
    the Bullet server's sealer out of band) reads a hot file through
    {!Amoeba_lease.Station}: the first read pays the lease grant plus
    the fetch, every repeat read under the lease issues {e zero} RPCs
    and finishes in local-verify + memcpy time.  The untrusted path
    still pays exactly one verification round trip.  Four fault plans —
    a replace racing lease expiry, the directory primary crashing on the
    epoch bump, message loss across revalidations, and a skewed client
    lease clock (scripted via the [lease_skew] plan grammar) — must all
    show zero stale serves.  Finally the LOAD machinery re-derives the
    hot-read demand profile from a traced leased read and shows the
    saturation knee moving right of the plain-RPC baseline.  Raises
    [Failure] if any of these invariants is violated. *)

val lease_trace : unit -> Amoeba_trace.Sink.t
(** A small scripted lease scenario with the tracer on — grant, zero-RPC
    cache hits, expiry and renewal, revocation after a replace, and a
    failed read after removal.  Deterministic; the CI double-run diffs
    its dump and [bullet_trace --lease] renders it. *)

(** {2 METRICS: live health over scripted fault plans} *)

type metrics_scenario = {
  ms_name : string;
  ms_interval_us : int;
  ms_snapshots : Amoeba_metrics.Metrics.snapshot list;  (** the scrape ring, oldest first *)
  ms_transitions : (int * Amoeba_metrics.Health.state) list;
  ms_alerts : (int * string * bool) list;  (** SLO fire/clear edges *)
  ms_final : Amoeba_metrics.Health.state;
}

type metrics_report = {
  mx_scenarios : metrics_scenario list;
  mx_status_metrics : int;  (** samples in the STD_STATUS snapshot *)
  mx_status_bytes : int;  (** its binary encoding *)
  mx_roundtrip_ok : bool;  (** encode -> decode -> encode is byte-identical *)
}

val metrics_experiment : unit -> metrics_report
(** The observability tentpole, end to end.  Three scripted fault plans
    run against live registries with a virtual-clock scraper and the
    {!Amoeba_metrics.Health} evaluator folding every snapshot:

    - {b drive-rejoin}: a mirror drive fails at 2 s and rejoins fully
      dirty at 4 s under a read-plus-create workload.  The transition
      sequence must be exactly healthy -> degraded (positive backlog) ->
      healthy, and the p99 read-latency SLO must burn through its window
      while the resync drains.
    - {b overload-storm}: a twice-saturated shedding scheduler.  The
      interval shed rate must flip the state to overloaded, and the
      response-p99, goodput-floor and shed-budget alerts must all fire.
    - {b lease-skew}: the lease clock jumps forward then steps back
      under the plan DSL.  The churn counter must read lease_churning —
      never degraded or overloaded — and the warm-hit SLO stays quiet.

    Also exercises the STD_STATUS surface off the drive-rejoin server:
    the binary snapshot must decode and re-encode byte-identically.
    Raises [Failure] if any transition sequence or alert edge deviates. *)

val metrics_dump : metrics_report -> string
(** Deterministic text dump — every snapshot, transition and alert edge.
    The CI double-run diffs it byte for byte; [bullet_top --replay]
    renders the same data. *)

(**/**)

val metrics_drive_rejoin : unit -> metrics_scenario * (int * int * bool) * bool
val metrics_overload_storm : unit -> metrics_scenario * Amoeba_sched.Sched.report
val metrics_lease_skew : unit -> metrics_scenario

(**/**)

(** {2 TXN: atomic multi-object operations under fault plans} *)

type txn_fault = {
  tf_plan : string;
  tf_scenario : string;  (** which of the three scenarios the plan was driven against *)
  tf_expected : string;  (** the outcome the plan must resolve to *)
  tf_outcome : string;  (** the post-recovery outcome: ["committed"] or ["aborted"] *)
  tf_crashed : bool;  (** a crash directive actually fired mid-protocol *)
  tf_in_doubt_before : int;  (** WAL in-doubt count when recovery starts *)
  tf_resolved_commits : int;
  tf_resolved_aborts : int;
  tf_atomic : bool;  (** visible state matches the outcome everywhere — never mixed *)
  tf_orphans : int;  (** fsck orphans on the file server after recovery — must be 0 *)
  tf_pending : int;  (** prepared residue anywhere after recovery — must be 0 *)
  tf_dumps_equal : bool;  (** both pairs byte-identical across replicas *)
  tf_stable : bool;  (** a second recovery pass finds nothing to do *)
}

type txn_report = {
  tx_quiet : (string * string) list;  (** scenario name, outcome of the unfaulted run *)
  tx_quiet_wal : int;  (** WAL records after the three quiet commits *)
  tx_quiet_clean : bool;  (** quiet runs atomic, residue-free, orphan-free *)
  tx_faults : txn_fault list;
  tx_health : (int * string) list;  (** health transitions of the stuck-coordinator run *)
  tx_stuck_label : string;  (** the state while the coordinator stayed dead *)
  tx_status_has_gauges : bool;  (** STD_STATUS carries the [txn.*] surface *)
}

val txn_experiment : unit -> txn_report
(** The atomic-commitment tentpole, end to end.  Three multi-object
    scenarios — create-and-bind, a rename spanning two directory pairs,
    replace-with-delete — run through the {!Amoeba_txn.Txn} coordinator
    against a Bullet file server and two replicated directory pairs.
    After the quiet baseline (all three commit, no residue), every
    protocol edge gets a named fault plan scripted through the plan DSL:
    the five [txn_crash] points (coordinator before/after prepare, after
    the commit record, between decision legs; participant primary after
    prepare) and [txn_drop]/[txn_dup] on each of the four message legs.
    Each faulted run is resolved by {!Amoeba_txn.Txn.recover} and must
    end committed-everywhere or aborted-everywhere — exactly as the plan
    pins it — with zero fsck orphans, zero prepared residue, both pairs'
    replica dumps byte-identical, and a second recovery pass finding
    nothing.  A separate stuck-coordinator run asserts the metrics
    surface: the [txn.in_doubt] gauge flips the health state to
    [txn_stuck] after two doubtful scrapes and hysteresis walks it back
    to healthy once recovery drains the WAL.  Raises [Failure] if any
    invariant is violated. *)

val txn_dump : txn_report -> string
(** Deterministic text dump — one line per quiet run, fault plan and
    health transition.  The CI double-run diffs it byte for byte. *)

(** {2 CLUSTER: a sharded multi-server Bullet with live rebalancing} *)

type cluster_report = {
  cl_scenario : metrics_scenario;
      (** health over the cluster gauges — healthy -> rebalancing -> healthy *)
  cl_objects : int;
  cl_live_servers : int;
  cl_join_delta : int;  (** dirty shards right after the two joins *)
  cl_join_expected : int;  (** ring-computed delta — must match exactly *)
  cl_untouched : int;  (** keys whose shard the whole episode never disturbed *)
  cl_untouched_moved : int;  (** of those, holders changed — must be 0 *)
  cl_kill_fired : bool;  (** the scripted [shard_kill] fired while rebalancing *)
  cl_polled_reads : int;  (** foreground reads issued during the episode *)
  cl_unreadable : int;  (** reads that failed or returned wrong bytes — must be 0 *)
  cl_fallthroughs : int;
  cl_read_repairs : int;
  cl_migrated : int;  (** objects copied by the rebalancer *)
  cl_under_peak : int;  (** worst under-replication seen after the kill *)
  cl_under_final : int;  (** must be 0 after the heal *)
  cl_spread : int * int;  (** min/max live copies per key at the end — must be (R, R) *)
  cl_checkpoint : string;  (** canonical cluster-directory dump *)
  cl_checkpoint_parses : bool;
  cl_double_run_identical : bool;  (** second full run, byte-identical checkpoint *)
  cl_status_has_gauges : bool;  (** STD_STATUS carries the [cluster.*] surface *)
}

val cluster_experiment : unit -> cluster_report
(** The sharded-cluster tentpole, end to end.  Three servers in two
    regions carry 48 objects at R = 2; two more servers join and the
    membership change must mark {e exactly} the ring-delta shards
    (computed independently off {!Amoeba_cluster.Ring.owners} and
    compared shard for shard).  Two joins can replace {e both} members
    of a group — one join alone always keeps an old owner — so some
    reads are forced to fall through to a live holder and read-repair
    off the measured path.  The rebalancer drains the backlog in
    bounded batches charged on the virtual clock while foreground reads
    keep flowing — every read must return the right bytes throughout —
    and a [shard_kill] scripted through the fault-plan DSL fells one of
    the original servers mid-migration, leaving four servers live.  At the end: zero under-replicated keys, exactly
    R live copies of every object, shards outside the deltas never
    moved, and the health evaluator (watching [cluster.shards_remaining]
    off the same registry STD_STATUS serves) walked exactly
    healthy -> rebalancing -> healthy.  The whole episode runs twice
    and the canonical checkpoints must be byte-identical.  Raises
    [Failure] if any invariant is violated. *)

val cluster_dump : cluster_report -> string
(** Deterministic text dump — scenario snapshots, transitions, alert
    edges, episode scalars and the canonical checkpoint.  The CI
    double-run diffs it byte for byte; [bullet_top --replay] renders
    the scenario. *)

type cluster_bench_point = {
  cb_objects : int;
  cb_delta_shards : int;  (** shards the fourth join disturbs *)
  cb_steps : int;  (** bounded rebalance steps to drain *)
  cb_copied : int;  (** objects copied *)
  cb_rebalance_us : int;  (** virtual time the drain charged *)
}

type cluster_bench = {
  cb_points : cluster_bench_point list;  (** rebalance cost vs object count *)
  cb_quiet_reads : int;
  cb_quiet_us : int;  (** virtual time the quiet reads charged *)
  cb_migrate_reads : int;
  cb_migrate_us : int;  (** the same read mix interleaved with the drain *)
}

val cluster_bench : unit -> cluster_bench
(** The bench sweep behind the [cluster] section: full-drain rebalance
    cost as the object count grows (the delta-shard count stays
    ring-determined, so time scales with the objects living in the
    delta), and goodput — the same read mix — against a quiet cluster
    versus one draining a join one bounded step per read.  All times
    are virtual, so the numbers are byte-stable across runs. *)
