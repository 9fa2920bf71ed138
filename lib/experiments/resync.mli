(** RESYNC — degraded-but-improving operation: online resync, WAN link
    faults and the directory pair's crash and heal. *)

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

val run : unit -> string list
(** Print the section; it writes no files. *)
