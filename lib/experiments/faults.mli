(** FAULTS — behaviour under failures.

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

val run : unit -> string list
(** Print the section; it writes no files. *)
