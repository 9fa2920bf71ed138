(* The repo's core invariant, asserted in-process: running the FAULTS
   and RESYNC bench scenarios twice in one process — same plans, same
   seeds — must produce byte-identical dumps. The goldens under
   determinism/golden/ pin each section's output from a fresh process;
   this test catches in-process leaks (global mutable state, hash-order
   dependence) that a fresh-process run cannot see. *)

open Helpers
module E = Experiments.Faults
module R = Experiments.Resync

let dump_availability (a : E.availability_report) =
  Printf.sprintf "avail ops=%d failed=%d p99=%.6f/%.6f degraded=%d resync=%.6f" a.E.avail_ops
    a.E.avail_failed a.E.normal_p99_ms a.E.degraded_p99_ms a.E.degraded_reads a.E.resync_ms

let dump_resync (points : E.resync_point list) =
  String.concat ";"
    (List.map (fun (p : E.resync_point) -> Printf.sprintf "%dMB=%.6f" p.E.disk_mb p.E.resync_ms) points)

let dump_reboot (points : E.reboot_point list) =
  String.concat ";"
    (List.map
       (fun (p : E.reboot_point) -> Printf.sprintf "%d=%.6f" p.E.table_files p.E.reboot_ms)
       points)

let dump_loss (points : E.loss_point list) =
  String.concat ";"
    (List.map
       (fun (p : E.loss_point) ->
         Printf.sprintf
           "loss=%.2f ops=%d done=%d retries=%d timeouts=%d dups=%d goodput=%.6f \
            p50=%.6f p95=%.6f p99=%.6f"
           p.E.loss_pct p.E.loss_ops p.E.loss_completed p.E.loss_retries p.E.loss_timeouts
           p.E.duplicate_executions p.E.goodput_kbs p.E.loss_p50_ms p.E.loss_p95_ms p.E.loss_p99_ms)
       points)

let dump_crash (c : E.crash_report) =
  Printf.sprintf "crash ops=%d failed=%d outage=%.6f reboot=%.6f retries=%d precrash=%b"
    c.E.crash_ops c.E.crash_failed c.E.outage_ms c.E.crash_reboot_ms c.E.crash_retries
    c.E.pre_crash_file_ok

(* One pass over the faults scenario, sweeps trimmed to keep the double
   run quick; every record field lands in the dump. *)
let faults_dump () =
  String.concat "\n"
    [
      dump_availability (E.fault_availability ());
      dump_resync (E.resync_sweep ~sector_counts:[ 16_384; 32_768 ] ());
      dump_reboot (E.reboot_sweep ~max_files_list:[ 1_024; 8_192 ] ());
      dump_loss (E.loss_sweep ~loss_rates:[ 0.02; 0.05 ] ());
      dump_crash (E.crash_recovery ());
    ]

let test_faults_double_run () =
  let first = faults_dump () in
  let second = faults_dump () in
  check_string "same plan, same bytes" first second

(* The RESYNC scenario exercises the online resync scheduler, the WAN
   link faults and the directory-pair crash; its windowed percentiles
   and canonical replica dumps must likewise be a pure function of the
   plans. *)
let dump_resync_windows (r : R.resync_report) =
  String.concat "\n"
    (Printf.sprintf
       "resync ops=%d failed=%d repairs=%d steps=%d sectors=%d \
        online=%.6f step=%.6f normal=%.6f max=%.6f clean=%b"
       r.R.rw_ops r.R.rw_failed r.R.rw_read_repairs r.R.rw_resync_steps
       r.R.rw_resync_sectors r.R.rw_online_resync_ms r.R.rw_step_cost_ms r.R.rw_normal_max_ms
       r.R.rw_max_op_ms r.R.rw_clean_at_end
    :: List.map
         (fun (w : R.resync_window) ->
           Printf.sprintf "w%d %s rem=%d ops=%d p50=%.6f p95=%.6f p99=%.6f" w.R.w_start_ms
             w.R.w_state w.R.w_remaining w.R.w_ops w.R.w_p50_ms w.R.w_p95_ms w.R.w_p99_ms)
         r.R.rw_windows)

let dump_wan (w : R.wan_fault_report) =
  Printf.sprintf
    "wan wide=%d/%d part=%d/%d healed=%b local=%d/%d drops=%d/%d/%d retries=%d quiet=%d faulted=%d"
    w.R.wf_wide_failed w.R.wf_wide_ops w.R.wf_partition_failed w.R.wf_partition_ops w.R.wf_healed_ok
    w.R.wf_local_failed w.R.wf_local_ops w.R.wf_link_request_drops w.R.wf_link_reply_drops
    w.R.wf_partition_drops w.R.wf_retries w.R.wf_quiet_local_us w.R.wf_faulted_local_us

let dump_pair (p : R.pair_report) =
  Printf.sprintf "pair ops=%d failed=%d outage=%d diverged=%s match=%b healed=%b" p.R.pr_ops
    p.R.pr_failed p.R.pr_outage_ops
    (match p.R.pr_diverged with None -> "none" | Some path -> path)
    p.R.pr_state_match p.R.pr_healed

let resync_dump () =
  String.concat "\n"
    [
      dump_resync_windows (R.resync_experiment ());
      dump_wan (R.wan_fault_experiment ());
      dump_pair (R.dir_pair_recovery ());
    ]

let test_resync_double_run () =
  let first = resync_dump () in
  let second = resync_dump () in
  check_string "same plan, same bytes" first second

let suite =
  ( "determinism",
    [
      Alcotest.test_case "faults scenario twice, byte-identical" `Slow test_faults_double_run;
      Alcotest.test_case "resync scenario twice, byte-identical" `Slow test_resync_double_run;
    ] )
