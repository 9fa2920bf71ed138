(* Integration tests asserting the paper's quantitative claims (§4) on
   the actual experiment drivers — the same code the benchmark harness
   runs. Reproduction targets (DESIGN.md §3):

   C1  Bullet read 3–6x faster than NFS at every size.
   C2  Bullet write bandwidth ~10x NFS's for large files.
   C3  For files > 64 KB Bullet create+delete bandwidth exceeds NFS read
       bandwidth.
   C4  NFS bandwidth at 1 MB is lower than at 64 KB; Bullet's is monotone.
   C5  P-FACTOR 0 creates are much faster than P-FACTOR >= 1. *)

open Helpers
module E = Experiments

let sizes = [ 1; 256; 4096; 65536; 1048576 ]

let comparisons = lazy (E.Compare.compare_servers ~sizes ())

let find size rows = List.find (fun c -> c.E.Compare.size = size) rows

let test_c1_read_ratio_band () =
  let rows = Lazy.force comparisons in
  let check_row c =
    check_bool
      (Printf.sprintf "size %d: read ratio %.2f in [3, 6.5]" c.E.Compare.size c.E.Compare.read_ratio)
      true
      (c.E.Compare.read_ratio >= 3.0 && c.E.Compare.read_ratio <= 6.5)
  in
  List.iter check_row rows

let test_c2_write_bandwidth_factor_at_1mb () =
  let c = find 1048576 (Lazy.force comparisons) in
  check_bool (Printf.sprintf "write ratio %.1f ~ 10x" c.E.Compare.write_ratio) true
    (c.E.Compare.write_ratio >= 7.0 && c.E.Compare.write_ratio <= 13.0)

let test_c3_bullet_write_beats_nfs_read_above_64kb () =
  let rows = Lazy.force comparisons in
  let check_size size =
    let c = find size rows in
    check_bool
      (Printf.sprintf "size %d: bullet write %.0f KB/s > nfs read %.0f KB/s" size
         c.E.Compare.bullet_write_kbs c.E.Compare.nfs_read_kbs)
      true
      (c.E.Compare.bullet_write_kbs > c.E.Compare.nfs_read_kbs)
  in
  List.iter check_size [ 65536; 1048576 ]

let test_c4_nfs_bandwidth_dips_at_1mb () =
  let rows = Lazy.force comparisons in
  let at64 = find 65536 rows and at1m = find 1048576 rows in
  check_bool "NFS write bandwidth lower at 1 MB than at 64 KB" true
    (at1m.E.Compare.nfs_write_kbs < at64.E.Compare.nfs_write_kbs);
  check_bool "NFS read bandwidth lower at 1 MB than at 64 KB" true
    (at1m.E.Compare.nfs_read_kbs < at64.E.Compare.nfs_read_kbs)

let test_c4_bullet_bandwidth_monotone () =
  let rows = E.Fig2.fig2_bullet ~sizes () in
  let rec check = function
    | (a : E.Common.row) :: (b :: _ as rest) ->
      check_bool
        (Printf.sprintf "bullet read bandwidth rises %d -> %d" a.E.Common.size b.E.Common.size)
        true
        (E.Common.bandwidth_kbs ~size:b.E.Common.size ~us:b.E.Common.read_us
        >= E.Common.bandwidth_kbs ~size:a.E.Common.size ~us:a.E.Common.read_us);
      check rest
    | _ -> ()
  in
  check rows

let test_c5_pfactor () =
  let sweep = E.Pfactor.pfactor_sweep () in
  let at p = List.assoc p sweep in
  check_bool "p=0 at least 1.5x faster than p=1" true (at 1 > at 0 * 3 / 2);
  (* identical mirrored drives written in parallel: p=2 ~ p=1 *)
  check_bool "p=2 close to p=1" true (at 2 < at 1 * 11 / 10)

let test_bullet_absolute_calibration () =
  (* sanity-anchor against the published Amoeba numbers: ~680 KB/s for
     1 MB reads, ~8 ms small reads *)
  let rows = E.Fig2.fig2_bullet ~sizes:[ 1; 1048576 ] () in
  let small = List.find (fun (r : E.Common.row) -> r.E.Common.size = 1) rows in
  let big = List.find (fun (r : E.Common.row) -> r.E.Common.size = 1048576) rows in
  let big_bw = E.Common.bandwidth_kbs ~size:big.E.Common.size ~us:big.E.Common.read_us in
  check_bool (Printf.sprintf "1 B read %.1f ms in [5, 12]" (float_of_int small.E.Common.read_us /. 1000.))
    true
    (small.E.Common.read_us >= 5_000 && small.E.Common.read_us <= 12_000);
  check_bool (Printf.sprintf "1 MB read %.0f KB/s in [600, 750]" big_bw) true
    (big_bw >= 600. && big_bw <= 750.)

let test_fragmentation_experiment () =
  let report = E.Frag.fragmentation_experiment ~churn_ops:600 () in
  check_bool "churn wrote files" true (report.E.Frag.files_written > 50);
  check_bool "churn fragments the disk" true (report.E.Frag.fragmentation_before > 0.05);
  check_bool "compaction moved data" true (report.E.Frag.compaction_moved_blocks > 0);
  Alcotest.(check (float 1e-9)) "compaction leaves one hole" 0.0 report.E.Frag.fragmentation_after;
  check_bool "compaction costs disk time" true (report.E.Frag.compaction_us > 0)

let test_cache_experiment () =
  let report = E.Cache.cache_experiment () in
  check_bool "hit faster than miss" true (report.E.Cache.hit_us < report.E.Cache.miss_us);
  check_bool "cold no slower than miss by much" true
    (report.E.Cache.cold_us <= report.E.Cache.miss_us * 2);
  check_bool
    (Printf.sprintf "working set hits %.2f" report.E.Cache.hit_rate_working_set)
    true
    (report.E.Cache.hit_rate_working_set > 0.9);
  check_bool (Printf.sprintf "thrash hits %.2f" report.E.Cache.hit_rate_thrash) true
    (report.E.Cache.hit_rate_thrash < 0.5)

let test_trace_replay () =
  let report = E.Trace.trace_replay ~ops:120 () in
  check_bool
    (Printf.sprintf "end-to-end speedup %.1fx > 2.5x" report.E.Trace.speedup)
    true (report.E.Trace.speedup > 2.5)

let test_append_ablation () =
  let report = E.Ablation.append_ablation ~appends:20 () in
  check_bool "log server beats MODIFY" true (report.E.Ablation.log_server_us < report.E.Ablation.modify_us);
  check_bool "MODIFY beats naive re-create" true (report.E.Ablation.modify_us < report.E.Ablation.naive_us)

let test_geo_experiment () =
  let r = E.Geo.geo_experiment () in
  check_bool "local < regional" true (r.E.Geo.local_read_us < r.E.Geo.regional_read_us);
  check_bool "regional < wide" true (r.E.Geo.regional_read_us < r.E.Geo.wide_read_us);
  check_string "nearest replica chosen" "tromso" r.E.Geo.nearest_pick;
  check_bool "replication paid at publish" true
    (r.E.Geo.publish_replicated_us > r.E.Geo.publish_local_us)

let test_cache_size_sweep_knee () =
  let points = E.Sweep.cache_size_sweep ~working_set_mb:4 ~cache_mbs:[ 2; 8 ] () in
  match points with
  | [ small; large ] ->
    check_bool "small cache thrashes" true (small.E.Sweep.hit_rate < 0.5);
    check_bool "large cache covers the set" true (large.E.Sweep.hit_rate > 0.9);
    check_bool "latency follows" true (large.E.Sweep.mean_read_ms < small.E.Sweep.mean_read_ms)
  | _ -> Alcotest.fail "expected two points"

let test_naming_experiment () =
  let r = E.Naming.naming_experiment () in
  check_bool "resolve beats stepwise locally" true (r.E.Naming.local_resolve_us < r.E.Naming.local_stepwise_us);
  (* across the wide link the gap approaches the component count *)
  let ratio = float_of_int r.E.Naming.wide_stepwise_us /. float_of_int r.E.Naming.wide_resolve_us in
  check_bool
    (Printf.sprintf "wide-area ratio %.1f near depth %d" ratio r.E.Naming.depth)
    true
    (ratio > float_of_int r.E.Naming.depth *. 0.6)

let test_mix_sweep_monotone_decline () =
  let points = E.Trace.mix_sweep ~ops:150 () in
  match (points, List.rev points) with
  | (_, first) :: _, (_, last) :: _ ->
    check_bool
      (Printf.sprintf "speedup declines with update share (%.2f -> %.2f)" first last)
      true (last < first)
  | _ -> Alcotest.fail "empty sweep"

let test_allocation_ablation_runs () =
  let report = E.Ablation.allocation_ablation ~churn_ops:400 () in
  check_bool "no create failures under mild churn" true
    (report.E.Ablation.first_fit_failures = 0 && report.E.Ablation.best_fit_failures = 0);
  check_bool "fragmentation measured" true
    (report.E.Ablation.first_fit_frag >= 0. && report.E.Ablation.best_fit_frag >= 0.)

let suite =
  ( "claims",
    [
      Alcotest.test_case "C1: reads 3-6x faster at every size" `Slow test_c1_read_ratio_band;
      Alcotest.test_case "C2: ~10x write bandwidth at 1 MB" `Slow test_c2_write_bandwidth_factor_at_1mb;
      Alcotest.test_case "C3: bullet writes beat NFS reads above 64 KB" `Slow
        test_c3_bullet_write_beats_nfs_read_above_64kb;
      Alcotest.test_case "C4: NFS bandwidth dips at 1 MB" `Slow test_c4_nfs_bandwidth_dips_at_1mb;
      Alcotest.test_case "C4: bullet bandwidth monotone" `Slow test_c4_bullet_bandwidth_monotone;
      Alcotest.test_case "C5: P-FACTOR ordering" `Slow test_c5_pfactor;
      Alcotest.test_case "calibration anchors (677 KB/s, 8 ms)" `Slow test_bullet_absolute_calibration;
      Alcotest.test_case "fragmentation and 3 a.m. compaction" `Slow test_fragmentation_experiment;
      Alcotest.test_case "cache hit/miss/cold and LRU rates" `Slow test_cache_experiment;
      Alcotest.test_case "trace replay end-to-end" `Slow test_trace_replay;
      Alcotest.test_case "append ablation ordering" `Slow test_append_ablation;
      Alcotest.test_case "allocation ablation runs" `Slow test_allocation_ablation_runs;
      Alcotest.test_case "geographic scalability ordering" `Slow test_geo_experiment;
      Alcotest.test_case "cache-size sweep knee" `Slow test_cache_size_sweep_knee;
      Alcotest.test_case "naming: resolve beats stepwise" `Slow test_naming_experiment;
      Alcotest.test_case "mix sweep: speedup declines with updates" `Slow
        test_mix_sweep_monotone_decline;
    ] )
