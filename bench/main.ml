(* The paper's evaluation harness: regenerates every table and figure of
   "The Design of a High-Performance File Server" (ICDCS 1989), plus the
   ablations DESIGN.md calls out and Bechamel microbenchmarks of the real
   code.

   Usage:  dune exec bench/main.exe            (everything)
           dune exec bench/main.exe -- fig2 compare micro   (a subset) *)

module E = Experiments

let ms us = float_of_int us /. 1000.

let line () = print_endline (String.make 72 '-')

let header title =
  print_newline ();
  line ();
  Printf.printf "%s\n" title;
  line ()

let size_label n = Workload.Sizes.describe n

(* ---- Fig. 2: the Bullet server ---- *)

let fig2 () =
  header "FIG2 - Bullet file server: READ and CREATE+DELETE (paper Fig. 2)";
  let rows = E.fig2_bullet () in
  Printf.printf "(a) Delay (msec)\n";
  Printf.printf "  %-10s %12s %12s\n" "File Size" "READ" "CREATE+DEL";
  List.iter
    (fun (r : E.row) ->
      Printf.printf "  %-10s %12.2f %12.2f\n" (size_label r.E.size) (ms r.E.read_us) (ms r.E.write_us))
    rows;
  Printf.printf "\n(b) Bandwidth (Kbytes/sec)\n";
  Printf.printf "  %-10s %12s %12s\n" "File Size" "READ" "CREATE+DEL";
  List.iter
    (fun (r : E.row) ->
      Printf.printf "  %-10s %12.1f %12.1f\n" (size_label r.E.size)
        (E.bandwidth_kbs ~size:r.E.size ~us:r.E.read_us)
        (E.bandwidth_kbs ~size:r.E.size ~us:r.E.write_us))
    rows

(* ---- ATTRIB: Fig. 2 rows with per-layer time attribution ---- *)

let attrib () =
  header "ATTRIB - Fig. 2 rows with per-layer time attribution (trace spans)";
  let rows = E.fig2_attrib () in
  let pct part total = if total = 0 then 0. else 100. *. float_of_int part /. float_of_int total in
  let table title pick =
    Printf.printf "%s\n" title;
    Printf.printf "  %-10s %10s %7s %7s %7s %7s %7s\n" "File Size" "total ms" "net%" "cpu%"
      "cache%" "disk%" "other%";
    List.iter
      (fun (r : E.attrib_row) ->
        let b : E.attrib_breakdown = pick r in
        Printf.printf "  %-10s %10.2f %7.1f %7.1f %7.1f %7.1f %7.1f\n" (size_label r.E.at_size)
          (ms b.E.at_total_us) (pct b.E.at_net_us b.E.at_total_us)
          (pct b.E.at_cpu_us b.E.at_total_us) (pct b.E.at_cache_us b.E.at_total_us)
          (pct b.E.at_disk_us b.E.at_total_us) (pct b.E.at_other_us b.E.at_total_us))
      rows
  in
  table "(a) READ, file in server cache (paper: RPC + memcpy, no disk)"
    (fun r -> r.E.at_read);
  print_newline ();
  table "(b) CREATE+DELETE, write-through to both disks (paper: disk-bound)"
    (fun r -> r.E.at_write);
  Printf.printf
    "\n(every simulated microsecond is charged to exactly one layer; rows\n\
    \ sum to 100%% by construction — see bin/bullet_trace for span trees)\n"

(* ---- Fig. 3: SUN NFS ---- *)

let fig3 () =
  header "FIG3 - SUN NFS baseline: READ and CREATE (paper Fig. 3)";
  let rows = E.fig3_nfs () in
  Printf.printf "(a) Delay (msec)\n";
  Printf.printf "  %-10s %12s %12s\n" "File Size" "READ" "CREATE";
  List.iter
    (fun (r : E.row) ->
      Printf.printf "  %-10s %12.2f %12.2f\n" (size_label r.E.size) (ms r.E.read_us) (ms r.E.write_us))
    rows;
  Printf.printf "\n(b) Bandwidth (Kbytes/sec)\n";
  Printf.printf "  %-10s %12s %12s\n" "File Size" "READ" "CREATE";
  List.iter
    (fun (r : E.row) ->
      Printf.printf "  %-10s %12.1f %12.1f\n" (size_label r.E.size)
        (E.bandwidth_kbs ~size:r.E.size ~us:r.E.read_us)
        (E.bandwidth_kbs ~size:r.E.size ~us:r.E.write_us))
    rows

(* ---- the §4 comparison claims ---- *)

let verdict ok = if ok then "holds" else "FAILS"

let compare_cmd () =
  header "CMP - Bullet vs NFS: the paper's Section 4 claims";
  let rows = E.compare_servers () in
  Printf.printf "  %-10s %14s %18s %16s %14s\n" "File Size" "read ratio" "bullet write KB/s"
    "nfs write KB/s" "nfs read KB/s";
  List.iter
    (fun c ->
      Printf.printf "  %-10s %14.2f %18.1f %16.1f %14.1f\n" (size_label c.E.size) c.E.read_ratio
        c.E.bullet_write_kbs c.E.nfs_write_kbs c.E.nfs_read_kbs)
    rows;
  print_newline ();
  let at size = List.find (fun c -> c.E.size = size) rows in
  let c1 = List.for_all (fun c -> c.E.read_ratio >= 3.0 && c.E.read_ratio <= 6.5) rows in
  Printf.printf "  C1 reads 3-6x faster at every size:            %s\n" (verdict c1);
  let big = at 1_048_576 in
  Printf.printf "  C2 ~10x write bandwidth at 1 MB (measured %.1fx): %s\n" big.E.write_ratio
    (verdict (big.E.write_ratio >= 7.0));
  let c3 =
    List.for_all
      (fun c -> c.E.size < 65_536 || c.E.bullet_write_kbs > c.E.nfs_read_kbs)
      rows
  in
  Printf.printf "  C3 bullet writes beat NFS reads above 64 KB:   %s\n" (verdict c3);
  let k64 = at 65_536 in
  let c4 =
    big.E.nfs_write_kbs < k64.E.nfs_write_kbs && big.E.nfs_read_kbs < k64.E.nfs_read_kbs
  in
  Printf.printf "  C4 NFS bandwidth dips at 1 MB:                 %s\n" (verdict c4)

(* ---- P-FACTOR ---- *)

let pfactor () =
  header "PFACT - create delay vs Paranoia Factor (64 KB file)";
  Printf.printf "  %-10s %14s\n" "P-FACTOR" "CREATE (msec)";
  List.iter (fun (p, us) -> Printf.printf "  %-10d %14.2f\n" p (ms us)) (E.pfactor_sweep ());
  Printf.printf
    "  (p=0 replies from RAM; p=1 waits for one disk; p=2 waits for both,\n\
    \   written in parallel - the paper's measurement configuration)\n"

(* ---- fragmentation ---- *)

let frag () =
  header "FRAG - external fragmentation and the 3 a.m. compaction";
  let r = E.fragmentation_experiment () in
  Printf.printf "  files written under churn        %d\n" r.E.files_written;
  Printf.printf "  disk utilisation at pressure     %.1f%%\n" (100. *. r.E.disk_utilisation);
  Printf.printf "  fragmentation before             %.3f\n" r.E.fragmentation_before;
  Printf.printf "  largest free hole before         %d blocks\n" r.E.largest_hole_before;
  Printf.printf "  compaction moved                 %d blocks\n" r.E.compaction_moved_blocks;
  Printf.printf "  compaction took                  %.1f s (simulated)\n"
    (float_of_int r.E.compaction_us /. 1e6);
  Printf.printf "  fragmentation after              %.3f\n" r.E.fragmentation_after;
  Printf.printf
    "  (the paper's trade-off: contiguous storage wastes space between\n\
    \   files; a nightly compaction reclaims it)\n"

(* ---- cache ---- *)

let cache () =
  header "CACHE - RAM cache behaviour (256 KB file, 2 MB cache)";
  let r = E.cache_experiment () in
  Printf.printf "  read, cache hit                  %8.2f ms\n" (ms r.E.hit_us);
  Printf.printf "  read, cache miss (disk load)     %8.2f ms\n" (ms r.E.miss_us);
  Printf.printf "  read, cold server                %8.2f ms\n" (ms r.E.cold_us);
  Printf.printf "  LRU hit rate, working set fits   %8.1f%%\n" (100. *. r.E.hit_rate_working_set);
  Printf.printf "  LRU hit rate, working set 2x     %8.1f%%\n" (100. *. r.E.hit_rate_thrash)

(* ---- ablations ---- *)

let ablation () =
  header "ABL1 - allocation policy ablation (first-fit vs best-fit)";
  let r = E.allocation_ablation () in
  Printf.printf "  %-12s %16s %16s\n" "policy" "fragmentation" "create failures";
  Printf.printf "  %-12s %16.3f %16d\n" "first-fit" r.E.first_fit_frag r.E.first_fit_failures;
  Printf.printf "  %-12s %16.3f %16d\n" "best-fit" r.E.best_fit_frag r.E.best_fit_failures;
  header "ABL2 - the append problem (50 x 120 B onto a 64 KB file)";
  let a = E.append_ablation () in
  Printf.printf "  %-34s %12s\n" "strategy" "total (ms)";
  Printf.printf "  %-34s %12.1f\n" "log server (segment chain)" (ms a.E.log_server_us);
  Printf.printf "  %-34s %12.1f\n" "BULLET.MODIFY (server-side copy)" (ms a.E.modify_us);
  Printf.printf "  %-34s %12.1f\n" "naive read + re-create" (ms a.E.naive_us);
  Printf.printf
    "  (the paper: \"For log files we have implemented a separate server\")\n";
  header "ABL3 - immediate files (reference [1]) on the block baseline (60 B file)";
  let i = E.immediate_ablation () in
  Printf.printf "  %-28s %14s %14s\n" "" "write (ms)" "read (ms)";
  Printf.printf "  %-28s %14.2f %14.2f\n" "stock baseline" (ms i.E.plain_write_us) (ms i.E.plain_read_us);
  Printf.printf "  %-28s %14.2f %14.2f\n" "with immediate files" (ms i.E.immediate_write_us)
    (ms i.E.immediate_read_us);
  Printf.printf "  %-28s %14s %14.2f\n" "Bullet (for scale)" "-" (ms i.E.bullet_read_us);
  Printf.printf
    "  (inode-inline data removes the per-file data-block access; the\n\
    \   large-file gap is untouched - that one is the Bullet design)\n"

(* ---- trace replay ---- *)

let trace () =
  header "TRACE - BSD-style trace replay, Bullet vs NFS end to end";
  let r = E.trace_replay () in
  Printf.printf "  operations                       %d\n" r.E.ops;
  Printf.printf "  Bullet total                     %10.1f ms\n" (ms r.E.bullet_total_us);
  Printf.printf "  NFS total                        %10.1f ms\n" (ms r.E.nfs_total_us);
  Printf.printf "  speedup                          %10.2f x\n" r.E.speedup;
  Printf.printf "  per-op latency p50 / p99         Bullet %.1f / %.1f ms, NFS %.1f / %.1f ms\n"
    r.E.bullet_p50_ms r.E.bullet_p99_ms r.E.nfs_p50_ms r.E.nfs_p99_ms;
  Printf.printf "\n  speedup vs update-heaviness (where immutability costs):\n";
  Printf.printf "  %-18s %10s\n" "update fraction" "speedup";
  List.iter
    (fun (fraction, speedup) -> Printf.printf "  %-18.2f %9.2fx\n" fraction speedup)
    (E.mix_sweep ());
  Printf.printf
    "  (small in-place updates make Bullet copy the whole file; the paper\n\
    \   concedes this regime to the log server and to sharding)\n"


(* ---- parameter sweeps ---- *)

let sweep () =
  header "SWEEP1 - read bandwidth vs file size (Bullet, cache hits)";
  let sizes = [ 512; 2_048; 8_192; 32_768; 131_072; 524_288; 2_097_152 ] in
  let rows = E.fig2_bullet ~sizes () in
  Printf.printf "  %-10s %12s %14s\n" "File Size" "READ (ms)" "KB/s";
  let bar kbs = String.make (int_of_float (kbs /. 20.)) '#' in
  List.iter
    (fun (r : E.row) ->
      let kbs = E.bandwidth_kbs ~size:r.E.size ~us:r.E.read_us in
      Printf.printf "  %-10s %12.2f %14.1f  %s\n" (size_label r.E.size) (ms r.E.read_us) kbs
        (bar kbs))
    rows;
  Printf.printf "  (the curve saturates at the Ethernet's effective rate: whole-file\n";
  Printf.printf "   transfer amortises the fixed RPC cost away)\n";
  header "SWEEP2 - LRU hit rate vs cache size (4 MB working set)";
  Printf.printf "  %-10s %12s %16s\n" "cache" "hit rate" "mean read (ms)";
  List.iter
    (fun p ->
      Printf.printf "  %4d MB    %11.1f%% %16.2f\n" p.E.cache_mb (100. *. p.E.hit_rate)
        p.E.mean_read_ms)
    (E.cache_size_sweep ());
  header "SWEEP3 - CREATE delay (ms): P-FACTOR x file size";
  let matrix = E.pfactor_matrix () in
  Printf.printf "  %-10s %10s %10s %10s\n" "File Size" "p=0" "p=1" "p=2";
  List.iter
    (fun (size, cells) ->
      let at p = ms (List.assoc p cells) in
      Printf.printf "  %-10s %10.2f %10.2f %10.2f\n" (size_label size) (at 0) (at 1) (at 2))
    matrix;
  Printf.printf
    "  (the disk term p removes is fixed; the wire term grows with size,\n\
    \   so p=0's relative advantage shrinks for big files)\n";
  header "SWEEP4 - boot time vs inode-table size (whole table read into RAM)";
  Printf.printf "  %-12s %14s\n" "max files" "boot scan (ms)";
  List.iter
    (fun max_files ->
      let clock = Amoeba_sim.Clock.create () in
      let geometry = Amoeba_disk.Geometry.small ~sectors:131_072 in
      let d1 = Amoeba_disk.Block_device.create ~id:"b1" ~geometry ~clock in
      let d2 = Amoeba_disk.Block_device.create ~id:"b2" ~geometry ~clock in
      let mirror = Amoeba_disk.Mirror.create [ d1; d2 ] in
      Bullet_core.Server.format mirror ~max_files;
      let _, us =
        Amoeba_sim.Clock.elapsed clock (fun () ->
            ignore (Result.get_ok (Bullet_core.Inode_table.load mirror)))
      in
      Printf.printf "  %-12d %14.1f\n" max_files (ms us))
    [ 1_024; 8_192; 32_768; 131_072 ];
  Printf.printf
    "  (\"it reads the complete inode table into the RAM inode table and\n\
    \   keeps it there permanently\" - boot cost is one sequential read)\n"

(* ---- naming ---- *)

let naming () =
  header "NAMING - path resolution: server-side resolve vs stepwise lookups";
  let r = E.naming_experiment () in
  Printf.printf "  resolving a %d-component path:\n" r.E.depth;
  Printf.printf "  %-26s %14s %14s\n" "" "resolve (1 RPC)" "stepwise (N)";
  Printf.printf "  %-26s %13.1f %15.1f\n" "same Ethernet (ms)" (ms r.E.local_resolve_us)
    (ms r.E.local_stepwise_us);
  Printf.printf "  %-26s %13.1f %15.1f\n" "directory server abroad" (ms r.E.wide_resolve_us)
    (ms r.E.wide_stepwise_us);
  Printf.printf
    "  (one wide-area round trip vs one per component - why Amoeba's\n\
    \   directory server walks paths itself)\n"

(* ---- quantitative scalability ---- *)

let scale () =
  header "SCALE - closed-loop pool processors reading 4 KB files (100 ms think)";
  let r = E.scale_experiment () in
  Printf.printf "  measured server demand per read: Bullet %.2f ms, NFS %.2f ms\n"
    (ms r.E.bullet_service_us) (ms r.E.nfs_service_us);
  Printf.printf "  analytic saturation population:  Bullet %.0f clients, NFS %.0f clients\n\n"
    r.E.bullet_knee r.E.nfs_knee;
  Printf.printf "  %-8s | %26s | %26s\n" "" "Bullet" "NFS baseline";
  Printf.printf "  %-8s | %10s %10s %4s | %10s %10s %4s\n" "clients" "ops/s" "resp ms" "util"
    "ops/s" "resp ms" "util";
  List.iter2
    (fun (b : E.scale_point) (n : E.scale_point) ->
      Printf.printf "  %-8d | %10.1f %10.1f %3.0f%% | %10.1f %10.1f %3.0f%%\n" b.E.clients
        b.E.throughput_per_sec b.E.mean_response_ms (100. *. b.E.utilisation)
        n.E.throughput_per_sec n.E.mean_response_ms (100. *. n.E.utilisation))
    r.E.bullet_points r.E.nfs_points;
  Printf.printf
    "  (\"whole file transfer minimizes the load on the file server ...\n\
    \   allowing the service to be used on a larger scale\" - paper section 5)\n"

(* ---- geographic scalability ---- *)

let geo () =
  header "GEO - geographic scalability: one name space across countries (paper 2.1)";
  let r = E.geo_experiment () in
  Printf.printf "  64 KB read, replica at reader's site   %10.1f ms\n" (ms r.E.local_read_us);
  Printf.printf "  64 KB read, replica one gateway away   %10.1f ms\n" (ms r.E.regional_read_us);
  Printf.printf "  64 KB read, replica across the line    %10.1f ms\n" (ms r.E.wide_read_us);
  Printf.printf "  fetch from Norway picked replica at    %10s\n" r.E.nearest_pick;
  Printf.printf "  publish, single site                   %10.1f ms\n" (ms r.E.publish_local_us);
  Printf.printf "  publish + replica shipped abroad       %10.1f ms\n"
    (ms r.E.publish_replicated_us);
  Printf.printf
    "  (immutable files make replicas trivially consistent; readers are\n\
    \   served by the nearest copy)\n"

(* ---- Bechamel microbenchmarks of the real code ---- *)

(* ---- FAULTS: availability, recovery, loss ---- *)

let faults () =
  header "FAULTS - availability and recovery under a deterministic fault plan";
  let a = E.fault_availability () in
  Printf.printf "Drive failure at t=2s, repair+resync at t=6s, reads throughout:\n";
  Printf.printf "  client reads issued                  %12d\n" a.E.avail_ops;
  Printf.printf "  failed client reads                  %12d   (claim: 0)\n" a.E.avail_failed;
  Printf.printf "  reads served with a drive down       %12d\n" a.E.degraded_reads;
  Printf.printf "  p99 read latency, both drives        %12.2f ms\n" a.E.normal_p99_ms;
  Printf.printf "  p99 read latency, degraded           %12.2f ms\n" a.E.degraded_p99_ms;
  Printf.printf "  resync (whole-disk copy)             %12.1f ms\n" a.E.resync_ms;
  Printf.printf "\nMirror resync time vs disk size (one full-disk sequential copy):\n";
  Printf.printf "  %-10s %14s %16s\n" "Disk" "resync (ms)" "ms per MB";
  List.iter
    (fun (p : E.resync_point) ->
      Printf.printf "  %6d MB %14.1f %16.2f\n" p.E.disk_mb p.E.resync_ms
        (p.E.resync_ms /. float_of_int p.E.disk_mb))
    (E.resync_sweep ());
  Printf.printf "\nCrash-reboot time vs inode table size (boot = one table scan):\n";
  Printf.printf "  %-12s %14s\n" "Table" "reboot (ms)";
  List.iter
    (fun (p : E.reboot_point) ->
      Printf.printf "  %8d %16.1f\n" p.E.table_files p.E.reboot_ms)
    (E.reboot_sweep ());
  Printf.printf "\nGoodput under message loss (timeout 100 ms, <=10 attempts, xid dedup):\n";
  Printf.printf "  %-8s %8s %10s %8s %9s %10s %12s %8s %8s %8s\n" "Loss" "ops" "completed"
    "retries" "timeouts" "dup execs" "goodput KB/s" "p50 ms" "p95 ms" "p99 ms";
  List.iter
    (fun (p : E.loss_point) ->
      Printf.printf "  %5.0f %% %9d %10d %8d %9d %10d %12.1f %8.1f %8.1f %8.1f\n" p.E.loss_pct
        p.E.loss_ops p.E.loss_completed p.E.loss_retries p.E.loss_timeouts
        p.E.duplicate_executions p.E.goodput_kbs p.E.loss_p50_ms p.E.loss_p95_ms p.E.loss_p99_ms)
    (E.loss_sweep ());
  let c = E.crash_recovery () in
  Printf.printf "\nServer crash at t=2s, reboot at t=2.5s, reads every 50 ms:\n";
  Printf.printf "  client reads issued                  %12d\n" c.E.crash_ops;
  Printf.printf "  failed client reads                  %12d   (claim: 0)\n" c.E.crash_failed;
  Printf.printf "  scripted outage                      %12.1f ms\n" c.E.outage_ms;
  Printf.printf "  measured reboot (inode scan)         %12.1f ms\n" c.E.crash_reboot_ms;
  Printf.printf "  timeout retries spanning the outage  %12d\n" c.E.crash_retries;
  Printf.printf "  pre-crash capability still valid     %12s\n"
    (if c.E.pre_crash_file_ok then "yes" else "NO")

(* ---- RESYNC: online resync racing foreground reads ---- *)

let resync () =
  header "RESYNC - drive rejoin with online sectored resync (fail 2s, rejoin 4s)";
  let r = E.resync_experiment () in
  Printf.printf
    "Foreground reads every 10 ms; the rejoined drive drains one %s\n\
     batch per poll point, charged against the same disk clock:\n\n"
    "bounded";
  Printf.printf "  %-8s %-16s %10s %6s %9s %9s %9s\n" "window" "mirror state" "backlog"
    "reads" "p50 ms" "p95 ms" "p99 ms";
  List.iter
    (fun (w : E.resync_window) ->
      Printf.printf "  %5d ms %-16s %10d %6d %9.1f %9.1f %9.1f\n" w.E.w_start_ms w.E.w_state
        w.E.w_remaining w.E.w_ops w.E.w_p50_ms w.E.w_p95_ms w.E.w_p99_ms)
    r.E.rw_windows;
  Printf.printf "\n  client reads issued                  %12d\n" r.E.rw_ops;
  Printf.printf "  failed client reads                  %12d   (claim: 0)\n" r.E.rw_failed;
  Printf.printf "  resync steps / sectors copied        %8d / %d\n" r.E.rw_resync_steps
    r.E.rw_resync_sectors;
  Printf.printf "  reads that outran the scan (repairs) %8d / %d\n" r.E.rw_fallthroughs
    r.E.rw_read_repairs;
  Printf.printf "  online resync, rejoin to clean       %12.1f ms\n" r.E.rw_online_resync_ms;
  Printf.printf "  one resync batch costs at most       %12.1f ms\n" r.E.rw_step_cost_ms;
  Printf.printf "  slowest op, both drives clean        %12.1f ms\n" r.E.rw_normal_max_ms;
  Printf.printf "  slowest op anywhere                  %12.1f ms   (claim: << resync)\n"
    r.E.rw_max_op_ms;
  Printf.printf "  mirror clean at end                  %12s\n"
    (if r.E.rw_clean_at_end then "yes" else "NO");
  Printf.printf
    "  (no op waits for the whole copy: the worst op pays its own I/O\n\
    \   plus a couple of batches, vs the paper's stop-and-copy recovery)\n";
  let w = E.wan_fault_experiment () in
  Printf.printf "\nWAN link faults (25%% loss, then partition, then heal) on the wide line:\n";
  Printf.printf "  wide fetches under loss, failed      %8d / %d\n" w.E.wf_wide_failed
    w.E.wf_wide_ops;
  Printf.printf "  wide fetches under partition, failed %8d / %d   (claim: all)\n"
    w.E.wf_partition_failed w.E.wf_partition_ops;
  Printf.printf "  wide fetch after heal                %12s\n"
    (if w.E.wf_healed_ok then "ok" else "FAILED");
  Printf.printf "  local fetches throughout, failed     %8d / %d   (claim: 0)\n"
    w.E.wf_local_failed w.E.wf_local_ops;
  Printf.printf "  link drops (req / reply / partition) %6d / %d / %d\n"
    w.E.wf_link_request_drops w.E.wf_link_reply_drops w.E.wf_partition_drops;
  Printf.printf "  retries spent riding out the faults  %12d\n" w.E.wf_retries;
  Printf.printf "  local fetch, quiet vs faulted        %8d vs %d us   (claim: equal)\n"
    w.E.wf_quiet_local_us w.E.wf_faulted_local_us;
  let p = E.dir_pair_recovery () in
  Printf.printf "\nDirectory pair: primary crash mid-stream at 1s, heal at 3s:\n";
  Printf.printf "  directory mutations issued           %12d\n" p.E.pr_ops;
  Printf.printf "  failed mutations                     %12d   (claim: 0)\n" p.E.pr_failed;
  Printf.printf "  served by the survivor alone         %12d\n" p.E.pr_outage_ops;
  Printf.printf "  replicas diverged                    %12s\n"
    (match p.E.pr_diverged with None -> "no" | Some path -> "at " ^ path);
  Printf.printf "  canonical dumps byte-identical       %12s\n"
    (if p.E.pr_state_match then "yes" else "NO");
  Printf.printf "  primary back in duplex               %12s\n"
    (if p.E.pr_healed then "yes" else "NO")

(* ---- LOAD: multi-station concurrency and overload control ---- *)

(* Hand-rolled JSON with fixed float formatting so two runs of the
   deterministic experiment write byte-identical files. *)
let json_float f = Printf.sprintf "%.3f" f

let json_str s = Printf.sprintf "%S" s

let json_obj fields =
  "{" ^ String.concat "," (List.map (fun (k, v) -> json_str k ^ ":" ^ v) fields) ^ "}"

let json_arr items = "[" ^ String.concat "," items ^ "]"

let load_json (r : E.load_report) =
  let profile (p : E.load_profile) =
    json_obj
      [
        ("class", json_str p.E.lpr_class);
        ("traced_us", string_of_int p.E.lpr_traced_us);
        ( "segments",
          json_arr
            (List.map
               (fun (st, us) -> json_obj [ ("station", json_str st); ("us", string_of_int us) ])
               p.E.lpr_segments) );
      ]
  in
  let point (p : E.load_point) =
    json_obj
      [
        ("clients", string_of_int p.E.lp_clients);
        ("throughput_per_sec", json_float p.E.lp_throughput);
        ("mean_ms", json_float p.E.lp_mean_ms);
        ("p50_ms", json_float p.E.lp_p50_ms);
        ("p95_ms", json_float p.E.lp_p95_ms);
        ("p99_ms", json_float p.E.lp_p99_ms);
        ( "utilisation",
          json_obj (List.map (fun (st, u) -> (st, json_float u)) p.E.lp_util) );
      ]
  in
  let server (s : E.server_load) =
    json_obj
      [
        ("name", json_str s.E.sl_name);
        ("knee_clients", json_float s.E.sl_knee);
        ("serial_cap_per_sec", json_float s.E.sl_serial_cap_per_sec);
        ("knee_throughput_per_sec", json_float s.E.sl_knee_throughput);
        ("profiles", json_arr (List.map profile s.E.sl_profiles));
        ("points", json_arr (List.map point s.E.sl_points));
      ]
  in
  let overload (o : E.overload_point) =
    json_obj
      [
        ("policy", json_str o.E.ov_policy);
        ("goodput_per_sec", json_float o.E.ov_goodput);
        ("p99_ms", json_float o.E.ov_p99_ms);
        ("offered", string_of_int o.E.ov_offered);
        ("completed", string_of_int o.E.ov_completed);
        ("failed", string_of_int o.E.ov_failed);
        ("shed", string_of_int o.E.ov_shed);
        ("deadline_misses", string_of_int o.E.ov_deadline_misses);
        ("abandoned", string_of_int o.E.ov_abandoned);
        ("retried", string_of_int o.E.ov_retried);
        ("late", string_of_int o.E.ov_late);
      ]
  in
  json_obj
    [
      ("bullet", server r.E.lr_bullet);
      ("nfs", server r.E.lr_nfs);
      ("overload_clients", string_of_int r.E.lr_overload_clients);
      ("peak_goodput_per_sec", json_float r.E.lr_peak_goodput);
      ("overload", json_arr (List.map overload r.E.lr_overload));
    ]

let load () =
  header "LOAD - concurrent-server scaling and overload control";
  let r = E.load_experiment () in
  let server (s : E.server_load) =
    Printf.printf "\n%s: demand profiles traced from the real server (us per station):\n"
      s.E.sl_name;
    List.iter
      (fun (p : E.load_profile) ->
        Printf.printf "  %-10s %8d us  =  %s\n" p.E.lpr_class p.E.lpr_traced_us
          (String.concat " + "
             (List.map (fun (st, us) -> Printf.sprintf "%s:%d" st us) p.E.lpr_segments)))
      s.E.sl_profiles;
    Printf.printf
      "  analytic knee %.1f clients; serial bound %.1f req/s; measured at knee %.1f req/s\n"
      s.E.sl_knee s.E.sl_serial_cap_per_sec s.E.sl_knee_throughput;
    Printf.printf "  %-8s %10s %9s %9s %9s %9s   %s\n" "clients" "req/s" "mean ms" "p50 ms"
      "p95 ms" "p99 ms" "utilisation";
    List.iter
      (fun (p : E.load_point) ->
        Printf.printf "  %6d %12.1f %9.1f %9.1f %9.1f %9.1f   %s\n" p.E.lp_clients
          p.E.lp_throughput p.E.lp_mean_ms p.E.lp_p50_ms p.E.lp_p95_ms p.E.lp_p99_ms
          (String.concat " "
             (List.map (fun (st, u) -> Printf.sprintf "%s=%.2f" st u) p.E.lp_util)))
      s.E.sl_points
  in
  server r.E.lr_bullet;
  server r.E.lr_nfs;
  Printf.printf
    "\nOverload: %d clients (2x measured saturation) on bullet, accept limit 8,\n\
     retrying clients (4 attempts, 2 s patience, 50 ms doubling backoff):\n"
    r.E.lr_overload_clients;
  Printf.printf "  %-9s %11s %9s %8s %10s %7s %6s %6s %8s %7s %6s\n" "policy" "goodput/s"
    "p99 ms" "offered" "completed" "failed" "shed" "miss" "abandon" "retry" "late";
  List.iter
    (fun (o : E.overload_point) ->
      Printf.printf "  %-9s %11.1f %9.1f %8d %10d %7d %6d %6d %8d %7d %6d\n" o.E.ov_policy
        o.E.ov_goodput o.E.ov_p99_ms o.E.ov_offered o.E.ov_completed o.E.ov_failed o.E.ov_shed
        o.E.ov_deadline_misses o.E.ov_abandoned o.E.ov_retried o.E.ov_late)
    r.E.lr_overload;
  Printf.printf
    "  peak goodput over the plain sweep      %12.1f req/s\n\
    \  (claims: knee throughput beats the serial bound; Shed and Deadline\n\
    \   hold goodput within 10%% of peak at 2x saturation; Block + retries\n\
    \   collapses into late work - checked by the experiment's assertions)\n"
    r.E.lr_peak_goodput;
  let oc = open_out "BENCH_load.json" in
  output_string oc (load_json r);
  output_char oc '\n';
  close_out oc;
  Printf.printf "  machine-readable copy written to BENCH_load.json\n"

(* ---- LEASE: the zero-RPC read fast path ---- *)

let lease_json (r : E.lease_report) =
  let profile (p : E.load_profile) =
    json_obj
      [
        ("class", json_str p.E.lpr_class);
        ("traced_us", string_of_int p.E.lpr_traced_us);
        ( "segments",
          json_arr
            (List.map
               (fun (st, us) -> json_obj [ ("station", json_str st); ("us", string_of_int us) ])
               p.E.lpr_segments) );
      ]
  in
  let fault (f : E.lease_fault) =
    json_obj
      [
        ("plan", json_str f.E.lf_plan);
        ("reads", string_of_int f.E.lf_reads);
        ("failed", string_of_int f.E.lf_failed);
        ("stale", string_of_int f.E.lf_stale);
        ("revalidations", string_of_int f.E.lf_revalidations);
        ("consistent", if f.E.lf_consistent then "true" else "false");
      ]
  in
  json_obj
    [
      ("cold_rpcs", string_of_int r.E.le_cold_rpcs);
      ("warm_reads", string_of_int r.E.le_warm_reads);
      ("warm_rpcs", string_of_int r.E.le_warm_rpcs);
      ("warm_read_us", string_of_int r.E.le_warm_read_us);
      ("trusted_hit_us", string_of_int r.E.le_trusted_hit_us);
      ("untrusted_hit_us", string_of_int r.E.le_untrusted_hit_us);
      ("untrusted_hit_rpcs", string_of_int r.E.le_untrusted_hit_rpcs);
      ("renew_rpcs", string_of_int r.E.le_renew_rpcs);
      ("forged_rejected", if r.E.le_forged_rejected then "true" else "false");
      ("faults", json_arr (List.map fault r.E.le_faults));
      ("hot_profile", profile r.E.le_hot_profile);
      ("hot_rpc_count", string_of_int r.E.le_hot_rpc_count);
      ("baseline_hot_profile", profile r.E.le_baseline_hot);
      ("baseline_knee_clients", json_float r.E.le_baseline_knee);
      ("baseline_knee_throughput_per_sec", json_float r.E.le_baseline_knee_throughput);
      ("leased_knee_clients", json_float r.E.le_leased_knee);
      ("leased_knee_throughput_per_sec", json_float r.E.le_leased_knee_throughput);
      ("server_evicted_bytes", string_of_int r.E.le_server_evicted_bytes);
      ("client_evicted_bytes", string_of_int r.E.le_client_evicted_bytes);
    ]

let lease () =
  header "LEASE - zero-RPC reads: local verification + leased client caching";
  let r = E.lease_experiment () in
  Printf.printf "\nRPCs per read on a trusted station (holds the server's sealer):\n";
  Printf.printf "  %-34s %6s %12s\n" "operation" "RPCs" "latency us";
  Printf.printf "  %-34s %6d %12s\n" "cold read (grant + SIZE + READ)" r.E.le_cold_rpcs "-";
  Printf.printf "  %-34s %6d %12d\n"
    (Printf.sprintf "warm read x%d (leased cache hit)" r.E.le_warm_reads)
    r.E.le_warm_rpcs r.E.le_warm_read_us;
  Printf.printf "  %-34s %6d %12d\n" "warm read, untrusted station" r.E.le_untrusted_hit_rpcs
    r.E.le_untrusted_hit_us;
  Printf.printf "  %-34s %6d %12s\n" "read after lease expiry (renew)" r.E.le_renew_rpcs "-";
  Printf.printf "  forged check field rejected locally: %s\n"
    (if r.E.le_forged_rejected then "yes" else "NO");
  Printf.printf "\nFault plans (stale must be 0 everywhere):\n";
  Printf.printf "  %-24s %6s %7s %6s %8s %11s\n" "plan" "reads" "failed" "stale" "revalid"
    "consistent";
  List.iter
    (fun (f : E.lease_fault) ->
      Printf.printf "  %-24s %6d %7d %6d %8d %11s\n" f.E.lf_plan f.E.lf_reads f.E.lf_failed
        f.E.lf_stale f.E.lf_revalidations
        (if f.E.lf_consistent then "yes" else "NO"))
    r.E.le_faults;
  let segs (p : E.load_profile) =
    String.concat " + " (List.map (fun (st, us) -> Printf.sprintf "%s:%d" st us) p.E.lpr_segments)
  in
  Printf.printf "\nHot-read demand profile (us per station; rpc spans in trace: %d):\n"
    r.E.le_hot_rpc_count;
  Printf.printf "  %-10s %8d us  =  %s\n" "plain RPC" r.E.le_baseline_hot.E.lpr_traced_us
    (segs r.E.le_baseline_hot);
  Printf.printf "  %-10s %8d us  =  %s\n" "leased" r.E.le_hot_profile.E.lpr_traced_us
    (segs r.E.le_hot_profile);
  Printf.printf "\nLOAD knee, same mix with the hot class leased:\n";
  Printf.printf "  %-10s %14s %16s\n" "" "knee clients" "throughput req/s";
  Printf.printf "  %-10s %14.1f %16.1f\n" "baseline" r.E.le_baseline_knee
    r.E.le_baseline_knee_throughput;
  Printf.printf "  %-10s %14.1f %16.1f\n" "leased" r.E.le_leased_knee
    r.E.le_leased_knee_throughput;
  Printf.printf "\nEviction traffic under memory pressure (same counter, both ends):\n";
  Printf.printf "  %-14s %10s\n" "cache" "bytes";
  Printf.printf "  %-14s %10d\n" "server RAM" r.E.le_server_evicted_bytes;
  Printf.printf "  %-14s %10d\n" "client leased" r.E.le_client_evicted_bytes;
  let oc = open_out "BENCH_lease.json" in
  output_string oc (lease_json r);
  output_char oc '\n';
  close_out oc;
  Printf.printf "  machine-readable copy written to BENCH_lease.json\n"

(* ---- METRICS: live health, SLO burn, STD_STATUS ---- *)

let metrics_json (r : E.metrics_report) =
  let lbl = Amoeba_metrics.Health.state_label in
  let scenario (s : E.metrics_scenario) =
    json_obj
      [
        ("name", json_str s.E.ms_name);
        ("interval_us", string_of_int s.E.ms_interval_us);
        ("snapshots", string_of_int (List.length s.E.ms_snapshots));
        ( "transitions",
          json_arr
            (List.map
               (fun (at, st) ->
                 json_obj [ ("at_us", string_of_int at); ("state", json_str (lbl st)) ])
               s.E.ms_transitions) );
        ( "alerts",
          json_arr
            (List.map
               (fun (at, name, firing) ->
                 json_obj
                   [
                     ("at_us", string_of_int at);
                     ("alert", json_str name);
                     ("firing", (if firing then "true" else "false"));
                   ])
               s.E.ms_alerts) );
        ("final", json_str (lbl s.E.ms_final));
      ]
  in
  json_obj
    [
      ("scenarios", json_arr (List.map scenario r.E.mx_scenarios));
      ("status_metrics", string_of_int r.E.mx_status_metrics);
      ("status_bytes", string_of_int r.E.mx_status_bytes);
      ("roundtrip_ok", (if r.E.mx_roundtrip_ok then "true" else "false"));
    ]

let metrics () =
  header "METRICS - live health states + SLO burn over scripted fault plans";
  let r = E.metrics_experiment () in
  List.iter
    (fun (s : E.metrics_scenario) ->
      Printf.printf "\n%s (scrape every %d ms, %d snapshots):\n" s.E.ms_name
        (s.E.ms_interval_us / 1000)
        (List.length s.E.ms_snapshots);
      Printf.printf "  health  %s\n"
        (String.concat " -> "
           (List.map
              (fun (at, st) ->
                Printf.sprintf "%s@%.1fs" (Amoeba_metrics.Health.state_label st) (ms at /. 1000.))
              s.E.ms_transitions));
      if s.E.ms_alerts = [] then Printf.printf "  alerts  (none)\n"
      else
        List.iter
          (fun (at, name, firing) ->
            Printf.printf "  alert   %-16s %-5s at %.1f s\n" name
              (if firing then "fire" else "clear")
              (ms at /. 1000.))
          s.E.ms_alerts)
    r.E.mx_scenarios;
  Printf.printf "\nSTD_STATUS snapshot: %d metrics in %d bytes, codec roundtrip %s\n"
    r.E.mx_status_metrics r.E.mx_status_bytes
    (if r.E.mx_roundtrip_ok then "ok" else "BROKEN");
  let oc = open_out "BENCH_metrics.json" in
  output_string oc (metrics_json r);
  output_char oc '\n';
  close_out oc;
  (* every scraped snapshot in text exposition form — the widest surface
     a CI double-run can byte-diff *)
  let oc = open_out "BENCH_metrics_dump.txt" in
  output_string oc (E.metrics_dump r);
  close_out oc;
  Printf.printf "  machine-readable copy written to BENCH_metrics.json\n";
  Printf.printf "  full snapshot dump written to BENCH_metrics_dump.txt\n"

(* ---- TXN: atomic multi-object operations ---- *)

let txn_json (r : E.txn_report) =
  let fault (f : E.txn_fault) =
    json_obj
      [
        ("plan", json_str f.E.tf_plan);
        ("scenario", json_str f.E.tf_scenario);
        ("outcome", json_str f.E.tf_outcome);
        ("crashed", (if f.E.tf_crashed then "true" else "false"));
        ("in_doubt", string_of_int f.E.tf_in_doubt_before);
        ("resolved_commits", string_of_int f.E.tf_resolved_commits);
        ("resolved_aborts", string_of_int f.E.tf_resolved_aborts);
        ("atomic", (if f.E.tf_atomic then "true" else "false"));
        ("orphans", string_of_int f.E.tf_orphans);
        ("pending", string_of_int f.E.tf_pending);
        ("dumps_equal", (if f.E.tf_dumps_equal then "true" else "false"));
      ]
  in
  json_obj
    [
      ( "quiet",
        json_arr
          (List.map
             (fun (n, o) -> json_obj [ ("scenario", json_str n); ("outcome", json_str o) ])
             r.E.tx_quiet) );
      ("faults", json_arr (List.map fault r.E.tx_faults));
      ("stuck_state", json_str r.E.tx_stuck_label);
      ("status_has_gauges", (if r.E.tx_status_has_gauges then "true" else "false"));
    ]

let txn () =
  header "TXN - atomic multi-object operations, every 2PC edge fault-planned";
  let r = E.txn_experiment () in
  Printf.printf "\nQuiet baseline (no faults):\n";
  List.iter (fun (n, o) -> Printf.printf "  %-24s %s\n" n o) r.E.tx_quiet;
  Printf.printf "\nFault plans (atomic must be yes, orphans and residue 0 everywhere):\n";
  Printf.printf "  %-32s %-20s %-10s %6s %8s %7s %7s %6s\n" "plan" "scenario" "outcome"
    "doubt" "resolved" "atomic" "orphans" "equal";
  List.iter
    (fun (f : E.txn_fault) ->
      Printf.printf "  %-32s %-20s %-10s %6d %5d/%-2d %7s %7d %6s\n" f.E.tf_plan
        f.E.tf_scenario f.E.tf_outcome f.E.tf_in_doubt_before f.E.tf_resolved_commits
        f.E.tf_resolved_aborts
        (if f.E.tf_atomic then "yes" else "NO")
        f.E.tf_orphans
        (if f.E.tf_dumps_equal then "yes" else "NO"))
    r.E.tx_faults;
  Printf.printf "\nStuck-coordinator health walk:\n";
  List.iter
    (fun (at, label) -> Printf.printf "  %-16s at %.1f s\n" label (ms at /. 1000.))
    r.E.tx_health;
  Printf.printf "STD_STATUS carries txn.* gauges: %s\n"
    (if r.E.tx_status_has_gauges then "yes" else "NO");
  let oc = open_out "BENCH_txn.json" in
  output_string oc (txn_json r);
  output_char oc '\n';
  close_out oc;
  let oc = open_out "BENCH_txn_dump.txt" in
  output_string oc (E.txn_dump r);
  close_out oc;
  Printf.printf "  machine-readable copy written to BENCH_txn.json\n";
  Printf.printf "  full dump written to BENCH_txn_dump.txt\n"

(* ---- CLUSTER: sharded multi-server rebalancing ---- *)

let cluster_json (r : E.cluster_report) (b : E.cluster_bench) =
  let lbl = Amoeba_metrics.Health.state_label in
  let lo, hi = r.E.cl_spread in
  let point (p : E.cluster_bench_point) =
    json_obj
      [
        ("objects", string_of_int p.E.cb_objects);
        ("delta_shards", string_of_int p.E.cb_delta_shards);
        ("steps", string_of_int p.E.cb_steps);
        ("copied", string_of_int p.E.cb_copied);
        ("rebalance_us", string_of_int p.E.cb_rebalance_us);
      ]
  in
  json_obj
    [
      ("objects", string_of_int r.E.cl_objects);
      ("live_servers", string_of_int r.E.cl_live_servers);
      ("join_delta", string_of_int r.E.cl_join_delta);
      ("join_expected", string_of_int r.E.cl_join_expected);
      ("untouched", string_of_int r.E.cl_untouched);
      ("untouched_moved", string_of_int r.E.cl_untouched_moved);
      ("kill_fired", (if r.E.cl_kill_fired then "true" else "false"));
      ("polled_reads", string_of_int r.E.cl_polled_reads);
      ("unreadable", string_of_int r.E.cl_unreadable);
      ("fallthroughs", string_of_int r.E.cl_fallthroughs);
      ("read_repairs", string_of_int r.E.cl_read_repairs);
      ("migrated", string_of_int r.E.cl_migrated);
      ("under_peak", string_of_int r.E.cl_under_peak);
      ("under_final", string_of_int r.E.cl_under_final);
      ("spread_min", string_of_int lo);
      ("spread_max", string_of_int hi);
      ( "transitions",
        json_arr
          (List.map
             (fun (at, st) ->
               json_obj [ ("at_us", string_of_int at); ("state", json_str (lbl st)) ])
             r.E.cl_scenario.E.ms_transitions) );
      ("double_run_identical", (if r.E.cl_double_run_identical then "true" else "false"));
      ("status_has_gauges", (if r.E.cl_status_has_gauges then "true" else "false"));
      ("points", json_arr (List.map point b.E.cb_points));
      ("quiet_reads", string_of_int b.E.cb_quiet_reads);
      ("quiet_us", string_of_int b.E.cb_quiet_us);
      ("migrate_reads", string_of_int b.E.cb_migrate_reads);
      ("migrate_us", string_of_int b.E.cb_migrate_us);
    ]

let cluster () =
  header "CLUSTER - sharded multi-server Bullet: join, kill, rebalance";
  let r = E.cluster_experiment () in
  let b = E.cluster_bench () in
  Printf.printf "\nEpisode (N=4 join, scripted shard_kill mid-drain, R=2):\n";
  Printf.printf "  join delta        %d shards (ring-computed %d)\n" r.E.cl_join_delta
    r.E.cl_join_expected;
  Printf.printf "  foreground reads  %d, unreadable %d\n" r.E.cl_polled_reads r.E.cl_unreadable;
  Printf.printf "  fallthroughs      %d (read-repairs %d)\n" r.E.cl_fallthroughs
    r.E.cl_read_repairs;
  Printf.printf "  migrated objects  %d\n" r.E.cl_migrated;
  Printf.printf "  under-replicated  peak %d, final %d\n" r.E.cl_under_peak r.E.cl_under_final;
  Printf.printf "  health  %s\n"
    (String.concat " -> "
       (List.map
          (fun (at, st) ->
            Printf.sprintf "%s@%.1fs" (Amoeba_metrics.Health.state_label st) (ms at /. 1000.))
          r.E.cl_scenario.E.ms_transitions));
  Printf.printf "\nRebalance cost vs object count (full drain after the fourth join):\n";
  Printf.printf "  %-10s %12s %8s %8s %14s\n" "objects" "delta shards" "steps" "copied"
    "drain (ms)";
  List.iter
    (fun (p : E.cluster_bench_point) ->
      Printf.printf "  %-10d %12d %8d %8d %14.1f\n" p.E.cb_objects p.E.cb_delta_shards
        p.E.cb_steps p.E.cb_copied (ms p.E.cb_rebalance_us))
    b.E.cb_points;
  let per_read n us = ms us /. float_of_int n in
  Printf.printf "\nGoodput (per-read virtual ms, same 96-read mix):\n";
  Printf.printf "  quiet        %8.2f ms/read\n" (per_read b.E.cb_quiet_reads b.E.cb_quiet_us);
  Printf.printf "  migrating    %8.2f ms/read (one bounded rebalance step per read)\n"
    (per_read b.E.cb_migrate_reads b.E.cb_migrate_us);
  let oc = open_out "BENCH_cluster.json" in
  output_string oc (cluster_json r b);
  output_char oc '\n';
  close_out oc;
  let oc = open_out "BENCH_cluster_dump.txt" in
  output_string oc (E.cluster_dump r);
  close_out oc;
  Printf.printf "  machine-readable copy written to BENCH_cluster.json\n";
  Printf.printf "  full dump written to BENCH_cluster_dump.txt\n"

let micro () =
  header "MICRO - Bechamel microbenchmarks (real wall-clock, ns/run)";
  let open Bechamel in
  let open Toolkit in
  let sealer = Amoeba_cap.Sealer.of_passphrase "bench" in
  let prng = Amoeba_sim.Prng.create ~seed:1L in
  let random = Amoeba_cap.Sealer.fresh_random sealer prng in
  let rights = Amoeba_cap.Rights.all in
  let check = Amoeba_cap.Sealer.seal sealer ~random ~rights in
  let cap =
    Amoeba_cap.Capability.v ~port:(Amoeba_cap.Port.of_int64 1L) ~obj:1 ~rights ~check
  in
  let inode =
    { Bullet_core.Layout.random = 0x1234L; index = 3; first_block = 99; size_bytes = 4096 }
  in
  let inode_buf = Bytes.create Bullet_core.Layout.inode_bytes in
  let alloc_cycle () =
    let a = Bullet_core.Extent_alloc.create ~start:0 ~length:4096 () in
    let rec go n =
      if n > 0 then begin
        match Bullet_core.Extent_alloc.alloc a 16 with
        | Some s ->
          Bullet_core.Extent_alloc.free a ~start:s ~length:16;
          go (n - 1)
        | None -> ()
      end
    in
    go 32
  in
  let cache_cycle =
    let cache =
      Bullet_core.Cache.create ~capacity:65_536 ~max_rnodes:16 ~on_evict:(fun ~inode:_ ~rnode:_ -> ())
    in
    let data = Bytes.create 1024 in
    fun () ->
      match Bullet_core.Cache.insert cache ~inode:1 data with
      | Some rnode ->
        ignore (Bullet_core.Cache.get cache ~rnode);
        Bullet_core.Cache.remove cache ~rnode
      | None -> ()
  in
  let tests =
    [
      Test.make ~name:"xtea_seal" (Staged.stage (fun () -> ignore (Amoeba_cap.Sealer.seal sealer ~random ~rights)));
      Test.make ~name:"xtea_verify" (Staged.stage (fun () -> ignore (Amoeba_cap.Sealer.verify sealer ~random ~cap)));
      Test.make ~name:"inode_codec"
        (Staged.stage (fun () ->
             Bullet_core.Layout.encode_inode inode inode_buf 0;
             ignore (Bullet_core.Layout.decode_inode inode_buf 0)));
      Test.make ~name:"extent_alloc_free_x32" (Staged.stage alloc_cycle);
      Test.make ~name:"cache_insert_get_remove_1k" (Staged.stage cache_cycle);
      Test.make ~name:"prng_next" (Staged.stage (fun () -> ignore (Amoeba_sim.Prng.next_int64 prng)));
    ]
  in
  let benchmark test =
    let instances = Instance.[ monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true () in
    let raw = Benchmark.all cfg instances test in
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
    in
    Analyze.all ols Instance.monotonic_clock raw
  in
  let print_results name results =
    Hashtbl.iter
      (fun _label result ->
        match Bechamel.Analyze.OLS.estimates result with
        | Some [ est ] -> Printf.printf "  %-30s %12.1f ns/run\n" name est
        | _ -> Printf.printf "  %-30s %12s\n" name "n/a")
      results
  in
  List.iter
    (fun test ->
      let results = benchmark (Test.make_grouped ~name:"g" [ test ]) in
      print_results (Test.name test) results)
    tests

(* ---- driver ---- *)

let all_benches =
  [
    ("fig2", fig2);
    ("attrib", attrib);
    ("fig3", fig3);
    ("compare", compare_cmd);
    ("pfactor", pfactor);
    ("frag", frag);
    ("cache", cache);
    ("ablation", ablation);
    ("trace", trace);
    ("sweep", sweep);
    ("scale", scale);
    ("naming", naming);
    ("geo", geo);
    ("faults", faults);
    ("resync", resync);
    ("load", load);
    ("lease", lease);
    ("metrics", metrics);
    ("txn", txn);
    ("cluster", cluster);
    ("micro", micro);
  ]

let () =
  let requested = List.tl (Array.to_list Sys.argv) in
  let chosen =
    if requested = [] then all_benches
    else
      List.filter_map
        (fun name ->
          match List.assoc_opt name all_benches with
          | Some f -> Some (name, f)
          | None ->
            Printf.eprintf "unknown bench %S (have: %s)\n" name
              (String.concat ", " (List.map fst all_benches));
            exit 2)
        requested
  in
  Printf.printf "Bullet file server evaluation - reproduction of ICDCS 1989 tables\n";
  List.iter (fun (_, f) -> f ()) chosen;
  (* under AMOEBA_TIE_CHECK=1 (the CI determinism jobs), fail loudly if
     any scenario scheduled two same-time events unpinned *)
  let module Eq = Amoeba_sim.Event_queue in
  if Eq.tie_check_enabled () then begin
    match Eq.ties () with
    | [] -> ()
    | ties ->
      List.iter (fun t -> Printf.eprintf "%s\n" (Eq.tie_to_string t)) ties;
      Printf.eprintf "bench: %d event-queue tie(s) detected\n" (List.length ties);
      exit 1
  end
