open Common

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
  rw_online_resync_ms : float;  (** fail-free wall time from rejoin to clean *)
  rw_step_cost_ms : float;  (** worst-case disk cost of one resync batch *)
  rw_normal_max_ms : float;  (** slowest op before the failure *)
  rw_max_op_ms : float;  (** slowest op anywhere, resync included *)
  rw_clean_at_end : bool;
}

(* The tentpole experiment: a drive dies at 2s and REJOINS at 4s — no
   stop-the-world whole-disk copy; instead the drive comes back fully
   dirty and the backlog drains one bounded batch per poll point,
   interleaved with (and charged against) the foreground read workload.
   The windowed percentiles show the shape the paper's recovery story
   cannot: latency rises while the resync runs, but every single op
   completes, and no op ever pays more than its own I/O plus a couple of
   batches. *)
let resync_experiment ?(sectors = 16_384) ?(batch = 256) () =
  let clock = Clock.create () in
  let config =
    { Server.default_config with cache_bytes = 256 * 1024; max_cached_files = 32 }
  in
  let server = Server.boot ~config ~clock ~id:"rj" ~sectors ~max_files:512 () in
  let mirror = Server.mirror server in
  let transport = Transport.create ~clock in
  Bullet_core.Proto.serve server transport;
  let client = Client.connect ~attempts:4 ~backoff_us:25_000 transport (Server.port server) in
  let file_bytes = 32_768 in
  let files =
    Array.init 32 (fun i ->
        Client.create client ~p_factor:2 (Bytes.make file_bytes (Char.chr (65 + (i mod 26)))))
  in
  Clock.reset clock;
  let fail_at = 2_000_000 and rejoin_at = 4_000_000 and run_until = 30_000_000 in
  let window_us = 2_000_000 in
  let n_windows = run_until / window_us in
  let plan =
    (* drive 0 — the read primary — so foreground reads during the
       resync hit dirty ranges, fall through to the survivor and
       read-repair what they touch *)
    Plan.create ~seed:0x5E5CL
    |> fun p -> Plan.at p ~us:fail_at (Plan.Drive_fail 0)
    |> fun p -> Plan.at p ~us:rejoin_at (Plan.Drive_rejoin batch)
  in
  let injector = Injector.attach ~transport ~mirror ~clock plan in
  let lat = Amoeba_sim.Stats.create "resync-windows" in
  let snapshots = Array.make n_windows ("", 0) in
  let ops = ref 0 and failed = ref 0 and i = ref 0 in
  let normal_max = ref 0 and overall_max = ref 0 in
  while Clock.now clock < run_until do
    let started = Clock.now clock in
    (* stride through the files (11 is coprime to 32) instead of scanning
       them in address order: right after the rejoin some reads land on
       high addresses the resync cursor has not reached yet, exercising
       the fall-through-and-repair path rather than trailing the scan *)
    (try ignore (Client.read client files.(!i * 11 mod Array.length files))
     with Status.Error _ -> incr failed);
    incr ops;
    incr i;
    let took = Clock.now clock - started in
    if started < fail_at then normal_max := max !normal_max took;
    overall_max := max !overall_max took;
    let w = min (n_windows - 1) (started / window_us) in
    Amoeba_sim.Stats.observe lat (Printf.sprintf "w%02d" w) (float_of_int took);
    let remaining =
      match Mirror.sync_state mirror with
      | Mirror.Resyncing { sectors_remaining } -> sectors_remaining
      | Mirror.Clean | Mirror.Degraded -> 0
    in
    snapshots.(w) <- (Mirror.sync_state_label mirror, remaining);
    Clock.advance clock 10_000;
    Injector.poll injector
  done;
  (* carry the last observed state into windows the workload skipped *)
  for w = 1 to n_windows - 1 do
    if fst snapshots.(w) = "" then snapshots.(w) <- snapshots.(w - 1)
  done;
  let online = Amoeba_sim.Stats.summary (Injector.stats injector) "online_resync_us" in
  let mstats = Mirror.stats mirror in
  Injector.detach injector;
  let window w =
    let key = Printf.sprintf "w%02d" w in
    let state, remaining = snapshots.(w) in
    let pct q = Amoeba_sim.Stats.percentile lat key q /. 1000. in
    {
      w_start_ms = w * window_us / 1000;
      w_state = (if state = "" then "clean" else state);
      w_remaining = remaining;
      w_ops = (Amoeba_sim.Stats.summary lat key).Amoeba_sim.Stats.count;
      w_p50_ms = pct 0.50;
      w_p95_ms = pct 0.95;
      w_p99_ms = pct 0.99;
    }
  in
  let geometry = Mirror.geometry mirror in
  let batch_bytes = batch * geometry.Geometry.sector_bytes in
  let step_cost =
    Geometry.access_us geometry ~sequential:false ~write:false batch_bytes
    + Geometry.access_us geometry ~sequential:false ~write:true batch_bytes
  in
  {
    rw_windows = List.init n_windows window;
    rw_ops = !ops;
    rw_failed = !failed;
    rw_read_repairs = Amoeba_sim.Stats.count mstats "read_repairs";
    rw_fallthroughs = Amoeba_sim.Stats.count mstats "resync_fallthroughs";
    rw_resync_steps = Amoeba_sim.Stats.count mstats "resync_steps";
    rw_resync_sectors = Amoeba_sim.Stats.count mstats "resync_sectors";
    rw_online_resync_ms = online.Amoeba_sim.Stats.mean /. 1000.;
    rw_step_cost_ms = float_of_int step_cost /. 1000.;
    rw_normal_max_ms = float_of_int !normal_max /. 1000.;
    rw_max_op_ms = float_of_int !overall_max /. 1000.;
    rw_clean_at_end = Mirror.sync_state mirror = Mirror.Clean;
  }

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

(* Fault the international line, not the network: a [Link_loss]/
   [Link_partition] plan applies only to transactions tagged Wide, so
   cross-border fetches degrade (and, with retries, mostly survive)
   while local traffic at either end never even consumes a random draw —
   the quiet and faulted local fetch times must be identical. *)
let wan_fault_experiment ?(file_bytes = 65_536) () =
  let f = Federation.create ~attempts:6 ~backoff_us:100_000 () in
  let clock = Federation.clock f in
  Federation.add_site f ~name:"tokyo" ~region:"jp";
  let data = Bytes.make file_bytes 'w' in
  let (_ : Amoeba_cap.Capability.t) =
    Federation.publish f ~from:"home" ~name:"wan-file" ~replicate_to:[ "tokyo" ] data
  in
  let wide_fetch () = Federation.fetch_from_replica f ~from:"home" "wan-file" ~replica:"tokyo" in
  let local_fetch () = Federation.fetch_from_replica f ~from:"home" "wan-file" ~replica:"home" in
  (* warm every cache so later fetches are byte-for-byte comparable *)
  ignore (wide_fetch ());
  ignore (local_fetch ());
  Clock.reset clock;
  (* Phase boundaries leave generous virtual headroom: a fully-retried
     wide op against a dead line costs minutes of virtual time (6
     attempts x 10 s timeout per transaction), and a phase's ops must
     not run the clock past the next phase's event. *)
  let loss_at = 1_000_000 and partition_at = 10_000_000_000 and heal_at = 20_000_000_000 in
  let plan =
    Plan.create ~seed:0x3A9L
    |> fun p -> Plan.at p ~us:loss_at (Plan.Link_loss (Link.Wide, 0.25))
    |> fun p -> Plan.at p ~us:partition_at (Plan.Link_partition Link.Wide)
    |> fun p -> Plan.at p ~us:heal_at (Plan.Link_heal Link.Wide)
  in
  let injector = Injector.attach ~transport:(Federation.transport f) ~clock plan in
  let wide_ops = ref 0 and wide_failed = ref 0 in
  let local_ops = ref 0 and local_failed = ref 0 in
  let timed_local () =
    incr local_ops;
    match Clock.elapsed clock (fun () -> local_fetch ()) with
    | _, us -> us
    | exception Status.Error _ ->
      incr local_failed;
      0
  in
  let quiet_local_us = timed_local () in
  (* --- loss phase: 25% per-direction drop on the wide line only --- *)
  Clock.advance_to clock loss_at;
  Injector.poll injector;
  for _ = 1 to 12 do
    incr wide_ops;
    (try ignore (wide_fetch ()) with Status.Error _ -> incr wide_failed);
    ignore (timed_local ())
  done;
  (* --- partition phase: the line is cut; every wide op fails --- *)
  Clock.advance_to clock partition_at;
  Injector.poll injector;
  let partition_ops = ref 0 and partition_failed = ref 0 in
  for _ = 1 to 3 do
    incr partition_ops;
    (try ignore (wide_fetch ()) with Status.Error _ -> incr partition_failed)
  done;
  let faulted_local_us = timed_local () in
  (* --- heal: loss rate and partition both clear --- *)
  Clock.advance_to clock heal_at;
  Injector.poll injector;
  let healed_ok = match wide_fetch () with _ -> true | exception Status.Error _ -> false in
  let istats = Injector.stats injector in
  Injector.detach injector;
  {
    wf_wide_ops = !wide_ops;
    wf_wide_failed = !wide_failed;
    wf_partition_ops = !partition_ops;
    wf_partition_failed = !partition_failed;
    wf_healed_ok = healed_ok;
    wf_local_ops = !local_ops;
    wf_local_failed = !local_failed;
    wf_link_request_drops = Amoeba_sim.Stats.count istats "link_request_drops";
    wf_link_reply_drops = Amoeba_sim.Stats.count istats "link_reply_drops";
    wf_partition_drops = Amoeba_sim.Stats.count istats "link_partition_drops";
    wf_retries = Amoeba_sim.Stats.count istats "link_request_drops";
    wf_quiet_local_us = quiet_local_us;
    wf_faulted_local_us = faulted_local_us;
  }

type pair_report = {
  pr_ops : int;
  pr_failed : int;
  pr_outage_ops : int;  (** mutations applied while the primary was down *)
  pr_diverged : string option;
  pr_state_match : bool;
  pr_healed : bool;
}

(* The directory pair under a plan: the primary replica dies in the
   middle of a stream of mutations, the backup serves alone, and the
   heal replays the backup's state onto the primary through a lockstep
   checkpoint copy. Afterwards the two replicas must agree not just
   structurally (no divergence) but byte-for-byte in their checkpoints —
   same object numbers, same capabilities, same serialisation. *)
let dir_pair_recovery () =
  let clock = Clock.create () in
  let transport = Transport.create ~clock in
  let _, primary_store = boot_served ~clock transport "pairx-p" 11L in
  let _, backup_store = boot_served ~clock transport "pairx-b" 22L in
  let pair = Pair.create ~primary_store ~backup_store () in
  Pair.serve pair transport;
  let dirs = Dir_client.connect transport (Pair.port pair) in
  let root = Pair.root pair in
  Clock.reset clock;
  let crash_at = 1_000_000 and heal_at = 3_000_000 and run_until = 5_000_000 in
  let plan =
    Plan.create ~seed:0xD1BL
    |> fun p -> Plan.at p ~us:crash_at Plan.Server_crash
    |> fun p -> Plan.at p ~us:heal_at Plan.Server_reboot
  in
  let injector = Injector.attach ~transport ~act:(pair_act pair) ~clock plan in
  let ops = ref 0 and failed = ref 0 and outage_ops = ref 0 in
  let i = ref 0 in
  while Clock.now clock < run_until do
    let during_outage = not (Pair.primary_alive pair) in
    (try
       let d = Dir_client.make_dir dirs in
       Dir_client.enter dirs root (Printf.sprintf "entry-%03d" !i) d;
       if during_outage then incr outage_ops
     with Status.Error _ -> incr failed);
    incr ops;
    incr i;
    Clock.advance clock 40_000;
    Injector.poll injector
  done;
  Injector.poll injector;
  Injector.detach injector;
  let dump_p, dump_b = Pair.replica_dumps pair in
  {
    pr_ops = !ops;
    pr_failed = !failed;
    pr_outage_ops = !outage_ops;
    pr_diverged = Pair.divergence pair;
    pr_state_match = String.equal dump_p dump_b;
    pr_healed = Pair.primary_alive pair;
  }

let run () =
  header "RESYNC - drive rejoin with online sectored resync (fail 2s, rejoin 4s)";
  let r = resync_experiment () in
  Printf.printf
    "Foreground reads every 10 ms; the rejoined drive drains one %s\n\
     batch per poll point, charged against the same disk clock:\n\n"
    "bounded";
  Printf.printf "  %-8s %-16s %10s %6s %9s %9s %9s\n" "window" "mirror state" "backlog"
    "reads" "p50 ms" "p95 ms" "p99 ms";
  List.iter
    (fun (w : resync_window) ->
      Printf.printf "  %5d ms %-16s %10d %6d %9.1f %9.1f %9.1f\n" w.w_start_ms w.w_state
        w.w_remaining w.w_ops w.w_p50_ms w.w_p95_ms w.w_p99_ms)
    r.rw_windows;
  Printf.printf "\n  client reads issued                  %12d\n" r.rw_ops;
  Printf.printf "  failed client reads                  %12d   (claim: 0)\n" r.rw_failed;
  Printf.printf "  resync steps / sectors copied        %8d / %d\n" r.rw_resync_steps
    r.rw_resync_sectors;
  Printf.printf "  reads that outran the scan (repairs) %8d / %d\n" r.rw_fallthroughs
    r.rw_read_repairs;
  Printf.printf "  online resync, rejoin to clean       %12.1f ms\n" r.rw_online_resync_ms;
  Printf.printf "  one resync batch costs at most       %12.1f ms\n" r.rw_step_cost_ms;
  Printf.printf "  slowest op, both drives clean        %12.1f ms\n" r.rw_normal_max_ms;
  Printf.printf "  slowest op anywhere                  %12.1f ms   (claim: << resync)\n"
    r.rw_max_op_ms;
  Printf.printf "  mirror clean at end                  %12s\n"
    (if r.rw_clean_at_end then "yes" else "NO");
  Printf.printf
    "  (no op waits for the whole copy: the worst op pays its own I/O\n\
    \   plus a couple of batches, vs the paper's stop-and-copy recovery)\n";
  let w = wan_fault_experiment () in
  Printf.printf "\nWAN link faults (25%% loss, then partition, then heal) on the wide line:\n";
  Printf.printf "  wide fetches under loss, failed      %8d / %d\n" w.wf_wide_failed
    w.wf_wide_ops;
  Printf.printf "  wide fetches under partition, failed %8d / %d   (claim: all)\n"
    w.wf_partition_failed w.wf_partition_ops;
  Printf.printf "  wide fetch after heal                %12s\n"
    (if w.wf_healed_ok then "ok" else "FAILED");
  Printf.printf "  local fetches throughout, failed     %8d / %d   (claim: 0)\n"
    w.wf_local_failed w.wf_local_ops;
  Printf.printf "  link drops (req / reply / partition) %6d / %d / %d\n"
    w.wf_link_request_drops w.wf_link_reply_drops w.wf_partition_drops;
  Printf.printf "  retries spent riding out the faults  %12d\n" w.wf_retries;
  Printf.printf "  local fetch, quiet vs faulted        %8d vs %d us   (claim: equal)\n"
    w.wf_quiet_local_us w.wf_faulted_local_us;
  let p = dir_pair_recovery () in
  Printf.printf "\nDirectory pair: primary crash mid-stream at 1s, heal at 3s:\n";
  Printf.printf "  directory mutations issued           %12d\n" p.pr_ops;
  Printf.printf "  failed mutations                     %12d   (claim: 0)\n" p.pr_failed;
  Printf.printf "  served by the survivor alone         %12d\n" p.pr_outage_ops;
  Printf.printf "  replicas diverged                    %12s\n"
    (match p.pr_diverged with None -> "no" | Some path -> "at " ^ path);
  Printf.printf "  canonical dumps byte-identical       %12s\n"
    (if p.pr_state_match then "yes" else "NO");
  Printf.printf "  primary back in duplex               %12s\n"
    (if p.pr_healed then "yes" else "NO");
  []
