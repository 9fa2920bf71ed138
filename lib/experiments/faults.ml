open Common

type availability_report = {
  avail_ops : int;
  avail_failed : int;
  normal_p99_ms : float;
  degraded_p99_ms : float;
  degraded_reads : int;
  resync_ms : float;
}

(* The paper's dual-disk promise: "if the main disk fails, the file
   server can proceed uninterruptedly by using the other disk". A read
   workload runs for 10 virtual seconds against a cache too small for the
   working set (so reads really touch disk); drive 0 dies at t=2s and is
   repaired + resynced at t=6s. Every client op must succeed, and the
   degraded-phase tail latency should match the healthy phase — the
   surviving replica is an identical drive. *)
let fault_availability () =
  let clock = Clock.create () in
  let config =
    { Server.default_config with cache_bytes = 512 * 1024; max_cached_files = 128 }
  in
  let server = Server.boot ~config ~clock ~id:"av" ~sectors:131_072 ~max_files:2048 () in
  let mirror = Server.mirror server in
  let transport = Transport.create ~clock in
  Bullet_core.Proto.serve server transport;
  let client = Client.connect ~attempts:4 ~backoff_us:25_000 transport (Server.port server) in
  let file_bytes = 65_536 in
  let files =
    Array.init 48 (fun i ->
        Client.create client ~p_factor:2 (Bytes.make file_bytes (Char.chr (65 + (i mod 26)))))
  in
  (* Measure from t=0: setup time is not part of the run. *)
  Clock.reset clock;
  let fail_at = 2_000_000 and recover_at = 6_000_000 and run_until = 10_000_000 in
  let plan =
    Plan.create ~seed:0xF001L
    |> fun p -> Plan.at p ~us:fail_at (Plan.Drive_fail 0)
    |> fun p -> Plan.at p ~us:recover_at Plan.Drive_recover
  in
  let injector = Injector.attach ~transport ~mirror ~clock plan in
  let lat = Amoeba_sim.Stats.create "availability" in
  let ops = ref 0 and failed = ref 0 and i = ref 0 in
  while Clock.now clock < run_until do
    let started = Clock.now clock in
    (try ignore (Client.read client files.(!i mod Array.length files))
     with Status.Error _ -> incr failed);
    incr ops;
    incr i;
    let phase = if started >= fail_at && started < recover_at then "degraded_us" else "normal_us" in
    Amoeba_sim.Stats.observe lat phase (float_of_int (Clock.now clock - started));
    Clock.advance clock 10_000 (* client think time *)
  done;
  Injector.poll injector;
  let resync = Amoeba_sim.Stats.summary (Injector.stats injector) "resync_us" in
  Injector.detach injector;
  {
    avail_ops = !ops;
    avail_failed = !failed;
    normal_p99_ms = Amoeba_sim.Stats.percentile lat "normal_us" 0.99 /. 1000.;
    degraded_p99_ms = Amoeba_sim.Stats.percentile lat "degraded_us" 0.99 /. 1000.;
    degraded_reads = Amoeba_sim.Stats.count (Mirror.stats mirror) "degraded_reads";
    resync_ms = resync.Amoeba_sim.Stats.mean /. 1000.;
  }

type resync_point = { disk_mb : int; resync_ms : float }

(* "Recovery is simply done by copying the complete disk": resync cost is
   one full-disk sequential pass, so it scales with capacity, not with
   how much of the disk holds live files. *)
let resync_sweep ?(sector_counts = [ 16_384; 32_768; 65_536; 131_072 ]) () =
  let run sectors =
    let clock = Clock.create () in
    let geometry = Geometry.small ~sectors in
    let d1 = Dev.create ~id:"rs-1" ~geometry ~clock in
    let d2 = Dev.create ~id:"rs-2" ~geometry ~clock in
    let mirror = Mirror.create [ d1; d2 ] in
    let plan =
      Plan.create ~seed:1L
      |> fun p -> Plan.at p ~us:0 (Plan.Drive_fail 1)
      |> fun p -> Plan.at p ~us:1 Plan.Drive_recover
    in
    let injector = Injector.attach ~mirror ~clock plan in
    Clock.advance clock 1;
    Injector.poll injector;
    let resync = Amoeba_sim.Stats.summary (Injector.stats injector) "resync_us" in
    Injector.detach injector;
    {
      disk_mb = Geometry.capacity_bytes geometry / (1024 * 1024);
      resync_ms = resync.Amoeba_sim.Stats.mean /. 1000.;
    }
  in
  List.map run sector_counts

type reboot_point = { table_files : int; reboot_ms : float }

(* Crash-reboot time is dominated by the boot scan reading the whole
   inode table back into RAM, so it grows with the table size chosen at
   format time, independent of live data. *)
let reboot_sweep ?(max_files_list = [ 512; 2_048; 8_192; 32_768 ]) () =
  let run max_files =
    let clock = Clock.create () in
    let server = Server.boot ~seed:7L ~clock ~id:"rb" ~sectors:131_072 ~max_files () in
    let mirror = Server.mirror server in
    let (_ : Amoeba_cap.Capability.t) =
      Result.get_ok (Server.create server ~p_factor:2 (Bytes.make 4_096 'r'))
    in
    Server.crash server;
    let booted, us = Clock.elapsed clock (fun () -> Server.start ~seed:7L mirror) in
    let (_ : Server.t * Bullet_core.Inode_table.scan_report) = Result.get_ok booted in
    { table_files = max_files; reboot_ms = float_of_int us /. 1000. }
  in
  List.map run max_files_list

type loss_point = {
  loss_pct : float;
  loss_ops : int;
  loss_completed : int;
  loss_retries : int;
  loss_timeouts : int;
  duplicate_executions : int;
  goodput_kbs : float;
  loss_p50_ms : float;
  loss_p95_ms : float;
  loss_p99_ms : float;
}

(* Goodput of a create+read workload as the network degrades. Bounded
   retry with backoff rides out each lost message; xid dedup keeps
   retried CREATEs at-most-once (duplicate_executions counts server-side
   creates beyond the client's successful ones — it should stay 0). *)
let loss_sweep ?(loss_rates = [ 0.01; 0.02; 0.05; 0.10 ]) () =
  let file_bytes = 16_384 in
  let pairs = 60 in
  let run loss =
    let clock = Clock.create () in
    let server = Server.boot ~clock ~id:"ls" ~sectors:131_072 ~max_files:2048 () in
    let mirror = Server.mirror server in
    let transport = Transport.create ~clock in
    Bullet_core.Proto.serve server transport;
    let client = Client.connect ~attempts:10 ~backoff_us:20_000 transport (Server.port server) in
    let plan = Plan.create ~seed:0x10055L |> fun p -> Plan.at p ~us:0 (Plan.Message_loss loss) in
    let injector = Injector.attach ~transport ~mirror ~clock plan in
    let completed = ref 0 and ops = ref 0 and read_bytes = ref 0 in
    let start = Clock.now clock in
    for i = 1 to pairs do
      incr ops;
      match Client.create client ~p_factor:2 (Bytes.make file_bytes (Char.chr (97 + (i mod 26)))) with
      | cap -> (
        incr completed;
        incr ops;
        try
          let data = Client.read client cap in
          incr completed;
          read_bytes := !read_bytes + Bytes.length data
        with Status.Error _ -> ())
      | exception Status.Error _ -> ()
    done;
    let elapsed_us = Clock.now clock - start in
    let client_stats = Client.stats client in
    let creates_done = Amoeba_sim.Stats.count (Server.stats server) "creates" in
    Injector.detach injector;
    (* Per-transaction latency (retries and backoff included) from the
       client's log2 histogram, the tail the goodput number hides. *)
    let latency = Amoeba_sim.Stats.hist client_stats "trans_us" in
    let pct q = float_of_int (Amoeba_sim.Stats.Hist.percentile latency q) /. 1000. in
    {
      loss_pct = loss *. 100.;
      loss_ops = !ops;
      loss_completed = !completed;
      loss_retries = Amoeba_sim.Stats.count client_stats "retries";
      loss_timeouts = Amoeba_sim.Stats.count client_stats "timeouts";
      duplicate_executions = max 0 (creates_done - Server.live_files server);
      goodput_kbs =
        (if elapsed_us = 0 then 0.
         else float_of_int !read_bytes /. 1024. /. (float_of_int elapsed_us /. 1_000_000.));
      loss_p50_ms = pct 0.50;
      loss_p95_ms = pct 0.95;
      loss_p99_ms = pct 0.99;
    }
  in
  List.map run loss_rates

type crash_report = {
  crash_ops : int;
  crash_failed : int;
  outage_ms : float;
  crash_reboot_ms : float;
  crash_retries : int;
  pre_crash_file_ok : bool;
}

(* The full crash story: the server dies mid-workload (port unbound, RAM
   cache and pending writes gone), reboots 500 virtual ms later off the
   surviving disks with the same seed — so capabilities minted before the
   crash still verify — and clients ride the outage out on timeout +
   retry without a single failed operation. *)
let crash_recovery () =
  let clock = Clock.create () in
  let seed = 0xBEE5L in
  let config =
    { Server.default_config with cache_bytes = 512 * 1024; max_cached_files = 128 }
  in
  let first = Server.boot ~config ~seed ~clock ~id:"cr" ~sectors:131_072 ~max_files:2048 () in
  let mirror = Server.mirror first in
  let server = ref first in
  let port = Server.port first in
  let transport = Transport.create ~clock in
  Bullet_core.Proto.serve first transport;
  let client = Client.connect ~attempts:8 ~backoff_us:100_000 transport port in
  let file_bytes = 32_768 in
  let files =
    Array.init 20 (fun i ->
        Client.create client ~p_factor:2 (Bytes.make file_bytes (Char.chr (48 + (i mod 10)))))
  in
  Clock.reset clock;
  let crash_at = 2_000_000 and reboot_at = 2_500_000 and run_until = 5_000_000 in
  let plan =
    Plan.create ~seed:0xCAFEL
    |> fun p -> Plan.at p ~us:crash_at Plan.Server_crash
    |> fun p -> Plan.at p ~us:reboot_at Plan.Server_reboot
  in
  let act : Plan.event -> unit = function
    | Server_crash ->
      Transport.unregister transport port;
      Server.crash !server
    | Server_reboot ->
      let booted, _ = Result.get_ok (Server.start ~config ~seed mirror) in
      server := booted;
      Bullet_core.Proto.serve booted transport
    | _ -> ()
  in
  let injector = Injector.attach ~transport ~mirror ~act ~clock plan in
  let ops = ref 0 and failed = ref 0 and i = ref 0 in
  while Clock.now clock < run_until do
    (try ignore (Client.read client files.(!i mod Array.length files))
     with Status.Error _ -> incr failed);
    incr ops;
    incr i;
    Clock.advance clock 50_000
  done;
  Injector.poll injector;
  let reboot = Amoeba_sim.Stats.summary (Injector.stats injector) "reboot_us" in
  let pre_crash_file_ok =
    match Client.read client files.(0) with
    | data -> Bytes.length data = file_bytes && Bytes.get data 0 = '0'
    | exception Status.Error _ -> false
  in
  Injector.detach injector;
  {
    crash_ops = !ops;
    crash_failed = !failed;
    outage_ms = float_of_int (reboot_at - crash_at) /. 1000.;
    crash_reboot_ms = reboot.Amoeba_sim.Stats.mean /. 1000.;
    crash_retries = Amoeba_sim.Stats.count (Client.stats client) "retries";
    pre_crash_file_ok;
  }

let run () =
  header "FAULTS - availability and recovery under a deterministic fault plan";
  let a = fault_availability () in
  Printf.printf "Drive failure at t=2s, repair+resync at t=6s, reads throughout:\n";
  Printf.printf "  client reads issued                  %12d\n" a.avail_ops;
  Printf.printf "  failed client reads                  %12d   (claim: 0)\n" a.avail_failed;
  Printf.printf "  reads served with a drive down       %12d\n" a.degraded_reads;
  Printf.printf "  p99 read latency, both drives        %12.2f ms\n" a.normal_p99_ms;
  Printf.printf "  p99 read latency, degraded           %12.2f ms\n" a.degraded_p99_ms;
  Printf.printf "  resync (whole-disk copy)             %12.1f ms\n" a.resync_ms;
  Printf.printf "\nMirror resync time vs disk size (one full-disk sequential copy):\n";
  Printf.printf "  %-10s %14s %16s\n" "Disk" "resync (ms)" "ms per MB";
  List.iter
    (fun (p : resync_point) ->
      Printf.printf "  %6d MB %14.1f %16.2f\n" p.disk_mb p.resync_ms
        (p.resync_ms /. float_of_int p.disk_mb))
    (resync_sweep ());
  Printf.printf "\nCrash-reboot time vs inode table size (boot = one table scan):\n";
  Printf.printf "  %-12s %14s\n" "Table" "reboot (ms)";
  List.iter
    (fun (p : reboot_point) ->
      Printf.printf "  %8d %16.1f\n" p.table_files p.reboot_ms)
    (reboot_sweep ());
  Printf.printf "\nGoodput under message loss (timeout 100 ms, <=10 attempts, xid dedup):\n";
  Printf.printf "  %-8s %8s %10s %8s %9s %10s %12s %8s %8s %8s\n" "Loss" "ops" "completed"
    "retries" "timeouts" "dup execs" "goodput KB/s" "p50 ms" "p95 ms" "p99 ms";
  List.iter
    (fun (p : loss_point) ->
      Printf.printf "  %5.0f %% %9d %10d %8d %9d %10d %12.1f %8.1f %8.1f %8.1f\n" p.loss_pct
        p.loss_ops p.loss_completed p.loss_retries p.loss_timeouts
        p.duplicate_executions p.goodput_kbs p.loss_p50_ms p.loss_p95_ms p.loss_p99_ms)
    (loss_sweep ());
  let c = crash_recovery () in
  Printf.printf "\nServer crash at t=2s, reboot at t=2.5s, reads every 50 ms:\n";
  Printf.printf "  client reads issued                  %12d\n" c.crash_ops;
  Printf.printf "  failed client reads                  %12d   (claim: 0)\n" c.crash_failed;
  Printf.printf "  scripted outage                      %12.1f ms\n" c.outage_ms;
  Printf.printf "  measured reboot (inode scan)         %12.1f ms\n" c.crash_reboot_ms;
  Printf.printf "  timeout retries spanning the outage  %12d\n" c.crash_retries;
  Printf.printf "  pre-crash capability still valid     %12s\n"
    (if c.pre_crash_file_ok then "yes" else "NO");
  []
