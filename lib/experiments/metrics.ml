open Common

type metrics_report = {
  mx_scenarios : metrics_scenario list;
  mx_status_metrics : int;  (** samples in the STD_STATUS snapshot *)
  mx_status_bytes : int;  (** its binary encoding *)
  mx_roundtrip_ok : bool;  (** encode -> decode -> encode is byte-identical *)
}

(* Scenario 1: the resync story as the health layer sees it.  A drive
   dies at 2 s and rejoins fully dirty at 4 s while a read workload
   (with a trickle of creates exercising the degraded write path) keeps
   running.  The server's own registry carries the mirror
   gauges, so the scraper reads exactly what STD_STATUS serves; the
   transition sequence must be healthy -> degraded -> healthy with no
   flapping while the resync drains. *)
let metrics_drive_rejoin () =
  let interval_us = 500_000 in
  let clock = Clock.create () in
  let config =
    { Server.default_config with cache_bytes = 128 * 1024; max_cached_files = 16 }
  in
  let server = Server.boot ~config ~clock ~id:"mx" ~sectors:8_192 ~max_files:1024 () in
  let mirror = Server.mirror server in
  let transport = Transport.create ~clock in
  Bullet_core.Proto.serve server transport;
  let client = Client.connect ~attempts:4 ~backoff_us:25_000 transport (Server.port server) in
  let files =
    Array.init 16 (fun i ->
        Client.create client ~p_factor:2 (Bytes.make 32_768 (Char.chr (65 + i))))
  in
  Clock.reset clock;
  (* the degraded entry value is the prospective backlog: a rejoining
     drive starts fully dirty, so the gauge reports the offline drive's
     whole capacity until the resync cursor takes over *)
  let fail_at = 2_150_000 and rejoin_at = 4_000_000 and run_until = 16_000_000 in
  let plan =
    Plan.create ~seed:0xBEADL
    |> fun p -> Plan.at p ~us:fail_at (Plan.Drive_fail 0)
    |> fun p -> Plan.at p ~us:rejoin_at (Plan.Drive_rejoin 256)
  in
  let injector = Injector.attach ~transport ~mirror ~clock plan in
  let reg = Server.metrics server in
  Transport.register_metrics transport reg;
  Injector.register_metrics injector reg;
  let w =
    watch ~registry:reg ~clock ~interval_us ~capacity:64
      [
        {
          (* this workload is disk-bound from the first cold read: the
             latency SLO burns immediately and never recovers — the
             always-on alert STD_STATUS consumers see *)
          Health.Slo.al_name = "read-p99";
          objective = Health.Slo.P99_below { metric = "server.read_us"; limit = 25_000 };
          window = 6;
          enter_pct = 50;
          exit_pct = 16;
        };
        {
          (* the hysteresis demo: burns while the dirty backlog is
             non-zero, fires a few intervals into the resync and clears
             a few intervals after the mirror is clean *)
          Health.Slo.al_name = "resync-backlog";
          objective =
            Health.Slo.P99_below { metric = "mirror.sectors_remaining"; limit = 0 };
          window = 6;
          enter_pct = 50;
          exit_pct = 16;
        };
      ]
  in
  let i = ref 0 in
  while Clock.now clock < run_until do
    (try ignore (Client.read client files.(!i * 5 mod Array.length files))
     with Status.Error _ -> ());
    if !i mod 16 = 0 then ignore (Client.create client ~p_factor:2 (Bytes.make 8_192 'x'));
    incr i;
    Clock.advance clock 10_000;
    Injector.poll injector;
    poll w
  done;
  Injector.detach injector;
  (* the STD_STATUS surface, exercised off the same live registry *)
  let status = Bullet_core.Proto.encode_status server in
  let roundtrip =
    match Bullet_core.Proto.decode_status status with
    | Error _ -> false
    | Ok snap -> Bytes.equal (Metrics.encode_snapshot snap) status
  in
  let n_samples =
    match Bullet_core.Proto.decode_status status with
    | Error _ -> 0
    | Ok snap -> List.length snap.Metrics.samples
  in
  ( scenario_of ~name:"drive-rejoin" w,
    (n_samples, Bytes.length status, roundtrip),
    Mirror.sync_state mirror = Mirror.Clean )

(* Scenario 2: an overload storm through the scheduler.  Twice-saturated
   shedding admission: the health layer must call it overloaded from the
   interval shed rate, the p99 SLO must burn through its window, and the
   goodput floor must fire when the storm drains and per-interval
   completions collapse. *)
let metrics_overload_storm () =
  let interval_us = 100_000 in
  let mclock = Clock.create () in
  let reg = Metrics.create "storm" in
  let w =
    watch ~registry:reg ~clock:mclock ~interval_us ~capacity:128
      [
        {
          Health.Slo.al_name = "response-p99";
          objective = Health.Slo.P99_below { metric = "sched.response_us"; limit = 8_000 };
          window = 5;
          enter_pct = 60;
          exit_pct = 20;
        };
        {
          Health.Slo.al_name = "goodput-floor";
          objective = Health.Slo.Delta_at_least { metric = "sched.completed"; floor = 10 };
          window = 5;
          enter_pct = 60;
          exit_pct = 20;
        };
        {
          (* error budget on shed work: fires once the run has rejected
             more attempts than the budget allows, never clears *)
          Health.Slo.al_name = "shed-budget";
          objective = Health.Slo.P99_below { metric = "sched.sheds"; limit = 100 };
          window = 5;
          enter_pct = 60;
          exit_pct = 20;
        };
      ]
  in
  let observer at =
    if at > Clock.now mclock then Clock.advance_to mclock at;
    poll w
  in
  let retry = Backoff.policy ~attempts:3 ~timeout_us:500_000 ~backoff_us:20_000 in
  let config =
    {
      Sched.stations =
        [
          Sched.station "cpu" ~layer:Amoeba_trace.Sink.Cpu (Sched.Round_robin 1_000);
          Sched.station "net" ~layer:Amoeba_trace.Sink.Net Sched.Delay;
        ];
      profiles = [ { Sched.pr_name = "read4k"; pr_segments = [ (0, 3_000); (1, 1_000) ] } ];
      clients = 64;
      think_us = 10_000;
      requests_per_client = 40;
      overload = { Sched.accept_limit = 4; policy = Sched.Shed; retry = Some retry };
    }
  in
  let report = Sched.run ~metrics:reg ~observer config in
  (scenario_of ~name:"overload-storm" w, report)

(* Scenario 3: lease churn under scripted clock skew.  A station reads a
   hot binding under short leases; the plan DSL jumps its lease clock
   forward (every read now renews) and then steps it backwards (drop all
   leases, re-grant).  The churn counter spikes and the evaluator must
   call it lease_churning — never degraded or overloaded, which is what
   separates the three fault signatures. *)
let metrics_lease_skew () =
  let interval_us = 200_000 in
  let rig, station, _ = station_with_file "hot" (Bytes.make 4_096 'L') in
  let reg = Metrics.create "lease-skew" in
  Station.register_metrics station reg;
  Transport.register_metrics rig.lz_transport reg;
  ignore (Station.read station ~dir:rig.lz_root "hot");
  let start = Clock.now rig.lz_clock in
  (* the churn threshold (3 events per interval) sits above the normal
     renewal cadence — one expiry + grant per lease horizon — so only
     the skew phases read as churn *)
  let w =
    watch ~registry:reg ~clock:rig.lz_clock ~interval_us ~capacity:64
      [
        {
          (* the skew must cost lease traffic, not reads: the station
             keeps serving warm hits every interval, so this floor never
             burns — asserted below as an empty alert-edge list *)
          Health.Slo.al_name = "hit-floor";
          objective = Health.Slo.Delta_at_least { metric = "client_cache.hits"; floor = 1 };
          window = 4;
          enter_pct = 75;
          exit_pct = 25;
        };
      ]
  in
  let plan_text =
    Printf.sprintf "seed 41\nat %d lease_skew 150000\nat %d lease_skew -50000\n"
      (start + 300_000) (start + 900_000)
  in
  let plan = match Plan.parse plan_text with Ok p -> p | Error e -> failwith e in
  let injector =
    Injector.attach ~transport:rig.lz_transport ~act:(skew_act station) ~clock:rig.lz_clock
      plan
  in
  while Clock.now rig.lz_clock < start + 2_400_000 do
    Injector.poll injector;
    (try ignore (Station.read station ~dir:rig.lz_root "hot") with Status.Error _ -> ());
    poll w;
    Clock.advance rig.lz_clock 60_000
  done;
  Injector.detach injector;
  scenario_of ~name:"lease-skew" w

let assert_metrics_invariants r =
  let check = invariant "metrics experiment" in
  let find name = List.find (fun s -> String.equal s.ms_name name) r.mx_scenarios in
  let kinds s = List.map snd s.ms_transitions in
  let fired s name = List.exists (fun (_, n, f) -> f && String.equal n name) s.ms_alerts in
  let rejoin = find "drive-rejoin" in
  (match kinds rejoin with
  | [ { Health.rule = "healthy"; _ }; { rule = "degraded"; value = Some resync_backlog };
      { rule = "healthy"; _ } ] ->
    check "drive-rejoin backlog positive at entry" (resync_backlog > 0)
  | _ -> check "drive-rejoin transitions are healthy -> degraded -> healthy" false);
  check "drive-rejoin ends healthy" (rejoin.ms_final = Health.healthy);
  check "drive-rejoin read-p99 alert fired" (fired rejoin "read-p99");
  check "drive-rejoin resync-backlog alert fired" (fired rejoin "resync-backlog");
  check "drive-rejoin resync-backlog alert cleared"
    (List.exists
       (fun (_, n, f) -> (not f) && String.equal n "resync-backlog")
       rejoin.ms_alerts);
  check "drive-rejoin scraped through the run" (List.length rejoin.ms_snapshots >= 20);
  let storm = find "overload-storm" in
  (match kinds storm with
  | { Health.rule = "healthy"; _ } :: { rule = "overloaded"; value = Some shed_rate } :: rest ->
    check "overload-storm shed rate positive" (shed_rate > 0);
    check "overload-storm never leaves overloaded except to healthy"
      (List.for_all (fun st -> st = Health.healthy) rest)
  | _ -> check "overload-storm transitions enter overloaded" false);
  check "overload-storm shed-budget alert fired" (fired storm "shed-budget");
  check "overload-storm response-p99 alert fired" (fired storm "response-p99");
  check "overload-storm goodput-floor alert fired" (fired storm "goodput-floor");
  let skew = find "lease-skew" in
  check "lease-skew transitions are healthy -> lease_churning -> healthy"
    (List.map Health.state_label (kinds skew) = [ "healthy"; "lease_churning"; "healthy" ]);
  check "lease-skew hit-floor stays quiet" (skew.ms_alerts = []);
  check "status snapshot roundtrip is byte-identical" r.mx_roundtrip_ok;
  check "status snapshot carries the whole registry" (r.mx_status_metrics >= 20)

let metrics_experiment () =
  let rejoin, (status_metrics, status_bytes, roundtrip), clean = metrics_drive_rejoin () in
  let storm, _sched_report = metrics_overload_storm () in
  let skew = metrics_lease_skew () in
  let report =
    {
      mx_scenarios = [ rejoin; storm; skew ];
      mx_status_metrics = status_metrics;
      mx_status_bytes = status_bytes;
      mx_roundtrip_ok = roundtrip && clean;
    }
  in
  assert_metrics_invariants report;
  report

(* Deterministic text dump of the whole run — every snapshot, every
   transition, every alert edge. *)
let metrics_dump r =
  let buf = Buffer.create 65_536 in
  List.iter (scenario_dump buf) r.mx_scenarios;
  Buffer.add_string buf
    (Printf.sprintf "status metrics %d bytes %d roundtrip %b\n" r.mx_status_metrics
       r.mx_status_bytes r.mx_roundtrip_ok);
  Buffer.contents buf

let metrics_json r =
  let scenario s =
    json_obj
      [
        ("name", json_str s.ms_name);
        ("interval_us", string_of_int s.ms_interval_us);
        ("snapshots", string_of_int (List.length s.ms_snapshots));
        ("transitions", transitions_json s.ms_transitions);
        ( "alerts",
          json_arr
            (List.map
               (fun (at, name, firing) ->
                 json_obj
                   [
                     ("at_us", string_of_int at);
                     ("alert", json_str name);
                     ("firing", string_of_bool firing);
                   ])
               s.ms_alerts) );
        ("final", json_str (Health.state_label s.ms_final));
      ]
  in
  json_obj
    [
      ("scenarios", json_arr (List.map scenario r.mx_scenarios));
      ("status_metrics", string_of_int r.mx_status_metrics);
      ("status_bytes", string_of_int r.mx_status_bytes);
      ("roundtrip_ok", string_of_bool r.mx_roundtrip_ok);
    ]

let run () =
  header "METRICS - live health states + SLO burn over scripted fault plans";
  let r = metrics_experiment () in
  List.iter
    (fun s ->
      Printf.printf "\n%s (scrape every %d ms, %d snapshots):\n" s.ms_name
        (s.ms_interval_us / 1000)
        (List.length s.ms_snapshots);
      print_health s.ms_transitions;
      if s.ms_alerts = [] then Printf.printf "  alerts  (none)\n"
      else
        List.iter
          (fun (at, name, firing) ->
            Printf.printf "  alert   %-16s %-5s at %.1f s\n" name
              (if firing then "fire" else "clear")
              (ms at /. 1000.))
          s.ms_alerts)
    r.mx_scenarios;
  Printf.printf "\nSTD_STATUS snapshot: %d metrics in %d bytes, codec roundtrip %s\n"
    r.mx_status_metrics r.mx_status_bytes
    (if r.mx_roundtrip_ok then "ok" else "BROKEN");
  Printf.printf "  machine-readable copy written to BENCH_metrics.json\n";
  Printf.printf "  full snapshot dump written to BENCH_metrics_dump.txt\n";
  [ metrics_json r ^ "\n"; metrics_dump r ]
