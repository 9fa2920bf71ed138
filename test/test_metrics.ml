(* The metrics registry, scrape loop, health evaluator and SLO alerts,
   plus the cross-checks that keep the observability layer honest: a
   counter must agree with the trace events of the same run, and two
   runs of a scenario must scrape byte-identical snapshots. *)

open Helpers
module Clock = Amoeba_sim.Clock
module Stats = Amoeba_sim.Stats
module Metrics = Amoeba_metrics.Metrics
module Health = Amoeba_metrics.Health

(* ---- registry + scrape ---- *)

let test_registry_scrape () =
  let reg = Metrics.create "t" in
  let stats = Stats.create "svc" in
  Stats.add stats "requests" 7;
  let cell = ref 3 in
  Metrics.gauge reg "depth" (fun () -> !cell);
  Stats.record stats "lat_us" 100;
  Stats.record stats "lat_us" 200;
  Metrics.stats_source reg ~prefix:"svc" stats;
  let snap = Metrics.scrape reg ~at_us:42 in
  check_int "snapshot time" 42 snap.Metrics.at_us;
  check_int "three metrics" 3 (List.length snap.Metrics.samples);
  (* sorted by name: depth, svc.lat_us, svc.requests *)
  check_string "sorted names" "depth,svc.lat_us,svc.requests"
    (String.concat "," (List.map (fun s -> s.Metrics.s_name) snap.Metrics.samples));
  check_int "counter read" 7
    (Metrics.value_int (Option.get (Metrics.find snap "svc.requests")));
  check_int "gauge read" 3 (Metrics.value_int (Option.get (Metrics.find snap "depth")));
  cell := 9;
  let snap2 = Metrics.scrape reg ~at_us:43 in
  check_int "gauge is live" 9 (Metrics.value_int (Option.get (Metrics.find snap2 "depth")));
  (match Metrics.find snap "svc.lat_us" with
  | Some (Metrics.Hist { count; sum; _ }) ->
    check_int "hist count" 2 count;
    check_int "hist sum" 300 sum
  | _ -> Alcotest.fail "svc.lat_us should scrape as a histogram");
  check_bool "missing metric" true (Metrics.find snap "nope" = None)

let test_duplicate_name_raises () =
  let reg = Metrics.create "dup" in
  Metrics.stats_source reg ~prefix:"n" (Stats.create "n");
  Alcotest.check_raises "duplicate source" (Metrics.Duplicate_metric "n") (fun () ->
      Metrics.gauge reg "n" (fun () -> 0));
  let reg2 = Metrics.create "dup2" in
  Metrics.gauge reg2 "g" (fun () -> 0);
  Alcotest.check_raises "duplicate gauge" (Metrics.Duplicate_metric "g") (fun () ->
      Metrics.stats_source reg2 ~prefix:"g" (Stats.create "g"))

let test_stats_source_expansion () =
  let reg = Metrics.create "src" in
  let stats = Stats.create "server" in
  Stats.incr stats "reads";
  Stats.add stats "bytes" 512;
  Metrics.stats_source reg ~prefix:"server" stats;
  let snap = Metrics.scrape reg ~at_us:0 in
  check_int "expanded counter" 512
    (Metrics.value_int (Option.get (Metrics.find snap "server.bytes")));
  check_int "expanded counter 2" 1
    (Metrics.value_int (Option.get (Metrics.find snap "server.reads")));
  (* the source is live: counters bumped after registration show up *)
  Stats.incr stats "reads";
  let snap2 = Metrics.scrape reg ~at_us:1 in
  check_int "live expansion" 2
    (Metrics.value_int (Option.get (Metrics.find snap2 "server.reads")))

let test_held_counter_cell () =
  let reg = Metrics.create "cell" in
  let stats = Stats.create "server" in
  Metrics.stats_source reg ~prefix:"server" stats;
  let evicted = Stats.counter stats "bytes_evicted" in
  let scraped at =
    match Metrics.find (Metrics.scrape reg ~at_us:at) "server.bytes_evicted" with
    | Some (Metrics.Counter n) -> n
    | _ -> Alcotest.fail "server.bytes_evicted should scrape as a counter"
  in
  check_int "0 before the first bump" 0 (scraped 0);
  evicted := !evicted + 4096;
  check_int "follows the held cell" 4096 (scraped 1);
  Stats.add stats "bytes_evicted" 512;
  check_int "name and cell are one counter" 4608 (scraped 2);
  check_int "the cell sees bumps by name" 4608 !evicted

(* ---- wire codec ---- *)

let test_codec_roundtrip () =
  let reg = Metrics.create "wire" in
  let stats = Stats.create "w" in
  Stats.add stats "c" 123456789;
  Metrics.gauge reg "g" (fun () -> -5);
  List.iter (Stats.record stats "h") [ 10; 20; 30; 40; 5000 ];
  Metrics.stats_source reg ~prefix:"w" stats;
  let snap = Metrics.scrape reg ~at_us:987_654_321 in
  let bytes = Metrics.encode_snapshot snap in
  (match Metrics.decode_snapshot bytes with
  | Error e -> Alcotest.fail ("decode failed: " ^ e)
  | Ok snap' ->
    check_int "time survives" snap.Metrics.at_us snap'.Metrics.at_us;
    check_bool "samples survive" true (snap.Metrics.samples = snap'.Metrics.samples);
    check_bytes "re-encode is identical" bytes (Metrics.encode_snapshot snap'));
  (* corruption must be loud, not lossy *)
  check_bool "truncation rejected" true
    (Result.is_error (Metrics.decode_snapshot (Bytes.sub bytes 0 (Bytes.length bytes - 1))));
  let trailing = Bytes.cat bytes (Bytes.make 1 '\000') in
  check_bool "trailing bytes rejected" true
    (Result.is_error (Metrics.decode_snapshot trailing));
  check_bool "empty body rejected" true
    (Result.is_error (Metrics.decode_snapshot Bytes.empty))

(* ---- ring + scraper ---- *)

let test_ring_bounds () =
  let ring = Metrics.Ring.create ~capacity:3 in
  let snap at = { Metrics.at_us = at; samples = [] } in
  List.iter (fun at -> Metrics.Ring.push ring (snap at)) [ 1; 2; 3; 4; 5 ];
  check_int "bounded" 3 (Metrics.Ring.length ring);
  check_string "oldest dropped" "3,4,5"
    (String.concat ","
       (List.map
          (fun s -> string_of_int s.Metrics.at_us)
          (Metrics.Ring.snapshots ring)));
  check_int "latest" 5 (Option.get (Metrics.Ring.latest ring)).Metrics.at_us

let test_scraper_interval () =
  let clock = Clock.create () in
  let reg = Metrics.create "scrape" in
  let stats = Stats.create "s" in
  let c = Stats.counter stats "ticks" in
  Metrics.stats_source reg ~prefix:"s" stats;
  let scraper = Metrics.Scraper.create ~registry:reg ~clock ~interval_us:1_000 ~capacity:8 in
  (* due immediately at creation time *)
  check_bool "first poll scrapes" true (Metrics.Scraper.poll scraper <> None);
  incr c;
  check_bool "not due again" true (Metrics.Scraper.poll scraper = None);
  Clock.advance clock 999;
  check_bool "still not due" true (Metrics.Scraper.poll scraper = None);
  Clock.advance clock 1;
  (match Metrics.Scraper.poll scraper with
  | None -> Alcotest.fail "scrape due after a full interval"
  | Some snap ->
    check_int "scraped at virtual now" 1_000 snap.Metrics.at_us;
    check_int "sees the counter" 1
      (Metrics.value_int (Option.get (Metrics.find snap "s.ticks"))));
  let forced = Metrics.Scraper.force scraper in
  check_int "force scrapes now" 1_000 forced.Metrics.at_us;
  check_int "ring keeps all three" 3 (Metrics.Ring.length (Metrics.Scraper.ring scraper))

(* ---- health state machine ---- *)

let snap_of at fields =
  {
    Metrics.at_us = at;
    samples =
      List.map
        (fun (name, v) -> { Metrics.s_name = name; s_value = Metrics.Counter v })
        (List.sort (fun (a, _) (b, _) -> String.compare a b) fields);
  }

let label = Health.state_label

let test_health_degraded_hysteresis () =
  let h = Health.create () in
  let obs at sync backlog =
    label
      (Health.observe h
         (snap_of at [ ("mirror.sync_state", sync); ("mirror.sectors_remaining", backlog) ]))
  in
  check_string "baseline healthy" "healthy" (obs 0 0 0);
  (* entering a bad state is immediate *)
  check_string "degraded at once" "degraded:512" (obs 100 1 512);
  (* same rule, different value: the entry value stands *)
  check_string "entry value kept" "degraded:512" (obs 200 2 8_192);
  (* one clean snapshot is not recovery (exit_after = 2) *)
  check_string "one clean interval stays degraded" "degraded:512" (obs 300 0 0);
  check_string "second clean interval recovers" "healthy" (obs 400 0 0);
  check_string "transition labels" "healthy,degraded:512,healthy"
    (String.concat "," (List.map (fun (_, st) -> label st) (Health.transitions h)))

let test_health_flap_resets_streak () =
  let h = Health.create () in
  let obs at sync = Health.observe h (snap_of at [ ("mirror.sync_state", sync) ]) in
  ignore (obs 0 0);
  ignore (obs 1 1);
  ignore (obs 2 0);
  (* the dirty snapshot resets the clean streak: still not recovered *)
  ignore (obs 3 1);
  ignore (obs 4 0);
  check_string "flapping never recovers" "degraded" (Health.state h).Health.rule;
  ignore (obs 5 0);
  check_bool "two consecutive clean recover" true (Health.state h = Health.healthy)

let test_health_overload_precedence () =
  let h = Health.create () in
  let base = [ ("sched.sheds", 0); ("sched.offered", 0); ("mirror.sync_state", 0) ] in
  ignore (Health.observe h (snap_of 0 base));
  (* both degraded and overloaded conditions hold; overloaded wins *)
  let st =
    Health.observe h
      (snap_of 100
         [ ("sched.sheds", 50); ("sched.offered", 100); ("mirror.sync_state", 1) ])
  in
  check_string "overloaded wins" "overloaded:50" (label st)

let test_health_churn_threshold () =
  (* the documented threshold: 3 churn events per interval *)
  let churn_per_interval = 3 in
  let h = Health.create () in
  let obs at churn = label (Health.observe h (snap_of at [ ("lease.churn", churn) ])) in
  ignore (obs 0 0);
  (* delta below the threshold stays healthy *)
  check_string "below threshold" "healthy" (obs 1 (churn_per_interval - 1));
  (* exactly at the threshold enters churn *)
  check_string "at threshold" "lease_churning"
    (obs 2 (churn_per_interval - 1 + churn_per_interval))

let test_health_first_snapshot_baseline () =
  (* counts since boot are not one interval's worth: the first snapshot
     only sets the baseline the next delta is taken from *)
  let h = Health.create () in
  check_string "sheds since boot are not a storm" "healthy"
    (label (Health.observe h (snap_of 0 [ ("sched.sheds", 50); ("sched.offered", 100) ])));
  check_string "the next interval's sheds are" "overloaded:50"
    (label (Health.observe h (snap_of 1 [ ("sched.sheds", 100); ("sched.offered", 200) ])));
  let h = Health.create () in
  check_string "churn since boot is not churn" "healthy"
    (label (Health.observe h (snap_of 0 [ ("lease.churn", 5) ])))

let test_health_entry_streaks () =
  (* txn_stuck and rebalancing enter only after 2 consecutive snapshots,
     and a gap starts the count again *)
  List.iter
    (fun (gauge, rule) ->
      let h = Health.create () in
      let obs at n = label (Health.observe h (snap_of at [ (gauge, n) ])) in
      check_string (rule ^ ": one snapshot is a blip") "healthy" (obs 0 4);
      check_string (rule ^ ": a gap resets the streak") "healthy" (obs 1 0);
      check_string (rule ^ ": first after the gap") "healthy" (obs 2 3);
      check_string (rule ^ ": second consecutive enters") (rule ^ ":3") (obs 3 3);
      check_string (rule ^ ": entry value stands") (rule ^ ":3") (obs 4 1))
    [ ("txn.in_doubt", "txn_stuck"); ("cluster.shards_remaining", "rebalancing") ]

let test_health_full_precedence () =
  (* every condition the table knows, peeled off one snapshot at a time:
     each row drops the rule that won the row before *)
  let h = Health.create () in
  List.iteri
    (fun at (expect, sheds, offered, sync, in_doubt, churn) ->
      check_string expect expect
        (label
           (Health.observe h
              (snap_of at
                 [
                   ("sched.sheds", sheds);
                   ("sched.offered", offered);
                   ("mirror.sync_state", sync);
                   ("mirror.sectors_remaining", 7);
                   ("txn.in_doubt", in_doubt);
                   ("lease.churn", churn);
                   ("cluster.shards_remaining", 9);
                 ]))))
    [
      ("healthy", 0, 0, 0, 2, 0);
      ("overloaded:50", 50, 100, 1, 2, 3);
      ("degraded:7", 50, 200, 1, 2, 6);
      ("txn_stuck:2", 50, 300, 0, 2, 9);
      ("lease_churning", 50, 400, 0, 0, 12);
      ("rebalancing:9", 50, 500, 0, 0, 12);
    ]

let test_slo_burn_hysteresis () =
  let slo =
    Health.Slo.create
      [
        {
          Health.Slo.al_name = "p99";
          objective = Health.Slo.P99_below { metric = "lat"; limit = 100 };
          window = 4;
          enter_pct = 50;
          exit_pct = 25;
        };
      ]
  in
  let obs at v = Health.Slo.observe slo (snap_of at [ ("lat", v) ]) in
  obs 0 50;
  obs 1 150;
  check_bool "1/2 violations is 50%: fires" true (Health.Slo.firing slo = [ "p99" ]);
  obs 2 50;
  (* 1/3 = 33% — above exit_pct, still firing *)
  check_bool "hysteresis holds" true (Health.Slo.firing slo = [ "p99" ]);
  obs 3 50;
  (* 1/4 = 25% — at exit_pct, clears *)
  check_bool "clears at exit" true (Health.Slo.firing slo = []);
  check_string "edges" "1:p99:fire,3:p99:clear"
    (String.concat ","
       (List.map
          (fun (at, n, f) -> Printf.sprintf "%d:%s:%s" at n (if f then "fire" else "clear"))
          (Health.Slo.transitions slo)))

let test_slo_delta_baseline () =
  let slo =
    Health.Slo.create
      [
        {
          Health.Slo.al_name = "goodput";
          objective = Health.Slo.Delta_at_least { metric = "done"; floor = 10 };
          window = 2;
          enter_pct = 50;
          exit_pct = 0;
        };
      ]
  in
  let obs at v = Health.Slo.observe slo (snap_of at [ ("done", v) ]) in
  (* first snapshot is a baseline, not a violation *)
  obs 0 0;
  check_bool "baseline never fires" true (Health.Slo.firing slo = []);
  obs 1 20;
  check_bool "good interval quiet" true (Health.Slo.firing slo = []);
  obs 2 21;
  check_bool "starved interval fires" true (Health.Slo.firing slo = [ "goodput" ])

let test_slo_validation () =
  let alert name =
    {
      Health.Slo.al_name = name;
      objective = Health.Slo.P99_below { metric = "m"; limit = 1 };
      window = 2;
      enter_pct = 50;
      exit_pct = 10;
    }
  in
  check_bool "duplicate names rejected" true
    (try
       ignore (Health.Slo.create [ alert "a"; alert "a" ]);
       false
     with Invalid_argument _ -> true);
  check_bool "exit above enter rejected" true
    (try
       ignore
         (Health.Slo.create [ { (alert "a") with Health.Slo.enter_pct = 10; exit_pct = 50 } ]);
       false
     with Invalid_argument _ -> true)

(* ---- trace <-> metrics self-consistency ---- *)

let test_trace_metrics_agree () =
  (* drive the client file cache under pressure with the tracer on: the
     registry's eviction counter, the stats counter and the trace's
     cache.client_evict events must all tell the same story *)
  let module File_cache = Amoeba_lease.File_cache in
  let clock = Clock.create () in
  let tracer = Amoeba_trace.Trace.create ~clock () in
  let sink = Amoeba_trace.Trace.sink tracer in
  let cache = File_cache.create ~capacity_bytes:8_192 in
  File_cache.set_tracer cache (Some tracer);
  let reg = Metrics.create "xcheck" in
  File_cache.register_metrics cache ~prefix:"client_cache" reg;
  let cap n =
    Amoeba_cap.Capability.v
      ~port:(Amoeba_cap.Port.of_int64 0x77L)
      ~obj:n ~rights:Amoeba_cap.Rights.all
      ~check:(Int64.of_int (n * 131))
  in
  for i = 1 to 6 do
    File_cache.insert cache (cap i) (Bytes.make 4_096 'x')
  done;
  let snap = Metrics.scrape reg ~at_us:(Clock.now clock) in
  let evictions =
    Metrics.value_int (Option.get (Metrics.find snap "client_cache.evictions"))
  in
  let evicted_bytes =
    Metrics.value_int (Option.get (Metrics.find snap "client_cache.bytes_evicted"))
  in
  let traced =
    List.length
      (List.filter
         (fun sp -> String.equal sp.Amoeba_trace.Sink.name "cache.client_evict")
         (Amoeba_trace.Sink.spans sink))
  in
  check_int "four evictions" 4 evictions;
  check_int "trace events match the counter" evictions traced;
  check_int "bytes follow" (4 * 4_096) evicted_bytes;
  check_int "stats and registry agree" evictions
    (Stats.count (File_cache.stats cache) "evictions")

(* ---- double-run determinism of a full scenario ---- *)

let test_storm_scenario_deterministic () =
  let scenario1, report1 = Experiments.metrics_overload_storm () in
  let scenario2, report2 = Experiments.metrics_overload_storm () in
  let wire s =
    String.concat ""
      (List.map
         (fun snap -> Bytes.to_string (Metrics.encode_snapshot snap))
         s.Experiments.ms_snapshots)
  in
  check_bool "snapshots byte-identical across runs" true
    (String.equal (wire scenario1) (wire scenario2));
  check_bool "transitions identical" true
    (scenario1.Experiments.ms_transitions = scenario2.Experiments.ms_transitions);
  check_bool "alert edges identical" true
    (scenario1.Experiments.ms_alerts = scenario2.Experiments.ms_alerts);
  check_bool "sched reports identical" true (report1 = report2);
  (* the transition shape is the storm signature *)
  (match List.map snd scenario1.Experiments.ms_transitions with
  | { Health.rule = "healthy"; _ } :: { rule = "overloaded"; value = Some shed_rate } :: _ ->
    check_bool "shed rate positive" true (shed_rate > 0)
  | _ -> Alcotest.fail "storm must enter overloaded from healthy");
  (* the registry instruments ARE the report tallies *)
  match List.rev scenario1.Experiments.ms_snapshots with
  | [] -> Alcotest.fail "no snapshots scraped"
  | final :: _ ->
    check_int "offered tally matches the final scrape"
      report1.Amoeba_sched.Sched.offered
      (Metrics.value_int (Option.get (Metrics.find final "sched.offered")))

let suite =
  ( "metrics",
    [
      Alcotest.test_case "registry scrape" `Quick test_registry_scrape;
      Alcotest.test_case "duplicate names raise" `Quick test_duplicate_name_raises;
      Alcotest.test_case "stats source expansion" `Quick test_stats_source_expansion;
      Alcotest.test_case "held counter cell scrapes live" `Quick test_held_counter_cell;
      Alcotest.test_case "codec roundtrip" `Quick test_codec_roundtrip;
      Alcotest.test_case "ring bounds" `Quick test_ring_bounds;
      Alcotest.test_case "scraper interval" `Quick test_scraper_interval;
      Alcotest.test_case "health degraded hysteresis" `Quick test_health_degraded_hysteresis;
      Alcotest.test_case "health flap resets streak" `Quick test_health_flap_resets_streak;
      Alcotest.test_case "health overload precedence" `Quick test_health_overload_precedence;
      Alcotest.test_case "health churn threshold" `Quick test_health_churn_threshold;
      Alcotest.test_case "health first snapshot is a baseline" `Quick
        test_health_first_snapshot_baseline;
      Alcotest.test_case "health entry streaks" `Quick test_health_entry_streaks;
      Alcotest.test_case "health full precedence" `Quick test_health_full_precedence;
      Alcotest.test_case "slo burn hysteresis" `Quick test_slo_burn_hysteresis;
      Alcotest.test_case "slo delta baseline" `Quick test_slo_delta_baseline;
      Alcotest.test_case "slo validation" `Quick test_slo_validation;
      Alcotest.test_case "trace and metrics agree" `Quick test_trace_metrics_agree;
      Alcotest.test_case "storm scenario deterministic" `Quick
        test_storm_scenario_deterministic;
    ] )
