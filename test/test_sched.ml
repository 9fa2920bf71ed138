(* The multi-station scheduler: validation, station disciplines, the
   admission policies, and the LOAD experiment's acceptance invariants.
   Every run here is on the virtual clock, so expected times are exact. *)

open Helpers
module Sched = Amoeba_sched.Sched
module Sink = Amoeba_trace.Sink
module Backoff = Amoeba_fault.Backoff

let fifo name = Sched.station name Sched.Fifo

let config ?(stations = [ fifo "s" ]) ?(segments = [ (0, 100) ]) ?(clients = 1) ?(think_us = 0)
    ?(requests = 1) ?(overload = Sched.no_overload) () =
  {
    Sched.stations;
    profiles = [ { Sched.pr_name = "op"; pr_segments = segments } ];
    clients;
    think_us;
    requests_per_client = requests;
    overload;
  }

let expect_invalid name cfg =
  match Sched.run cfg with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name

let test_validation () =
  expect_invalid "zero clients" (config ~clients:0 ());
  expect_invalid "zero requests" (config ~requests:0 ());
  expect_invalid "negative think" (config ~think_us:(-1) ());
  expect_invalid "no stations" { (config ()) with Sched.stations = [] };
  expect_invalid "no profiles" { (config ()) with Sched.profiles = [] };
  expect_invalid "bad quantum" (config ~stations:[ Sched.station "s" (Sched.Round_robin 0) ] ());
  expect_invalid "station out of range" (config ~segments:[ (1, 100) ] ());
  expect_invalid "negative segment" (config ~segments:[ (0, -5) ] ());
  expect_invalid "negative deadline"
    (config ~overload:{ Sched.accept_limit = 1; policy = Sched.Deadline (-1); retry = None } ());
  expect_invalid "zero retry timeout"
    (config
       ~overload:
         {
           Sched.accept_limit = 0;
           policy = Sched.Block;
           retry = Some { Backoff.attempts = 2; timeout_us = 0; backoff_us = 10 };
         }
       ())

(* One client, one FIFO station: submit at [think], serve 100 µs, think,
   repeat.  Three requests span exactly 330 µs of which 300 are busy. *)
let test_fifo_serial_timing () =
  let r = Sched.run (config ~think_us:10 ~requests:3 ()) in
  check_int "completed" 3 r.Sched.completed;
  check_int "simulated" 330 r.Sched.simulated_us;
  check_int "offered" 3 r.Sched.offered;
  let s = List.hd r.Sched.station_reports in
  check_int "busy" 300 s.Sched.busy_us;
  check_int "no waiting behind a single client" 0 s.Sched.max_queue;
  Alcotest.(check (float 1e-9)) "mean response" 0.1 r.Sched.mean_response_ms

(* Two FIFO stations in series, two clients: the second request's station-0
   service overlaps the first request's station-1 service, so measured
   throughput beats the serial (one-request-at-a-time) bound. *)
let test_pipeline_beats_serial () =
  let cfg =
    config
      ~stations:[ fifo "a"; fifo "b" ]
      ~segments:[ (0, 100); (1, 100) ]
      ~clients:2 ~requests:20 ()
  in
  let r = Sched.run cfg in
  check_int "completed" 40 r.Sched.completed;
  check_bool "concurrent throughput beats the serial bound" true
    (r.Sched.throughput_per_sec > Sched.serial_throughput_per_sec cfg);
  (* station demands and the analytic bounds for this symmetric config *)
  Alcotest.(check (float 1e-9)) "serial response" 200. (Sched.serial_response_us cfg);
  Alcotest.(check (float 1e-9)) "bottleneck demand" 100. (Sched.bottleneck_demand_us cfg);
  Alcotest.(check (float 1e-9)) "knee" 2. (Sched.saturation_clients cfg)

(* A Delay station is an infinite server: four jobs elapse concurrently,
   yet busy time still accounts every job's occupancy. *)
let test_delay_overlaps () =
  let r =
    Sched.run
      (config ~stations:[ Sched.station "wire" Sched.Delay ] ~segments:[ (0, 1000) ] ~clients:4 ())
  in
  check_int "completed" 4 r.Sched.completed;
  (* client c starts at (c mod 7); the last finishes at 1003, not 4000 *)
  check_int "span shows overlap" 1003 r.Sched.simulated_us;
  let s = List.hd r.Sched.station_reports in
  check_int "occupancy counts all four" 4000 s.Sched.busy_us

(* Round-robin slices preserve total work and complete everything. *)
let test_round_robin_conserves_work () =
  let r =
    Sched.run
      (config
         ~stations:[ Sched.station "cpu" (Sched.Round_robin 10) ]
         ~segments:[ (0, 30) ] ~clients:2 ())
  in
  check_int "completed" 2 r.Sched.completed;
  let s = List.hd r.Sched.station_reports in
  check_int "busy equals total demand" 60 s.Sched.busy_us;
  (* interleaved slices delay the first job past its FIFO finish *)
  check_bool "slicing stretches responses" true (r.Sched.mean_response_ms > 0.0445)

let test_shed_rejects_when_full () =
  let r =
    Sched.run
      (config ~clients:3
         ~overload:{ Sched.accept_limit = 1; policy = Sched.Shed; retry = None }
         ())
  in
  check_int "one admitted" 1 r.Sched.completed;
  check_int "two shed" 2 r.Sched.shed_count;
  check_int "sheds without retry fail" 2 r.Sched.failed

let test_block_queues_everything () =
  let r =
    Sched.run
      (config ~clients:3
         ~overload:{ Sched.accept_limit = 1; policy = Sched.Block; retry = None }
         ())
  in
  check_int "all served" 3 r.Sched.completed;
  check_int "none failed" 0 r.Sched.failed;
  check_int "accept queue high-water" 2 r.Sched.max_accept_queue

let test_deadline_drops_stale () =
  let r =
    Sched.run
      (config ~clients:3
         ~overload:{ Sched.accept_limit = 1; policy = Sched.Deadline 50; retry = None }
         ())
  in
  (* clients 1 and 2 queue at t=1,2 and are only dispatched when client 0
     finishes at t=100 — both have then waited past the 50 µs deadline *)
  check_int "one admitted" 1 r.Sched.completed;
  check_int "two missed" 2 r.Sched.deadline_misses;
  check_int "misses without retry fail" 2 r.Sched.failed

(* Shed + retry: the second client is shed at t=1, backs off 10 µs, is
   shed again at t=11 (the first still holds the only slot) and has then
   burnt its two attempts. *)
let test_shed_retry_backoff () =
  let retry = Backoff.policy ~attempts:2 ~timeout_us:1000 ~backoff_us:10 in
  let r =
    Sched.run
      (config ~clients:2
         ~overload:{ Sched.accept_limit = 1; policy = Sched.Shed; retry = Some retry }
         ())
  in
  check_int "first client completes" 1 r.Sched.completed;
  check_int "second fails" 1 r.Sched.failed;
  check_int "shed twice" 2 r.Sched.shed_count;
  check_int "one retry" 1 r.Sched.retried

(* Timeouts under Block: the 100 µs service exceeds the 50 µs patience,
   so every client abandons, yet the server still grinds through the
   abandoned work — all of it late, goodput zero. *)
let test_block_timeout_wastes_work () =
  let retry = Backoff.policy ~attempts:1 ~timeout_us:50 ~backoff_us:10 in
  let r =
    Sched.run
      (config ~clients:2
         ~overload:{ Sched.accept_limit = 1; policy = Sched.Block; retry = Some retry }
         ())
  in
  check_int "nothing completes in time" 0 r.Sched.completed;
  check_int "both abandoned" 2 r.Sched.abandoned;
  check_int "both served late" 2 r.Sched.late;
  check_int "both failed" 2 r.Sched.failed;
  let s = List.hd r.Sched.station_reports in
  check_int "server worked the full 200 anyway" 200 s.Sched.busy_us

(* Client c's k-th request runs profile (c + k - 1) mod n, so a single
   client alternates through the whole mix. *)
let test_profile_cycling () =
  let cfg =
    {
      (config ~requests:4 ()) with
      Sched.profiles =
        [
          { Sched.pr_name = "fast"; pr_segments = [ (0, 100) ] };
          { Sched.pr_name = "slow"; pr_segments = [ (0, 200) ] };
        ];
    }
  in
  let r = Sched.run cfg in
  check_int "completed" 4 r.Sched.completed;
  let s = List.hd r.Sched.station_reports in
  check_int "two of each profile" 600 s.Sched.busy_us

(* Identical configurations give byte-identical reports and traces. *)
let test_double_run_identity () =
  let sink1, r1 = Experiments.load_sched_trace () in
  let sink2, r2 = Experiments.load_sched_trace () in
  check_bool "reports identical" true (r1 = r2);
  check_string "traces byte-identical" (Sink.to_jsonl sink1) (Sink.to_jsonl sink2);
  check_bool "trace is non-trivial" true (Sink.length sink1 > 50)

(* Sched traces flow through the span toolchain: roots are sched.attempt,
   serve spans carry station layers, and attribution balances. *)
let test_sched_trace_attributes () =
  let sink, r = Experiments.load_sched_trace () in
  let spans = Sink.spans sink in
  let roots = List.filter (fun (s : Sink.span) -> s.Sink.parent_id = 0) spans in
  check_bool "every root is an attempt" true
    (List.for_all (fun (s : Sink.span) -> s.Sink.name = "sched.attempt") roots);
  check_int "one root per offered attempt" r.Sched.offered (List.length roots);
  let att = Amoeba_trace.Attrib.of_spans spans in
  check_bool "attribution sums" true
    (att.Amoeba_trace.Attrib.total_us
    = att.Amoeba_trace.Attrib.net_us + att.Amoeba_trace.Attrib.cpu_us
      + att.Amoeba_trace.Attrib.cache_us + att.Amoeba_trace.Attrib.disk_us
      + att.Amoeba_trace.Attrib.alloc_us + att.Amoeba_trace.Attrib.other_us)

(* ---- the closed loop ---- *)

(* The SCALE experiment's degenerate configuration: one FIFO server
   station plus a pure-delay wire, unbounded admission, no retries. *)
let closed_loop ?(think_us = 100_000) ?(server_us = 2_000) ?(wire_us = 10_000) ?(requests = 50)
    clients =
  config
    ~stations:[ fifo "server"; Sched.station "wire" ~layer:Sink.Net Sched.Delay ]
    ~segments:[ (0, server_us); (1, wire_us) ]
    ~clients ~think_us ~requests ()

let server_utilisation r = (List.hd r.Sched.station_reports).Sched.utilisation

(* The original self-contained single-station simulation, kept as a
   reference model: the scheduler's closed-loop configuration must
   replay it event for event, so the reports agree to the bit. *)
module Reference = struct
  module Eq = Amoeba_sim.Event_queue

  type report = {
    simulated_us : int;
    completed : int;
    throughput_per_sec : float;
    mean_response_ms : float;
    p99_response_ms : float;
    server_utilisation : float;
  }

  type event = Arrive of int | Server_done | Reply_received of int

  let of_sched r =
    {
      simulated_us = r.Sched.simulated_us;
      completed = r.Sched.completed;
      throughput_per_sec = r.Sched.throughput_per_sec;
      mean_response_ms = r.Sched.mean_response_ms;
      p99_response_ms = r.Sched.p99_response_ms;
      server_utilisation = server_utilisation r;
    }

  let run ~clients ~think_us ~server_us ~wire_us ~requests =
    let queue = Eq.create () in
    (* explicit monotone pins satisfy the tie-race sanitizer: same-time
       orderings here are meant (insertion order IS the model) *)
    let pin_n = ref 0 in
    let pin () =
      incr pin_n;
      !pin_n
    in
    let stats = Amoeba_sim.Stats.create "closed_loop" in
    let remaining = Array.make clients requests in
    let started = Array.make clients 0 in
    let waiting : int Queue.t = Queue.create () in
    let in_service = ref None in
    let busy_us = ref 0 in
    let completed = ref 0 in
    let finish_time = ref 0 in
    for c = 0 to clients - 1 do
      Eq.push ~pin:(pin ()) ~site:"closed_loop.start" queue ~time:(think_us + (c mod 7)) (Arrive c)
    done;
    let start_service now =
      match Queue.take_opt waiting with
      | None -> in_service := None
      | Some client ->
        in_service := Some client;
        busy_us := !busy_us + server_us;
        Eq.push ~pin:(pin ()) ~site:"closed_loop.serve" queue ~time:(now + server_us) Server_done
    in
    let rec loop now =
      match Eq.pop queue with
      | None -> now
      | Some (at, event) ->
        (match event with
        | Arrive client ->
          started.(client) <- at;
          Queue.push client waiting;
          if !in_service = None then start_service at
        | Server_done ->
          (match !in_service with
          | None -> ()
          | Some client ->
            Eq.push ~pin:(pin ()) ~site:"closed_loop.reply" queue ~time:(at + wire_us)
              (Reply_received client));
          start_service at
        | Reply_received client ->
          let response_us = at - started.(client) in
          Amoeba_sim.Stats.observe stats "response_ms" (float_of_int response_us /. 1000.);
          incr completed;
          finish_time := at;
          remaining.(client) <- remaining.(client) - 1;
          if remaining.(client) > 0 then
            Eq.push ~pin:(pin ()) ~site:"closed_loop.think" queue ~time:(at + think_us)
              (Arrive client));
        loop at
    in
    let end_time = loop 0 in
    let span = max 1 (max end_time !finish_time) in
    let summary = Amoeba_sim.Stats.summary stats "response_ms" in
    {
      simulated_us = span;
      completed = !completed;
      throughput_per_sec = float_of_int !completed /. (float_of_int span /. 1e6);
      mean_response_ms = summary.Amoeba_sim.Stats.mean;
      p99_response_ms = Amoeba_sim.Stats.percentile stats "response_ms" 0.99;
      server_utilisation = float_of_int !busy_us /. float_of_int span;
    }
end

let test_single_client_cycle_time () =
  let r = Sched.run (closed_loop 1) in
  check_int "all completed" 50 r.Sched.completed;
  (* one client: no queueing, response = service + wire *)
  Alcotest.(check (float 0.1)) "response = service + wire" 12.0 r.Sched.mean_response_ms;
  (* throughput ~ 1 / (think + response) *)
  let expected = 1e6 /. float_of_int (100_000 + 12_000) in
  check_bool "throughput near the cycle rate" true
    (Float.abs (r.Sched.throughput_per_sec -. expected) /. expected < 0.05)

let test_throughput_scales_then_saturates () =
  let at n = (Sched.run (closed_loop n)).Sched.throughput_per_sec in
  check_bool "doubling clients doubles throughput below the knee" true (at 4 > 1.8 *. at 2);
  (* far beyond the knee the server caps throughput at 1/service *)
  let cap = 1e6 /. 2_000. in
  let t_sat = at 200 in
  check_bool "saturated at 1/service" true (t_sat < cap *. 1.02 && t_sat > cap *. 0.85)

let test_response_grows_past_knee () =
  let knee = Sched.saturation_clients (closed_loop 1) in
  Alcotest.(check (float 1e-9)) "knee = (think + wire + service) / service" 56. knee;
  let below = Sched.run (closed_loop (max 1 (int_of_float knee / 2))) in
  let above = Sched.run (closed_loop (int_of_float knee * 4)) in
  check_bool "queueing shows past the knee" true
    (above.Sched.mean_response_ms > 3. *. below.Sched.mean_response_ms)

let test_utilisation_bounded () =
  let u = server_utilisation (Sched.run (closed_loop 500)) in
  check_bool "utilisation <= 1" true (u <= 1.0);
  check_bool "saturated server is busy" true (u > 0.95)

let test_closed_loop_deterministic () =
  check_bool "same run, same numbers" true (Sched.run (closed_loop 17) = Sched.run (closed_loop 17))

(* Structural equality on the projected report compares the floats
   exactly: the scheduler must reproduce the reference model bit for bit. *)
let test_matches_reference () =
  let fixtures =
    List.map (fun n -> (n, 100_000, 2_000, 10_000, 50)) [ 1; 2; 4; 17; 200; 500; 28; 224 ]
    @ [ (1, 100_000, 2_000, 0, 50); (1, 0, 2_000, 10_000, 7); (13, 1, 1, 1, 3) ]
  in
  List.iteri
    (fun i (clients, think_us, server_us, wire_us, requests) ->
      let scheduled =
        Reference.of_sched (Sched.run (closed_loop ~think_us ~server_us ~wire_us ~requests clients))
      in
      let reference = Reference.run ~clients ~think_us ~server_us ~wire_us ~requests in
      if scheduled <> reference then Alcotest.failf "fixture %d: scheduler differs from reference" i)
    fixtures

let test_scale_experiment_shape () =
  let r = Experiments.scale_experiment ~client_counts:[ 1; 64 ] () in
  check_bool "bullet demand below nfs demand" true
    (r.Experiments.bullet_service_us < r.Experiments.nfs_service_us);
  check_bool "bullet knee much higher" true
    (r.Experiments.bullet_knee > 5. *. r.Experiments.nfs_knee);
  match (r.Experiments.bullet_points, r.Experiments.nfs_points) with
  | [ _; b64 ], [ _; n64 ] ->
    check_bool "at 64 clients bullet outruns nfs" true
      (b64.Experiments.throughput_per_sec > 5. *. n64.Experiments.throughput_per_sec)
  | _ -> Alcotest.fail "expected two points each"

(* The full LOAD experiment: demand profiles measured from the real
   servers, the concurrency sweep, and the overload comparison.  The
   experiment itself raises if an acceptance invariant fails; the checks
   here restate the headline claims against the returned report. *)
let test_load_experiment () =
  let r = Experiments.load_experiment () in
  let bullet = r.Experiments.lr_bullet in
  (* demand profiles partition the traced time exactly *)
  List.iter
    (fun (p : Experiments.load_profile) ->
      let sum = List.fold_left (fun a (_, us) -> a + us) 0 p.Experiments.lpr_segments in
      check_int (p.Experiments.lpr_class ^ " segments sum to traced time")
        p.Experiments.lpr_traced_us sum)
    (bullet.Experiments.sl_profiles @ r.Experiments.lr_nfs.Experiments.sl_profiles);
  (* (a) concurrency pays: knee throughput beats the serial bound *)
  check_bool "knee throughput beats serial cap" true
    (bullet.Experiments.sl_knee_throughput > bullet.Experiments.sl_serial_cap_per_sec);
  (* (b) overload: shedding holds goodput near peak, blocking collapses *)
  let find name =
    List.find (fun o -> o.Experiments.ov_policy = name) r.Experiments.lr_overload
  in
  let peak = r.Experiments.lr_peak_goodput in
  check_bool "shed holds goodput" true ((find "shed").Experiments.ov_goodput >= 0.9 *. peak);
  check_bool "deadline holds goodput" true
    ((find "deadline").Experiments.ov_goodput >= 0.9 *. peak);
  check_bool "block collapses" true ((find "block").Experiments.ov_goodput < 0.9 *. peak);
  check_bool "block wastes work on late replies" true ((find "block").Experiments.ov_late > 0)

let suite =
  ( "sched",
    [
      Alcotest.test_case "validation" `Quick test_validation;
      Alcotest.test_case "fifo serial timing" `Quick test_fifo_serial_timing;
      Alcotest.test_case "pipelining beats serial bound" `Quick test_pipeline_beats_serial;
      Alcotest.test_case "delay station overlaps" `Quick test_delay_overlaps;
      Alcotest.test_case "round robin conserves work" `Quick test_round_robin_conserves_work;
      Alcotest.test_case "shed rejects when full" `Quick test_shed_rejects_when_full;
      Alcotest.test_case "block queues everything" `Quick test_block_queues_everything;
      Alcotest.test_case "deadline drops stale" `Quick test_deadline_drops_stale;
      Alcotest.test_case "shed retry backoff" `Quick test_shed_retry_backoff;
      Alcotest.test_case "block timeout wastes work" `Quick test_block_timeout_wastes_work;
      Alcotest.test_case "profile cycling" `Quick test_profile_cycling;
      Alcotest.test_case "double run identity" `Quick test_double_run_identity;
      Alcotest.test_case "sched trace attributes" `Quick test_sched_trace_attributes;
      Alcotest.test_case "single client cycle time" `Quick test_single_client_cycle_time;
      Alcotest.test_case "throughput scales then saturates" `Quick
        test_throughput_scales_then_saturates;
      Alcotest.test_case "response grows past the knee" `Quick test_response_grows_past_knee;
      Alcotest.test_case "utilisation bounded" `Quick test_utilisation_bounded;
      Alcotest.test_case "closed loop deterministic" `Quick test_closed_loop_deterministic;
      Alcotest.test_case "closed loop matches reference exactly" `Quick test_matches_reference;
      Alcotest.test_case "scale experiment shape" `Slow test_scale_experiment_shape;
      Alcotest.test_case "load experiment invariants" `Slow test_load_experiment;
    ] )
