open Common

(* Station indexes shared by both server models; the NFS model simply
   never routes work to the second arm. *)
let st_cpu = 0

let st_net = 1

let st_arm0 = 2

let st_arm1 = 3

let load_station_names = [| "cpu"; "net"; "arm0"; "arm1" |]

(* The CPU round-robins between requests (the real server is threaded);
   the wire and each mirrored drive arm serve one transfer at a time. *)
let load_stations ~arms =
  [
    Sched.station "cpu" ~layer:Amoeba_trace.Sink.Cpu (Sched.Round_robin 1_000);
    Sched.station "net" ~layer:Amoeba_trace.Sink.Net Sched.Fifo;
  ]
  @ List.init arms (fun i ->
        Sched.station load_station_names.(st_arm0 + i) ~layer:Amoeba_trace.Sink.Disk Sched.Fifo)

type load_profile = {
  lpr_class : string;
  lpr_segments : (string * int) list;  (** (station name, µs), in request order *)
  lpr_traced_us : int;  (** attributed end-to-end time of the traced op *)
}

type load_point = {
  lp_clients : int;
  lp_throughput : float;
  lp_mean_ms : float;
  lp_p50_ms : float;
  lp_p95_ms : float;
  lp_p99_ms : float;
  lp_util : (string * float) list;
}

type overload_point = {
  ov_policy : string;
  ov_goodput : float;
  ov_p99_ms : float;
  ov_offered : int;
  ov_completed : int;
  ov_failed : int;
  ov_shed : int;
  ov_deadline_misses : int;
  ov_abandoned : int;
  ov_retried : int;
  ov_late : int;
}

type server_load = {
  sl_name : string;
  sl_profiles : load_profile list;
  sl_knee : float;
  sl_serial_cap_per_sec : float;  (** one-at-a-time upper bound *)
  sl_knee_throughput : float;  (** measured, clients = ceil knee *)
  sl_points : load_point list;
}

type load_report = {
  lr_bullet : server_load;
  lr_nfs : server_load;
  lr_overload_clients : int;
  lr_peak_goodput : float;
  lr_overload : overload_point list;
}

(* Convert one traced operation's attribution segments into scheduler
   demands.  Net time goes to the wire station, disk time to a drive arm
   (a fixed arm for reads, alternating for the mirrored writes of
   create), and everything else — CPU, cache memcpy, alloc, server and
   client self-time — to the CPU station.  Every microsecond of the
   trace lands on exactly one station, so the segment sum equals the
   attributed end-to-end time by construction. *)
let profile_of_segments ~disk segs =
  let next_arm = ref st_arm0 in
  let station_of = function
    | Amoeba_trace.Sink.Net -> st_net
    | Amoeba_trace.Sink.Disk -> (
      match disk with
      | `Arm i -> st_arm0 + i
      | `Alternate ->
        let a = !next_arm in
        next_arm := if a = st_arm0 then st_arm1 else st_arm0;
        a)
    | Amoeba_trace.Sink.Cpu | Amoeba_trace.Sink.Cache | Amoeba_trace.Sink.Alloc
    | Amoeba_trace.Sink.Server | Amoeba_trace.Sink.Client ->
      st_cpu
  in
  List.fold_left
    (fun acc (layer, us) ->
      let st = station_of layer in
      match acc with
      | (prev, sum) :: tl when prev = st -> (prev, sum + us) :: tl
      | _ -> (st, us) :: acc)
    [] segs
  |> List.rev

let load_profile_of_spans ~cls ~disk spans =
  let traced_us = (Amoeba_trace.Attrib.of_spans spans).Amoeba_trace.Attrib.total_us in
  let segments = profile_of_segments ~disk (Amoeba_trace.Attrib.segments spans) in
  let segment_sum = List.fold_left (fun acc (_, us) -> acc + us) 0 segments in
  if segment_sum <> traced_us then
    failwith
      (Printf.sprintf "load: %s profile sums to %d us but the trace attributes %d us" cls
         segment_sum traced_us);
  ( { Sched.pr_name = cls; pr_segments = segments },
    {
      lpr_class = cls;
      lpr_segments = List.map (fun (st, us) -> (load_station_names.(st), us)) segments;
      lpr_traced_us = traced_us;
    } )

(* Trace the real Bullet server once per operation class.  A small cache
   makes the cold-read class honest: two 64 KB fillers evict the target
   between create and read. *)
let bullet_load_profiles () =
  let config = { Server.default_config with Server.cache_bytes = 160 * 1024; max_cached_files = 8 } in
  let traced ~cls ~disk f =
    let bed = make_bullet_bed ~config () in
    let tracer = Amoeba_trace.Trace.create ~clock:bed.b_clock () in
    let sink = Amoeba_trace.Trace.sink tracer in
    let measured = f bed in
    Transport.set_tracer (Client.transport bed.b_client) (Some tracer);
    Server.set_tracer bed.b_server (Some tracer);
    measured ();
    Transport.set_tracer (Client.transport bed.b_client) None;
    Server.set_tracer bed.b_server None;
    load_profile_of_spans ~cls ~disk (Amoeba_trace.Sink.spans sink)
  in
  let hot =
    traced ~cls:"read4k" ~disk:(`Arm 0) (fun bed ->
        let cap = Client.create bed.b_client (Bytes.make 4_096 'h') in
        ignore (Client.read bed.b_client cap);
        fun () -> ignore (Client.read bed.b_client cap))
  in
  let cold =
    traced ~cls:"read64k" ~disk:(`Arm 0) (fun bed ->
        let target = Client.create bed.b_client (Bytes.make 65_536 'c') in
        (* evict the target so the traced read pays the disk *)
        let f1 = Client.create bed.b_client (Bytes.make 65_536 '1') in
        let f2 = Client.create bed.b_client (Bytes.make 65_536 '2') in
        ignore (Client.read bed.b_client f1);
        ignore (Client.read bed.b_client f2);
        fun () -> ignore (Client.read bed.b_client target))
  in
  let create =
    traced ~cls:"create64k" ~disk:`Alternate (fun bed ->
        let data = Bytes.make 65_536 'w' in
        fun () -> ignore (Client.create bed.b_client data))
  in
  (hot, cold, create)

(* Same protocol against the NFS baseline.  The NFS server itself emits
   no spans, so its CPU shows up as root self-time ([Server] layer); the
   transport and the traced block device supply the net and disk
   segments. *)
let nfs_load_profiles () =
  let traced ~cls ~disk f =
    let { n_clock = clock; n_dev = dev; n_transport = transport; n_server = server; n_client = client } =
      make_nfs_bed ()
    in
    let tracer = Amoeba_trace.Trace.create ~clock () in
    let sink = Amoeba_trace.Trace.sink tracer in
    let measured = f server client in
    Transport.set_tracer transport (Some tracer);
    Dev.set_tracer dev (Some tracer);
    measured ();
    Transport.set_tracer transport None;
    Dev.set_tracer dev None;
    load_profile_of_spans ~cls ~disk (Amoeba_trace.Sink.spans sink)
  in
  let hot =
    traced ~cls:"read4k" ~disk:(`Arm 0) (fun _server client ->
        let fh = Nfs_client.create client in
        Nfs_client.write_file client fh (Bytes.make 4_096 'h');
        ignore (Nfs_client.read_at client fh ~off:0 ~len:4_096);
        fun () -> ignore (Nfs_client.read_at client fh ~off:0 ~len:4_096))
  in
  let cold =
    traced ~cls:"read64k" ~disk:(`Arm 0) (fun server client ->
        let fh = Nfs_client.create client in
        Nfs_client.write_file client fh (Bytes.make 65_536 'c');
        Nfs.age_cache server;
        Nfs.age_cache server;
        fun () -> ignore (Nfs_client.read_file client fh ~size:65_536))
  in
  let create =
    traced ~cls:"create64k" ~disk:(`Arm 0) (fun _server client ->
        let data = Bytes.make 65_536 'w' in
        fun () ->
          let fh = Nfs_client.create client in
          Nfs_client.write_file client fh data)
  in
  (hot, cold, create)

let load_config ~arms ~profiles ~clients ~think_us ~requests_per_client ~overload =
  {
    Sched.stations = load_stations ~arms;
    profiles;
    clients;
    think_us;
    requests_per_client;
    overload;
  }

(* The client mix: hot reads, cold reads against each arm, creates.
   Duplicating the cold-read profile with its disk demand on the other
   arm is how the simulation spreads mirrored-read traffic the way the
   real server's balanced mirror does. *)
let bullet_mix (hot, cold, create) =
  let on_other_arm p =
    {
      Sched.pr_name = p.Sched.pr_name ^ "-arm1";
      pr_segments =
        List.map
          (fun (st, us) -> ((if st = st_arm0 then st_arm1 else st), us))
          p.Sched.pr_segments;
    }
  in
  [ hot; cold; on_other_arm cold; create ]

let nfs_mix (hot, cold, create) = [ hot; cold; create ]

let run_load_point config clients =
  let r = Sched.run { config with Sched.clients } in
  {
    lp_clients = clients;
    lp_throughput = r.Sched.throughput_per_sec;
    lp_mean_ms = r.Sched.mean_response_ms;
    lp_p50_ms = r.Sched.p50_response_ms;
    lp_p95_ms = r.Sched.p95_response_ms;
    lp_p99_ms = r.Sched.p99_response_ms;
    lp_util =
      List.map (fun s -> (s.Sched.sr_name, s.Sched.utilisation)) r.Sched.station_reports;
  }

(* The analytic saturation population and the throughput measured there. *)
let knee_point config =
  let knee = Sched.saturation_clients config in
  (knee, (run_load_point config (max 1 (int_of_float (ceil knee)))).lp_throughput)

let load_overload_policies = [ ("block", Sched.Block); ("shed", Sched.Shed) ]

let assert_load_invariants r =
  let check = invariant "load experiment" in
  List.iter
    (fun sl ->
      List.iter
        (fun p ->
          let sum = List.fold_left (fun acc (_, us) -> acc + us) 0 p.lpr_segments in
          check
            (Printf.sprintf "%s/%s profile sum = traced time" sl.sl_name p.lpr_class)
            (sum = p.lpr_traced_us))
        sl.sl_profiles)
    [ r.lr_bullet; r.lr_nfs ];
  (* (a) concurrency: at the knee the multi-station runtime beats the
     serial one-request-at-a-time bound *)
  check "bullet knee throughput exceeds the serial bound"
    (r.lr_bullet.sl_knee_throughput > r.lr_bullet.sl_serial_cap_per_sec);
  let find name = List.find (fun p -> String.equal p.ov_policy name) r.lr_overload in
  let block = find "block" and shed = find "shed" and deadline = find "deadline" in
  (* (b) overload: shedding keeps goodput at the peak, blocking collapses *)
  check "shed goodput within 10% of peak" (shed.ov_goodput >= 0.9 *. r.lr_peak_goodput);
  check "deadline goodput within 10% of peak"
    (deadline.ov_goodput >= 0.9 *. r.lr_peak_goodput);
  check "block goodput degrades below 90% of peak"
    (block.ov_goodput < 0.9 *. r.lr_peak_goodput);
  check "block goodput below shed goodput" (block.ov_goodput < shed.ov_goodput)

let load_experiment () =
  let client_counts = [ 1; 2; 4; 8; 16; 32; 64 ] and think_ms = 50 and requests_per_client = 40 in
  let think_us = think_ms * 1000 in
  let bullet_parts = bullet_load_profiles () in
  let nfs_parts = nfs_load_profiles () in
  let describe (a, b, c) = [ a; b; c ] in
  let server name ~arms mix parts =
    let profiles = mix (let (a, _), (b, _), (c, _) = parts in (a, b, c)) in
    let config =
      load_config ~arms ~profiles ~clients:1 ~think_us ~requests_per_client
        ~overload:Sched.no_overload
    in
    let knee, knee_throughput = knee_point config in
    {
      sl_name = name;
      sl_profiles = List.map snd (describe parts);
      sl_knee = knee;
      sl_serial_cap_per_sec = Sched.serial_throughput_per_sec config;
      sl_knee_throughput = knee_throughput;
      sl_points = List.map (run_load_point config) client_counts;
    }
  in
  let bullet = server "bullet" ~arms:2 bullet_mix bullet_parts in
  let nfs = server "nfs" ~arms:1 nfs_mix nfs_parts in
  (* Overload: drive the Bullet configuration at twice its saturation
     population with a bounded accept queue and retrying clients.  Under
     Block the abandoned-but-still-queued work turns into late
     completions and goodput collapses; Shed and Deadline keep goodput at
     the admitted-work ceiling. *)
  let bullet_profiles =
    bullet_mix (let (a, _), (b, _), (c, _) = bullet_parts in (a, b, c))
  in
  let peak_goodput =
    List.fold_left (fun acc p -> Float.max acc p.lp_throughput) 0. bullet.sl_points
  in
  (* Saturation in the measured curve, not the analytic knee: the
     smallest swept population within 5% of peak.  The analytic knee uses
     mean demands, so with a mixed workload the curve keeps climbing for
     a while past it. *)
  let saturation_pop =
    match
      List.find_opt (fun p -> p.lp_throughput >= 0.95 *. peak_goodput) bullet.sl_points
    with
    | Some p -> p.lp_clients
    | None -> List.length client_counts
  in
  (* The accept limit is the concurrency that reaches peak throughput,
     so admission control binds without starving the bottleneck.  Client
     patience must then exceed the in-service response at that
     concurrency (~8 x the 78 ms bottleneck demand) or admitted requests
     abandon too; 2 s is comfortably above it and below the unbounded
     queue waits Block builds up at the overload population. *)
  let patience_us = 2_000_000 in
  (* The overload population: the smallest swept one at least twice
     saturation whose plain-sweep mean response exceeds the patience, so
     unbounded queueing really does outlast the clients. *)
  let overload_clients =
    match
      List.find_opt
        (fun p ->
          p.lp_clients >= 2 * saturation_pop
          && p.lp_mean_ms *. 1000. > float_of_int patience_us)
        bullet.sl_points
    with
    | Some p -> p.lp_clients
    | None -> max 2 (2 * saturation_pop)
  in
  let retry = Backoff.policy ~attempts:4 ~timeout_us:patience_us ~backoff_us:50_000 in
  let overload_point (name, policy) =
    let overload = { Sched.accept_limit = 8; policy; retry = Some retry } in
    let r =
      Sched.run
        (load_config ~arms:2 ~profiles:bullet_profiles ~clients:overload_clients ~think_us
           ~requests_per_client ~overload)
    in
    {
      ov_policy = name;
      ov_goodput = r.Sched.throughput_per_sec;
      ov_p99_ms = r.Sched.p99_response_ms;
      ov_offered = r.Sched.offered;
      ov_completed = r.Sched.completed;
      ov_failed = r.Sched.failed;
      ov_shed = r.Sched.shed_count;
      ov_deadline_misses = r.Sched.deadline_misses;
      ov_abandoned = r.Sched.abandoned;
      ov_retried = r.Sched.retried;
      ov_late = r.Sched.late;
    }
  in
  let overload =
    List.map overload_point
      (load_overload_policies @ [ ("deadline", Sched.Deadline 300_000) ])
  in
  let report =
    {
      lr_bullet = bullet;
      lr_nfs = nfs;
      lr_overload_clients = overload_clients;
      lr_peak_goodput = peak_goodput;
      lr_overload = overload;
    }
  in
  assert_load_invariants report;
  report

(* A small overloaded run with the tracer on, the input for
   [bullet_trace --sched]. *)
let load_sched_trace () =
  let (hot, _), (cold, _), (create, _) = bullet_load_profiles () in
  let profiles = bullet_mix (hot, cold, create) in
  (* Patience must clear the 233 ms create profile or only the 4 KB reads
     could ever complete; the tight deadline still drops plenty, so the
     trace shows ok, late, deadline and abandon outcomes side by side. *)
  let retry = Backoff.policy ~attempts:3 ~timeout_us:500_000 ~backoff_us:20_000 in
  let config =
    load_config ~arms:2 ~profiles ~clients:12 ~think_us:20_000 ~requests_per_client:6
      ~overload:{ Sched.accept_limit = 4; policy = Sched.Deadline 150_000; retry = Some retry }
  in
  let sink = Amoeba_trace.Sink.create () in
  let report = Sched.run ~sink config in
  (sink, report)

let profile_json p =
  json_obj
    [
      ("class", json_str p.lpr_class);
      ("traced_us", string_of_int p.lpr_traced_us);
      ( "segments",
        json_arr
          (List.map
             (fun (st, us) -> json_obj [ ("station", json_str st); ("us", string_of_int us) ])
             p.lpr_segments) );
    ]

let print_profile label p =
  Printf.printf "  %-10s %8d us  =  %s\n" label p.lpr_traced_us
    (String.concat " + " (List.map (fun (st, us) -> Printf.sprintf "%s:%d" st us) p.lpr_segments))

let load_json r =
  let point p =
    json_obj
      [
        ("clients", string_of_int p.lp_clients);
        ("throughput_per_sec", json_float p.lp_throughput);
        ("mean_ms", json_float p.lp_mean_ms);
        ("p50_ms", json_float p.lp_p50_ms);
        ("p95_ms", json_float p.lp_p95_ms);
        ("p99_ms", json_float p.lp_p99_ms);
        ( "utilisation",
          json_obj (List.map (fun (st, u) -> (st, json_float u)) p.lp_util) );
      ]
  in
  let server s =
    json_obj
      [
        ("name", json_str s.sl_name);
        ("knee_clients", json_float s.sl_knee);
        ("serial_cap_per_sec", json_float s.sl_serial_cap_per_sec);
        ("knee_throughput_per_sec", json_float s.sl_knee_throughput);
        ("profiles", json_arr (List.map profile_json s.sl_profiles));
        ("points", json_arr (List.map point s.sl_points));
      ]
  in
  let overload o =
    json_obj
      [
        ("policy", json_str o.ov_policy);
        ("goodput_per_sec", json_float o.ov_goodput);
        ("p99_ms", json_float o.ov_p99_ms);
        ("offered", string_of_int o.ov_offered);
        ("completed", string_of_int o.ov_completed);
        ("failed", string_of_int o.ov_failed);
        ("shed", string_of_int o.ov_shed);
        ("deadline_misses", string_of_int o.ov_deadline_misses);
        ("abandoned", string_of_int o.ov_abandoned);
        ("retried", string_of_int o.ov_retried);
        ("late", string_of_int o.ov_late);
      ]
  in
  json_obj
    [
      ("bullet", server r.lr_bullet);
      ("nfs", server r.lr_nfs);
      ("overload_clients", string_of_int r.lr_overload_clients);
      ("peak_goodput_per_sec", json_float r.lr_peak_goodput);
      ("overload", json_arr (List.map overload r.lr_overload));
    ]

let run () =
  header "LOAD - concurrent-server scaling and overload control";
  let r = load_experiment () in
  let server s =
    Printf.printf "\n%s: demand profiles traced from the real server (us per station):\n"
      s.sl_name;
    List.iter (fun p -> print_profile p.lpr_class p) s.sl_profiles;
    Printf.printf
      "  analytic knee %.1f clients; serial bound %.1f req/s; measured at knee %.1f req/s\n"
      s.sl_knee s.sl_serial_cap_per_sec s.sl_knee_throughput;
    Printf.printf "  %-8s %10s %9s %9s %9s %9s   %s\n" "clients" "req/s" "mean ms" "p50 ms"
      "p95 ms" "p99 ms" "utilisation";
    List.iter
      (fun p ->
        Printf.printf "  %6d %12.1f %9.1f %9.1f %9.1f %9.1f   %s\n" p.lp_clients
          p.lp_throughput p.lp_mean_ms p.lp_p50_ms p.lp_p95_ms p.lp_p99_ms
          (String.concat " "
             (List.map (fun (st, u) -> Printf.sprintf "%s=%.2f" st u) p.lp_util)))
      s.sl_points
  in
  server r.lr_bullet;
  server r.lr_nfs;
  Printf.printf
    "\nOverload: %d clients (>= 2x measured saturation, mean response over\n\
     the 2 s patience) on bullet, accept limit 8,\n\
     retrying clients (4 attempts, 2 s patience, 50 ms doubling backoff):\n"
    r.lr_overload_clients;
  Printf.printf "  %-9s %11s %9s %8s %10s %7s %6s %6s %8s %7s %6s\n" "policy" "goodput/s"
    "p99 ms" "offered" "completed" "failed" "shed" "miss" "abandon" "retry" "late";
  List.iter
    (fun o ->
      Printf.printf "  %-9s %11.1f %9.1f %8d %10d %7d %6d %6d %8d %7d %6d\n" o.ov_policy
        o.ov_goodput o.ov_p99_ms o.ov_offered o.ov_completed o.ov_failed o.ov_shed
        o.ov_deadline_misses o.ov_abandoned o.ov_retried o.ov_late)
    r.lr_overload;
  Printf.printf
    "  peak goodput over the plain sweep      %12.1f req/s\n\
    \  (claims: knee throughput beats the serial bound; Shed and Deadline\n\
    \   hold goodput within 10%% of peak under overload; Block + retries\n\
    \   collapses into late work - checked by the experiment's assertions)\n"
    r.lr_peak_goodput;
  Printf.printf "  machine-readable copy written to BENCH_load.json\n";
  [ load_json r ^ "\n" ]
