open Common

let untrusted_station rig = Station.create ~store:rig.lz_files_client ~dirs:rig.lz_dirs ()

let transactions rig = Amoeba_sim.Stats.count (Transport.stats rig.lz_transport) "transactions"

(* Run [f] and count the RPC transactions it issued. *)
let counting_rpcs rig f =
  let before = transactions rig in
  let v = f () in
  (v, transactions rig - before)

(* ---- no-stale-byte scenarios under fault plans ---- *)

type lease_fault = {
  lf_plan : string;
  lf_reads : int;
  lf_failed : int;  (* liveness losses: Not_found after removal, exhausted retries *)
  lf_stale : int;  (* reads returning old bytes after the mutation completed — must be 0 *)
  lf_revalidations : int;  (* renew + grant RPCs the station issued *)
  lf_consistent : bool;  (* pair replicas byte-identical (and epoch agreed) at the end *)
}

(* Every scenario binds [old_data] as "f", has its station read it once,
   then mutates the binding mid-run. *)
let old_data = Bytes.make 4_096 'A'

let warm_rig () =
  let rig, station, _ = station_with_file "f" old_data in
  ignore (Station.read station ~dir:rig.lz_root "f");
  (rig, station, Clock.now rig.lz_clock)

(* Replace "f" with fresh bytes; returns the completion time. *)
let replace_f rig () =
  let cap_b = Client.create rig.lz_files_client (Bytes.make 4_096 'B') in
  ignore (Dir_client.replace rig.lz_dirs rig.lz_root "f" cap_b);
  Clock.now rig.lz_clock

(* The common reader loop: a station reads "f" every [step_us]; the
   writer mutates the binding at [mutate_at] (on the shared clock).  A
   read that completes at or after the mutation completed and still
   returns the old bytes is a stale serve — the protocol's one forbidden
   outcome.  [mutate] performs the mutation and returns the completion
   time; reads that raise count as liveness failures only. *)
let stale_read_loop ~rig ~station ~step_us ~until_us ~mutate_at ~mutate ~(poll : unit -> unit) ()
    =
  let reads = ref 0 and failed = ref 0 and stale = ref 0 in
  let mutated_at = ref max_int in
  while Clock.now rig.lz_clock < until_us do
    poll ();
    if Clock.now rig.lz_clock >= mutate_at && !mutated_at = max_int then
      mutated_at := mutate ();
    (match Station.read station ~dir:rig.lz_root "f" with
    | data ->
      incr reads;
      if Bytes.equal data old_data && Clock.now rig.lz_clock >= !mutated_at then incr stale
    | exception Status.Error _ -> incr failed);
    Clock.advance rig.lz_clock step_us
  done;
  (!reads, !failed, !stale)

let fault_report plan station (reads, failed, stale) consistent =
  let s = Station.stats station in
  {
    lf_plan = plan;
    lf_reads = reads;
    lf_failed = failed;
    lf_stale = stale;
    lf_revalidations =
      Amoeba_sim.Stats.count s "lease_renewals" + Amoeba_sim.Stats.count s "lease_grants";
    lf_consistent = consistent;
  }

(* Scenario 1: a replace racing lease expiry.  Reads are spaced so the
   mutation lands exactly while a granted lease is still outstanding —
   the directory pair must wait the horizon out before bumping. *)
let lease_fault_expiry_race () =
  let rig, station, start = warm_rig () in
  let counts =
    stale_read_loop ~rig ~station ~step_us:60_000 ~until_us:(start + 1_500_000)
      ~mutate_at:(start + 130_000) ~mutate:(replace_f rig)
      ~poll:(fun () -> ())
      ()
  in
  fault_report "expiry-races-replace" station counts (Option.is_none (Pair.divergence rig.lz_pair))

(* Scenario 2: the directory primary crashes on the epoch-bumping
   mutation and heals later from the backup's checkpoint — which must
   carry the epoch, or healed clients could trust stale leases. *)
let lease_fault_primary_crash () =
  let rig, station, start = warm_rig () in
  let crash_at = start + 125_000 and heal_at = start + 900_000 in
  let plan =
    Plan.create ~seed:0x1EA5EL
    |> fun p -> Plan.at p ~us:crash_at Plan.Server_crash
    |> fun p -> Plan.at p ~us:heal_at Plan.Server_reboot
  in
  let injector =
    Injector.attach ~transport:rig.lz_transport ~act:(pair_act rig.lz_pair)
      ~clock:rig.lz_clock plan
  in
  let counts =
    stale_read_loop ~rig ~station ~step_us:60_000 ~until_us:(start + 1_500_000)
      ~mutate_at:crash_at (* the bump lands in the crash window *)
      ~mutate:(replace_f rig)
      ~poll:(fun () -> Injector.poll injector)
      ()
  in
  Injector.poll injector;
  Injector.detach injector;
  let dump_p, dump_b = Pair.replica_dumps rig.lz_pair in
  let epochs_agree =
    match
      ( Dir_server.epoch (Pair.primary rig.lz_pair) (Dir_server.root (Pair.primary rig.lz_pair)),
        Dir_server.epoch (Pair.backup rig.lz_pair) (Dir_server.root (Pair.backup rig.lz_pair)) )
    with
    | Ok a, Ok b -> a = b
    | _ -> false
  in
  fault_report "dir-primary-crash" station counts
    (Pair.primary_alive rig.lz_pair
    && Option.is_none (Pair.divergence rig.lz_pair)
    && String.equal dump_p dump_b && epochs_agree)

(* Scenario 3: message loss while leases are being revalidated.  Reads
   are spaced past the lease term so every read needs a renewal RPC, and
   30% of messages vanish; the station's retries carry it through (or
   fail the read — a liveness loss, never a stale serve). *)
let lease_fault_loss_on_revalidate () =
  let rig, station, start = warm_rig () in
  let plan =
    Plan.create ~seed:0x10FFL
    |> fun p -> Plan.at p ~us:(start + 200_000) (Plan.Message_loss 0.3)
    |> fun p -> Plan.at p ~us:(start + 2_200_000) (Plan.Message_loss 0.)
  in
  let injector = Injector.attach ~transport:rig.lz_transport ~clock:rig.lz_clock plan in
  let counts =
    stale_read_loop ~rig ~station ~step_us:250_000 ~until_us:(start + 3_200_000)
      ~mutate_at:(start + 2_400_000) (* after the loss window clears *)
      ~mutate:(replace_f rig)
      ~poll:(fun () -> Injector.poll injector)
      ()
  in
  Injector.detach injector;
  fault_report "loss-on-revalidation" station counts (Option.is_none (Pair.divergence rig.lz_pair))

(* Scenario 4: a skewed client lease clock, scripted through the plan
   DSL (this also exercises the lease_skew grammar).  The clock jumps
   forward mid-lease, then steps backwards — the backward step must drop
   every lease.  The binding is removed after the skewing; a skewed
   client may fail reads early (liveness) but never serves after the
   removal completed. *)
let lease_fault_clock_skew () =
  let rig, station, start = warm_rig () in
  let plan_text =
    Printf.sprintf "seed 77\nat %d lease_skew 150000\nat %d lease_skew -50000\n"
      (start + 200_000) (start + 700_000)
  in
  let plan = match Plan.parse plan_text with Ok p -> p | Error e -> failwith e in
  let injector =
    Injector.attach ~transport:rig.lz_transport ~act:(skew_act station) ~clock:rig.lz_clock
      plan
  in
  let mutate () =
    Dir_client.remove_name rig.lz_dirs rig.lz_root "f";
    Clock.now rig.lz_clock
  in
  let counts =
    stale_read_loop ~rig ~station ~step_us:60_000 ~until_us:(start + 1_800_000)
      ~mutate_at:(start + 900_000) ~mutate
      ~poll:(fun () -> Injector.poll injector)
      ()
  in
  Injector.detach injector;
  let steps_back = Amoeba_sim.Stats.count (Station.stats station) "lease_clock_steps_back" in
  fault_report "lease-clock-skew" station counts
    (steps_back >= 1 && Option.is_none (Pair.divergence rig.lz_pair))

(* ---- the leased LOAD profile: what the scheduler sees ---- *)

(* Trace one warm leased read.  No transport tracer is attached, and
   none is needed: the fast path never touches the transport, which is
   the point — the trace must contain zero "rpc" spans. *)
let leased_hot_profile () =
  let rig, station, _ = station_with_file "hot" (Bytes.make 4_096 'h') in
  ignore (Station.read station ~dir:rig.lz_root "hot");
  ignore (Station.read station ~dir:rig.lz_root "hot");
  let tracer = Amoeba_trace.Trace.create ~clock:rig.lz_clock () in
  let sink = Amoeba_trace.Trace.sink tracer in
  Transport.set_tracer rig.lz_transport (Some tracer);
  Station.set_tracer station (Some tracer);
  ignore (Station.read station ~dir:rig.lz_root "hot");
  Station.set_tracer station None;
  Transport.set_tracer rig.lz_transport None;
  let spans = Amoeba_trace.Sink.spans sink in
  let profile, lpr = Load.load_profile_of_spans ~cls:"leased.read" ~disk:(`Arm 0) spans in
  (profile, lpr, Amoeba_trace.Attrib.rpc_count spans)

type lease_report = {
  le_cold_rpcs : int;  (** first read: lease grant + SIZE + READ *)
  le_warm_reads : int;
  le_warm_rpcs : int;  (** across all warm reads — must be 0 *)
  le_warm_read_us : int;  (** one warm read: local verify + memcpy only *)
  le_trusted_hit_us : int;
  le_untrusted_hit_us : int;
  le_untrusted_hit_rpcs : int;  (** the verification round trip *)
  le_renew_rpcs : int;  (** read after expiry: the one cheap epoch check *)
  le_forged_rejected : bool;  (** forged check field fails local verification *)
  le_faults : lease_fault list;
  le_hot_profile : Load.load_profile;
  le_hot_rpc_count : int;  (** "rpc" spans in the traced warm read — must be 0 *)
  le_baseline_hot : Load.load_profile;
  le_baseline_knee : float;
  le_baseline_knee_throughput : float;
  le_leased_knee : float;
  le_leased_knee_throughput : float;
  le_server_evicted_bytes : int;  (** under pressure, from the server RAM cache *)
  le_client_evicted_bytes : int;  (** same counter, client side *)
}

(* Memory pressure on both ends: small server and client caches, a
   working set that fits in neither. Both caches evict, and both account
   the displaced data under the same [bytes_evicted] counter, so a bench
   can put the two eviction streams side by side. *)
let lease_cache_pressure () =
  let clock = Clock.create () in
  let transport = Transport.create ~clock in
  let config =
    { Server.default_config with Server.cache_bytes = 96 * 1024; max_cached_files = 4 }
  in
  let server =
    Server.boot ~config ~seed:33L ~clock ~id:"lp" ~sectors:testbed_sectors ~max_files:256 ()
  in
  Bullet_core.Proto.serve server transport;
  let store = Client.connect transport (Server.port server) in
  let dirs = Dir_server.create ~config:lease_dir_config ~store () in
  Amoeba_dir.Dir_proto.serve dirs transport;
  let dclient = Dir_client.connect transport (Dir_server.port dirs) in
  let station =
    Station.create
      ~config:{ Station.cache_bytes = 96 * 1024 }
      ~sealer:(Server.sealer server) ~store ~dirs:dclient ()
  in
  let root = Dir_server.root dirs in
  for i = 0 to 9 do
    let cap = Client.create store (Bytes.make 16_384 (Char.chr (Char.code 'a' + i))) in
    Dir_client.enter dclient root (Printf.sprintf "f%d" i) cap
  done;
  for _round = 1 to 2 do
    for i = 0 to 9 do
      ignore (Station.read station ~dir:root (Printf.sprintf "f%d" i))
    done
  done;
  ( Server.cache_bytes_evicted server,
    Amoeba_lease.File_cache.bytes_evicted (Station.cache station) )

let assert_lease_invariants r =
  let check = invariant "lease experiment" in
  check "warm leased reads issue zero RPCs" (r.le_warm_rpcs = 0 && r.le_warm_reads > 0);
  check "warm leased read spends no network time (sub-millisecond)" (r.le_warm_read_us < 1_000);
  check "traced leased read contains zero rpc spans" (r.le_hot_rpc_count = 0);
  check "cold read pays the lease grant and the fetch" (r.le_cold_rpcs >= 3);
  check "untrusted hit pays exactly one verification RPC" (r.le_untrusted_hit_rpcs = 1);
  check "trusted hit is faster than untrusted hit" (r.le_trusted_hit_us < r.le_untrusted_hit_us);
  check "expired lease revalidates with one RPC" (r.le_renew_rpcs = 1);
  check "forged capability rejected locally" r.le_forged_rejected;
  check "at least three fault scenarios" (List.length r.le_faults >= 3);
  List.iter
    (fun f ->
      check (f.lf_plan ^ ": no stale serve, ever") (f.lf_stale = 0);
      check (f.lf_plan ^ ": reads actually ran") (f.lf_reads > 0);
      check (f.lf_plan ^ ": replicas consistent") f.lf_consistent)
    r.le_faults;
  check "dir-primary crash scenario present"
    (List.exists (fun f -> String.equal f.lf_plan "dir-primary-crash") r.le_faults);
  check "leased clients move the LOAD knee right"
    (r.le_leased_knee_throughput > r.le_baseline_knee_throughput);
  check "server cache evicted bytes under pressure" (r.le_server_evicted_bytes > 0);
  check "client cache evicted bytes under pressure" (r.le_client_evicted_bytes > 0)

let lease_experiment () =
  (* phase A: zero-RPC warm reads on a trusted station *)
  let rig, station, cap = station_with_file "hot" (Bytes.make 4_096 'h') in
  let _, cold_rpcs = counting_rpcs rig (fun () -> Station.read station ~dir:rig.lz_root "hot") in
  let warm_reads = 10 in
  let warm_t0 = Clock.now rig.lz_clock in
  let _, warm_rpcs =
    counting_rpcs rig (fun () ->
        for _ = 1 to warm_reads do
          ignore (Station.read station ~dir:rig.lz_root "hot")
        done)
  in
  let warm_read_us = (Clock.now rig.lz_clock - warm_t0) / warm_reads in
  let trusted_hit_us = time rig.lz_clock (fun () -> ignore (Station.read station ~dir:rig.lz_root "hot")) in
  (* phase B: the untrusted path is unchanged — one verification RPC *)
  let ustation = untrusted_station rig in
  ignore (Station.read ustation ~dir:rig.lz_root "hot");
  let (_, untrusted_hit_rpcs), untrusted_hit_us =
    let r = ref (Bytes.empty, 0) in
    let us =
      time rig.lz_clock (fun () ->
          r := counting_rpcs rig (fun () -> Station.read ustation ~dir:rig.lz_root "hot"))
    in
    (!r, us)
  in
  let forged =
    let sealer = Server.sealer rig.lz_files in
    let bad = Cap.v ~port:cap.Cap.port ~obj:cap.Cap.obj ~rights:cap.Cap.rights
        ~check:(Int64.add cap.Cap.check 1L)
    in
    Sealer.verify_local sealer ~cap && not (Sealer.verify_local sealer ~cap:bad)
  in
  (* a lapsed lease costs exactly one renewal RPC before the cached serve *)
  Clock.advance rig.lz_clock (2 * lease_dir_config.Dir_server.lease_us);
  let _, renew_rpcs = counting_rpcs rig (fun () -> Station.read station ~dir:rig.lz_root "hot") in
  (* phase C: fault plans *)
  let faults =
    [
      lease_fault_expiry_race ();
      lease_fault_primary_crash ();
      lease_fault_loss_on_revalidate ();
      lease_fault_clock_skew ();
    ]
  in
  (* phase D: the LOAD knee with leased clients *)
  let (hot, hot_lpr), (cold, _), (create, _) = Load.bullet_load_profiles () in
  let leased_hot, leased_lpr, hot_rpc_count = leased_hot_profile () in
  let knee_of hot =
    Load.knee_point
      (Load.load_config ~arms:2 ~profiles:(Load.bullet_mix (hot, cold, create)) ~clients:1
         ~think_us:50_000 ~requests_per_client:40 ~overload:Sched.no_overload)
  in
  let baseline_knee, baseline_tp = knee_of hot in
  let leased_knee, leased_tp = knee_of leased_hot in
  let server_evicted, client_evicted = lease_cache_pressure () in
  let report =
    {
      le_cold_rpcs = cold_rpcs;
      le_warm_reads = warm_reads;
      le_warm_rpcs = warm_rpcs;
      le_warm_read_us = warm_read_us;
      le_trusted_hit_us = trusted_hit_us;
      le_untrusted_hit_us = untrusted_hit_us;
      le_untrusted_hit_rpcs = untrusted_hit_rpcs;
      le_renew_rpcs = renew_rpcs;
      le_forged_rejected = forged;
      le_faults = faults;
      le_hot_profile = leased_lpr;
      le_hot_rpc_count = hot_rpc_count;
      le_baseline_hot = hot_lpr;
      le_baseline_knee = baseline_knee;
      le_baseline_knee_throughput = baseline_tp;
      le_leased_knee = leased_knee;
      le_leased_knee_throughput = leased_tp;
      le_server_evicted_bytes = server_evicted;
      le_client_evicted_bytes = client_evicted;
    }
  in
  assert_lease_invariants report;
  report

let lease_trace () =
  let rig, station, _ = station_with_file ~traced:true "f" old_data in
  let tracer = Option.get (Transport.tracer rig.lz_transport) in
  ignore (Station.read station ~dir:rig.lz_root "f");
  (* two zero-RPC hits *)
  ignore (Station.read station ~dir:rig.lz_root "f");
  ignore (Station.read station ~dir:rig.lz_root "f");
  (* lapse the lease: expire + renew, then serve from cache *)
  Clock.advance rig.lz_clock (2 * lease_dir_config.Dir_server.lease_us);
  ignore (Station.read station ~dir:rig.lz_root "f");
  (* replace: next revalidation sees the epoch move and revokes *)
  ignore (replace_f rig ());
  Clock.advance rig.lz_clock (2 * lease_dir_config.Dir_server.lease_us);
  ignore (Station.read station ~dir:rig.lz_root "f");
  (* removal: the read fails after revalidation, leaving a raised span *)
  Dir_client.remove_name rig.lz_dirs rig.lz_root "f";
  Clock.advance rig.lz_clock (2 * lease_dir_config.Dir_server.lease_us);
  (try ignore (Station.read station ~dir:rig.lz_root "f")
   with Status.Error _ -> ());
  Station.set_tracer station None;
  Server.set_tracer rig.lz_files None;
  Transport.set_tracer rig.lz_transport None;
  Amoeba_trace.Trace.sink tracer

let lease_json r =
  let fault f =
    json_obj
      [
        ("plan", json_str f.lf_plan);
        ("reads", string_of_int f.lf_reads);
        ("failed", string_of_int f.lf_failed);
        ("stale", string_of_int f.lf_stale);
        ("revalidations", string_of_int f.lf_revalidations);
        ("consistent", string_of_bool f.lf_consistent);
      ]
  in
  json_obj
    [
      ("cold_rpcs", string_of_int r.le_cold_rpcs);
      ("warm_reads", string_of_int r.le_warm_reads);
      ("warm_rpcs", string_of_int r.le_warm_rpcs);
      ("warm_read_us", string_of_int r.le_warm_read_us);
      ("trusted_hit_us", string_of_int r.le_trusted_hit_us);
      ("untrusted_hit_us", string_of_int r.le_untrusted_hit_us);
      ("untrusted_hit_rpcs", string_of_int r.le_untrusted_hit_rpcs);
      ("renew_rpcs", string_of_int r.le_renew_rpcs);
      ("forged_rejected", string_of_bool r.le_forged_rejected);
      ("faults", json_arr (List.map fault r.le_faults));
      ("hot_profile", Load.profile_json r.le_hot_profile);
      ("hot_rpc_count", string_of_int r.le_hot_rpc_count);
      ("baseline_hot_profile", Load.profile_json r.le_baseline_hot);
      ("baseline_knee_clients", json_float r.le_baseline_knee);
      ("baseline_knee_throughput_per_sec", json_float r.le_baseline_knee_throughput);
      ("leased_knee_clients", json_float r.le_leased_knee);
      ("leased_knee_throughput_per_sec", json_float r.le_leased_knee_throughput);
      ("server_evicted_bytes", string_of_int r.le_server_evicted_bytes);
      ("client_evicted_bytes", string_of_int r.le_client_evicted_bytes);
    ]

let run () =
  header "LEASE - zero-RPC reads: local verification + leased client caching";
  let r = lease_experiment () in
  Printf.printf "\nRPCs per read on a trusted station (holds the server's sealer):\n";
  Printf.printf "  %-34s %6s %12s\n" "operation" "RPCs" "latency us";
  Printf.printf "  %-34s %6d %12s\n" "cold read (grant + SIZE + READ)" r.le_cold_rpcs "-";
  Printf.printf "  %-34s %6d %12d\n"
    (Printf.sprintf "warm read x%d (leased cache hit)" r.le_warm_reads)
    r.le_warm_rpcs r.le_warm_read_us;
  Printf.printf "  %-34s %6d %12d\n" "warm read, untrusted station" r.le_untrusted_hit_rpcs
    r.le_untrusted_hit_us;
  Printf.printf "  %-34s %6d %12s\n" "read after lease expiry (renew)" r.le_renew_rpcs "-";
  Printf.printf "  forged check field rejected locally: %s\n"
    (if r.le_forged_rejected then "yes" else "NO");
  Printf.printf "\nFault plans (stale must be 0 everywhere):\n";
  Printf.printf "  %-24s %6s %7s %6s %8s %11s\n" "plan" "reads" "failed" "stale" "revalid"
    "consistent";
  List.iter
    (fun f ->
      Printf.printf "  %-24s %6d %7d %6d %8d %11s\n" f.lf_plan f.lf_reads f.lf_failed
        f.lf_stale f.lf_revalidations
        (if f.lf_consistent then "yes" else "NO"))
    r.le_faults;
  Printf.printf "\nHot-read demand profile (us per station; rpc spans in trace: %d):\n"
    r.le_hot_rpc_count;
  Load.print_profile "plain RPC" r.le_baseline_hot;
  Load.print_profile "leased" r.le_hot_profile;
  Printf.printf "\nLOAD knee, same mix with the hot class leased:\n";
  Printf.printf "  %-10s %14s %16s\n" "" "knee clients" "throughput req/s";
  Printf.printf "  %-10s %14.1f %16.1f\n" "baseline" r.le_baseline_knee
    r.le_baseline_knee_throughput;
  Printf.printf "  %-10s %14.1f %16.1f\n" "leased" r.le_leased_knee
    r.le_leased_knee_throughput;
  Printf.printf "\nEviction traffic under memory pressure (same counter, both ends):\n";
  Printf.printf "  %-14s %10s\n" "cache" "bytes";
  Printf.printf "  %-14s %10d\n" "server RAM" r.le_server_evicted_bytes;
  Printf.printf "  %-14s %10d\n" "client leased" r.le_client_evicted_bytes;
  Printf.printf "  machine-readable copy written to BENCH_lease.json\n";
  [ lease_json r ^ "\n" ]
