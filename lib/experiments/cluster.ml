open Common

module Cluster = Amoeba_cluster.Cluster
module Cluster_ring = Amoeba_cluster.Ring

(* The episode's fixed cast: 48 objects over the default 64-shard space,
   three servers in two regions, two more joining mid-run (two joins can
   replace BOTH members of a group, which is what forces fall-through
   routing — a single membership change always keeps one old owner, so
   one join alone can never orphan a group) and one of the originals
   scripted to die mid-migration, leaving N = 4 live. *)
let cluster_keys = List.init 48 (fun i -> Printf.sprintf "obj-%03d" i)

let cluster_payload i =
  Bytes.make (512 + (97 * i mod 1_536)) (Char.chr (Char.code 'a' + (i mod 26)))

(* Virtual time after the join at which the plan kills [bee] — tuned to
   land while the join delta is still draining, which the invariants
   then pin. *)
let cluster_kill_offset = 4_000_000

(* Three servers in two regions.  Their bootstrap deltas cover only empty
   shards; draining them lets a later join start from a clean map. *)
let boot_three () =
  let c = Cluster.create () in
  List.iter
    (fun (name, region) -> Cluster.add_server c ~name ~region)
    [ ("ant", "west"); ("bee", "west"); ("cow", "east") ];
  ignore (Cluster.rebalance c);
  c

let shard_moved ~before ~after i =
  Cluster_ring.owners before ~r:Cluster.replicas (Cluster.shard_key i)
  <> Cluster_ring.owners after ~r:Cluster.replicas (Cluster.shard_key i)

(* Shards whose owner group differs between two rings. *)
let ring_delta ~before ~after =
  List.length (List.filter (shard_moved ~before ~after) (List.init Cluster.shards Fun.id))

type cluster_report = {
  cl_scenario : metrics_scenario;
  cl_objects : int;
  cl_live_servers : int;
  cl_join_delta : int;  (** dirty shards right after the two joins *)
  cl_join_expected : int;  (** ring-computed delta — must match exactly *)
  cl_untouched : int;  (** keys whose shard the whole episode never disturbed *)
  cl_untouched_moved : int;  (** of those, holders changed — must be 0 *)
  cl_kill_fired : bool;  (** the scripted [shard_kill] fired while rebalancing *)
  cl_polled_reads : int;  (** foreground reads issued during the episode *)
  cl_unreadable : int;  (** reads that failed or returned wrong bytes — must be 0 *)
  cl_fallthroughs : int;
  cl_read_repairs : int;
  cl_migrated : int;  (** objects copied by the rebalancer *)
  cl_under_peak : int;  (** worst under-replication seen after the kill *)
  cl_under_final : int;  (** must be 0 after the heal *)
  cl_spread : int * int;  (** min/max live copies per key at the end — must be (R, R) *)
  cl_checkpoint : string;  (** canonical cluster-directory dump *)
  cl_checkpoint_parses : bool;
  cl_double_run_identical : bool;  (** second full run, byte-identical checkpoint *)
  cl_status_has_gauges : bool;  (** STD_STATUS carries the [cluster.*] surface *)
}

(* One full episode: boot three servers, load the keyspace, join two
   more (marking exactly the ring-delta shards), then drain the backlog
   in bounded steps while foreground reads keep flowing and a scripted
   shard_kill fells [bee] mid-migration.  The health layer watches the
   cluster gauges off [ant]'s registry — the same registry STD_STATUS
   serves. *)
let cluster_run () =
  let c = boot_three () in
  let clock = Cluster.clock c in
  let contents = List.mapi (fun i key -> (key, cluster_payload i)) cluster_keys in
  List.iter (fun (key, data) -> Cluster.put c ~from:"west" ~key data) contents;
  let hold0 = List.map (fun key -> (key, Cluster.holders c key)) cluster_keys in
  let ring0 = Cluster.ring c in
  let reg = Server.metrics (Cluster.server c "ant") in
  Cluster.register_metrics c reg;
  let interval_us = 500_000 in
  let w =
    watch ~registry:reg ~clock ~interval_us ~capacity:192
      [
        {
          (* migration must not starve foreground traffic: at least one
             routed read per scrape interval, asserted quiet below *)
          Health.Slo.al_name = "route-floor";
          objective = Health.Slo.Delta_at_least { metric = "cluster.routed_reads"; floor = 1 };
          window = 4;
          enter_pct = 75;
          exit_pct = 25;
        };
      ]
  in
  let start = Clock.now clock in
  let plan_text =
    Printf.sprintf "seed 7\nat %d shard_kill bee\n" (start + cluster_kill_offset)
  in
  let plan = match Plan.parse plan_text with Ok p -> p | Error e -> failwith e in
  let kill_mid = ref false in
  let injector =
    Injector.attach ~transport:(Cluster.transport c)
      ~act:(function
        | Plan.Shard_kill name ->
          kill_mid := Cluster.rebalancing c;
          Cluster.kill_server c name
        | _ -> ())
      ~clock plan
  in
  Cluster.add_server c ~name:"dog" ~region:"east";
  Cluster.add_server c ~name:"emu" ~region:"west";
  let join_delta = Cluster.shards_remaining c in
  let join_expected = ring_delta ~before:ring0 ~after:(Cluster.ring c) in
  let polled = ref 0 and unreadable = ref 0 and under_peak = ref 0 and idx = ref 0 in
  let read key =
    incr polled;
    match Cluster.get c ~from:"west" key with
    | data -> if not (Bytes.equal data (List.assoc key contents)) then incr unreadable
    | exception (Failure _ | Not_found | Status.Error _) -> incr unreadable
  in
  (* the double join replaced BOTH owners of some groups; read those
     keys before the rebalancer reaches their shards — each read must
     fall through to an old holder and read-repair, which is the
     migration fast path the invariants pin *)
  List.iter
    (fun key ->
      let holders = Cluster.holders c key in
      let group = Cluster.desired c key in
      if holders <> [] && List.for_all (fun srv -> not (List.mem srv group)) holders then
        read key)
    cluster_keys;
  let step () =
    Injector.poll injector;
    let key = List.nth cluster_keys (!idx mod List.length cluster_keys) in
    incr idx;
    read key;
    ignore (Cluster.rebalance_step c);
    under_peak := max !under_peak (List.length (Cluster.under_replicated c));
    poll w;
    Clock.advance clock 10_000
  in
  while Cluster.rebalancing c || Injector.pending injector > 0 do
    step ()
  done;
  (* tail: enough clean scrapes for hysteresis to walk the state home *)
  let tail_until = Clock.now clock + (3 * interval_us) + 10_000 in
  while Clock.now clock < tail_until do
    step ()
  done;
  Injector.detach injector;
  (* the oracle sweep: every object readable with the right bytes *)
  List.iter
    (fun (key, data) ->
      match Cluster.get c ~from:"east" key with
      | got -> if not (Bytes.equal got data) then incr unreadable
      | exception (Failure _ | Not_found | Status.Error _) -> incr unreadable)
    contents;
  let ring_final = Cluster.ring c in
  let untouched =
    List.filter
      (fun key -> not (shard_moved ~before:ring0 ~after:ring_final (Cluster.shard_of key)))
      cluster_keys
  in
  let untouched_moved =
    List.length
      (List.filter (fun key -> Cluster.holders c key <> List.assoc key hold0) untouched)
  in
  let spread =
    List.fold_left
      (fun (lo, hi) key ->
        let n = List.length (Cluster.holders c key) in
        (min lo n, max hi n))
      (max_int, 0) cluster_keys
  in
  let ck = Cluster.checkpoint c in
  let parses =
    match Cluster.parse_checkpoint ck with
    | Ok info ->
      info.Cluster.ck_shards = Cluster.shards
      && info.Cluster.ck_replicas = Cluster.replicas
      && List.length info.Cluster.ck_servers = 5
      && List.length info.Cluster.ck_objects = List.length cluster_keys
    | Error _ -> false
  in
  let status = Bullet_core.Proto.encode_status (Cluster.server c "ant") in
  let has_gauges =
    match Bullet_core.Proto.decode_status status with
    | Error _ -> false
    | Ok snap ->
      Option.is_some (Metrics.find snap "cluster.shards_remaining")
      && Option.is_some (Metrics.find snap "cluster.objects_total")
      && Option.is_some (Metrics.find snap "cluster.under_replicated")
      && Option.is_some (Metrics.find snap "cluster.migrations_active")
  in
  let st = Cluster.stats c in
  {
    cl_scenario = scenario_of ~name:"cluster-rebalance" w;
    cl_objects = Cluster.objects_total c;
    cl_live_servers = List.length (Cluster.live_servers c);
    cl_join_delta = join_delta;
    cl_join_expected = join_expected;
    cl_untouched = List.length untouched;
    cl_untouched_moved = untouched_moved;
    cl_kill_fired = !kill_mid && List.mem ("bee", "west", "dead") (Cluster.servers c);
    cl_polled_reads = !polled;
    cl_unreadable = !unreadable;
    cl_fallthroughs = Amoeba_sim.Stats.count st "fallthroughs";
    cl_read_repairs = Amoeba_sim.Stats.count st "read_repairs";
    cl_migrated = Amoeba_sim.Stats.count st "migrated_objects";
    cl_under_peak = !under_peak;
    cl_under_final = List.length (Cluster.under_replicated c);
    cl_spread = spread;
    cl_checkpoint = ck;
    cl_checkpoint_parses = parses;
    cl_double_run_identical = false;
    cl_status_has_gauges = has_gauges;
  }

let assert_cluster_invariants r =
  let check = invariant "CLUSTER" in
  check "join marks exactly the ring-delta shards" (r.cl_join_delta = r.cl_join_expected);
  check "join delta is a strict subset of the shard space"
    (r.cl_join_delta > 0 && r.cl_join_delta < Cluster.shards);
  check "some shards lie outside every delta" (r.cl_untouched > 0);
  check "untouched shards never moved" (r.cl_untouched_moved = 0);
  check "the scripted kill fired mid-migration" r.cl_kill_fired;
  check "every foreground read readable throughout" (r.cl_unreadable = 0);
  check "migration ran under foreground traffic"
    (r.cl_polled_reads > List.length cluster_keys);
  check "fallthrough reads happened and were repaired"
    (r.cl_fallthroughs > 0 && r.cl_read_repairs > 0);
  check "the kill cost replicas" (r.cl_under_peak > 0);
  check "healed: zero under-replicated" (r.cl_under_final = 0);
  check "healed: exactly R live copies everywhere"
    (r.cl_spread = (Cluster.replicas, Cluster.replicas));
  check "all objects survive" (r.cl_objects = List.length cluster_keys);
  check "four servers remain live" (r.cl_live_servers = 4);
  (match List.map snd r.cl_scenario.ms_transitions with
  | [ { Health.rule = "healthy"; _ }; { rule = "rebalancing"; value = Some shards_remaining };
      { rule = "healthy"; _ } ] ->
    check "rebalancing backlog positive at entry" (shards_remaining > 0)
  | _ -> check "transitions are healthy -> rebalancing -> healthy" false);
  check "ends healthy" (r.cl_scenario.ms_final = Health.healthy);
  check "route floor stays quiet" (r.cl_scenario.ms_alerts = []);
  check "checkpoint parses back" r.cl_checkpoint_parses;
  check "double run byte-identical" r.cl_double_run_identical;
  check "STD_STATUS carries the cluster gauges" r.cl_status_has_gauges

let cluster_experiment () =
  let first = cluster_run () in
  let second = cluster_run () in
  let report =
    {
      first with
      cl_double_run_identical = String.equal first.cl_checkpoint second.cl_checkpoint;
    }
  in
  assert_cluster_invariants report;
  report

(* Deterministic text dump — the scenario's snapshots, transitions and
   alert edges, the episode scalars, then the canonical checkpoint. *)
let cluster_dump r =
  let buf = Buffer.create 65_536 in
  scenario_dump buf r.cl_scenario;
  let lo, hi = r.cl_spread in
  Buffer.add_string buf
    (Printf.sprintf
       "objects %d live %d join_delta %d expected %d untouched %d moved %d kill %b polled %d \
        unreadable %d fallthroughs %d repairs %d migrated %d under_peak %d under_final %d \
        spread %d..%d\n"
       r.cl_objects r.cl_live_servers r.cl_join_delta r.cl_join_expected r.cl_untouched
       r.cl_untouched_moved r.cl_kill_fired r.cl_polled_reads r.cl_unreadable r.cl_fallthroughs
       r.cl_read_repairs r.cl_migrated r.cl_under_peak r.cl_under_final lo hi);
  Buffer.add_string buf
    (Printf.sprintf "parses %b double_run %b status_gauges %b\n" r.cl_checkpoint_parses
       r.cl_double_run_identical r.cl_status_has_gauges);
  Buffer.add_string buf "-- checkpoint\n";
  Buffer.add_string buf r.cl_checkpoint;
  Buffer.contents buf

(* ---- CLUSTER bench: rebalance cost and goodput under migration ---- *)

type cluster_bench_point = {
  cb_objects : int;
  cb_delta_shards : int;  (** shards the fourth join disturbs *)
  cb_steps : int;  (** bounded rebalance steps to drain *)
  cb_copied : int;  (** objects copied *)
  cb_rebalance_us : int;  (** virtual time the drain charged *)
}

type cluster_bench = {
  cb_points : cluster_bench_point list;  (** rebalance cost vs object count *)
  cb_quiet_reads : int;
  cb_quiet_us : int;  (** virtual time the quiet reads charged *)
  cb_migrate_reads : int;
  cb_migrate_us : int;  (** the same read mix interleaved with the drain *)
}

let cluster_bench_rig n =
  let c = boot_three () in
  for i = 0 to n - 1 do
    Cluster.put c ~from:"west" ~key:(Printf.sprintf "obj-%03d" i)
      (Bytes.make (512 + (97 * i mod 1_536)) 'b')
  done;
  c

let cluster_bench_join c =
  let before = Cluster.ring c in
  Cluster.add_server c ~name:"dog" ~region:"east";
  ring_delta ~before ~after:(Cluster.ring c)

(* The bench sweep behind the section: full-drain rebalance cost as the
   object count grows (the delta-shard count stays ring-determined, so
   time scales with the objects living in the delta), and goodput — the
   same read mix — against a quiet cluster versus one draining a join
   one bounded step per read.  All times are virtual. *)
let cluster_bench () =
  let clock_of c = Cluster.clock c in
  let point n =
    let c = cluster_bench_rig n in
    let delta = cluster_bench_join c in
    let t0 = Clock.now (clock_of c) in
    let steps = ref 0 and copied = ref 0 in
    while Cluster.rebalancing c do
      copied := !copied + Cluster.rebalance_step c;
      incr steps
    done;
    {
      cb_objects = n;
      cb_delta_shards = delta;
      cb_steps = !steps;
      cb_copied = !copied;
      cb_rebalance_us = Clock.now (clock_of c) - t0;
    }
  in
  let points = List.map point [ 16; 32; 64; 128 ] in
  (* goodput: the same 96-read mix against a quiet cluster and against
     one draining a join, reads interleaved one per rebalance step *)
  let reads = 96 in
  let key i = Printf.sprintf "obj-%03d" (i mod 64) in
  let quiet =
    let c = cluster_bench_rig 64 in
    let t0 = Clock.now (clock_of c) in
    for i = 0 to reads - 1 do
      ignore (Cluster.get c ~from:"west" (key i))
    done;
    Clock.now (clock_of c) - t0
  in
  let migrating =
    let c = cluster_bench_rig 64 in
    ignore (cluster_bench_join c);
    let t0 = Clock.now (clock_of c) in
    for i = 0 to reads - 1 do
      ignore (Cluster.get c ~from:"west" (key i));
      ignore (Cluster.rebalance_step c)
    done;
    ignore (Cluster.rebalance c);
    Clock.now (clock_of c) - t0
  in
  {
    cb_points = points;
    cb_quiet_reads = reads;
    cb_quiet_us = quiet;
    cb_migrate_reads = reads;
    cb_migrate_us = migrating;
  }

let cluster_json r b =
  let lo, hi = r.cl_spread in
  let point p =
    json_obj
      [
        ("objects", string_of_int p.cb_objects);
        ("delta_shards", string_of_int p.cb_delta_shards);
        ("steps", string_of_int p.cb_steps);
        ("copied", string_of_int p.cb_copied);
        ("rebalance_us", string_of_int p.cb_rebalance_us);
      ]
  in
  json_obj
    [
      ("objects", string_of_int r.cl_objects);
      ("live_servers", string_of_int r.cl_live_servers);
      ("join_delta", string_of_int r.cl_join_delta);
      ("join_expected", string_of_int r.cl_join_expected);
      ("untouched", string_of_int r.cl_untouched);
      ("untouched_moved", string_of_int r.cl_untouched_moved);
      ("kill_fired", string_of_bool r.cl_kill_fired);
      ("polled_reads", string_of_int r.cl_polled_reads);
      ("unreadable", string_of_int r.cl_unreadable);
      ("fallthroughs", string_of_int r.cl_fallthroughs);
      ("read_repairs", string_of_int r.cl_read_repairs);
      ("migrated", string_of_int r.cl_migrated);
      ("under_peak", string_of_int r.cl_under_peak);
      ("under_final", string_of_int r.cl_under_final);
      ("spread_min", string_of_int lo);
      ("spread_max", string_of_int hi);
      ("transitions", transitions_json r.cl_scenario.ms_transitions);
      ("double_run_identical", string_of_bool r.cl_double_run_identical);
      ("status_has_gauges", string_of_bool r.cl_status_has_gauges);
      ("points", json_arr (List.map point b.cb_points));
      ("quiet_reads", string_of_int b.cb_quiet_reads);
      ("quiet_us", string_of_int b.cb_quiet_us);
      ("migrate_reads", string_of_int b.cb_migrate_reads);
      ("migrate_us", string_of_int b.cb_migrate_us);
    ]

let run () =
  header "CLUSTER - sharded multi-server Bullet: join, kill, rebalance";
  let r = cluster_experiment () in
  let b = cluster_bench () in
  Printf.printf "\nEpisode (N=4 join, scripted shard_kill mid-drain, R=2):\n";
  Printf.printf "  join delta        %d shards (ring-computed %d)\n" r.cl_join_delta
    r.cl_join_expected;
  Printf.printf "  foreground reads  %d, unreadable %d\n" r.cl_polled_reads r.cl_unreadable;
  Printf.printf "  fallthroughs      %d (read-repairs %d)\n" r.cl_fallthroughs
    r.cl_read_repairs;
  Printf.printf "  migrated objects  %d\n" r.cl_migrated;
  Printf.printf "  under-replicated  peak %d, final %d\n" r.cl_under_peak r.cl_under_final;
  print_health r.cl_scenario.ms_transitions;
  Printf.printf "\nRebalance cost vs object count (full drain after the fourth join):\n";
  Printf.printf "  %-10s %12s %8s %8s %14s\n" "objects" "delta shards" "steps" "copied"
    "drain (ms)";
  List.iter
    (fun p ->
      Printf.printf "  %-10d %12d %8d %8d %14.1f\n" p.cb_objects p.cb_delta_shards
        p.cb_steps p.cb_copied (ms p.cb_rebalance_us))
    b.cb_points;
  let per_read n us = ms us /. float_of_int n in
  Printf.printf "\nGoodput (per-read virtual ms, same 96-read mix):\n";
  Printf.printf "  quiet        %8.2f ms/read\n" (per_read b.cb_quiet_reads b.cb_quiet_us);
  Printf.printf "  migrating    %8.2f ms/read (one bounded rebalance step per read)\n"
    (per_read b.cb_migrate_reads b.cb_migrate_us);
  Printf.printf "  machine-readable copy written to BENCH_cluster.json\n";
  Printf.printf "  full dump written to BENCH_cluster_dump.txt\n";
  [ cluster_json r b ^ "\n"; cluster_dump r ]
