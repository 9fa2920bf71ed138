(* The zero-RPC read fast path: client-side capability verification,
   the whole-file client cache, and leases over directory bindings. *)

open Helpers
module Cap = Amoeba_cap.Capability
module Port = Amoeba_cap.Port
module Rights = Amoeba_cap.Rights
module Sealer = Amoeba_cap.Sealer
module Clock = Amoeba_sim.Clock
module Stats = Amoeba_sim.Stats
module Status = Amoeba_rpc.Status
module Dir_server = Amoeba_dir.Dir_server
module Dir_proto = Amoeba_dir.Dir_proto
module Dir_client = Amoeba_dir.Dir_client
module Pair = Amoeba_dir.Dir_pair
module Plan = Amoeba_fault.Plan
module Injector = Amoeba_fault.Injector
module File_cache = Amoeba_lease.File_cache
module Station = Amoeba_lease.Station

(* ---- the client file cache ---- *)

let dummy_cap n =
  Cap.v
    ~port:(Port.of_int64 0x1234L)
    ~obj:n ~rights:(Rights.of_int 0xff)
    ~check:(Int64.of_int (n * 7919))

let test_cache_lru_eviction () =
  let cache = File_cache.create ~capacity_bytes:8_192 in
  let a = dummy_cap 1 and b = dummy_cap 2 and c = dummy_cap 3 in
  File_cache.insert cache a (Bytes.make 4_096 'a');
  File_cache.insert cache b (Bytes.make 4_096 'b');
  (* touch [a] so [b] is the LRU victim *)
  check_bool "a cached" true (File_cache.find cache a <> None);
  File_cache.insert cache c (Bytes.make 4_096 'c');
  check_bool "b evicted" true (File_cache.find cache b = None);
  check_bool "a survives" true (File_cache.find cache a <> None);
  check_bool "c cached" true (File_cache.find cache c <> None);
  check_int "one eviction" 1 (Stats.count (File_cache.stats cache) "evictions");
  check_int "evicted bytes counted" 4_096 (File_cache.bytes_evicted cache);
  check_int "used" 8_192 (File_cache.used_bytes cache);
  check_int "resident" 2 (File_cache.resident_files cache)

let test_cache_oversize_and_remove () =
  let cache = File_cache.create ~capacity_bytes:1_000 in
  let big = dummy_cap 9 in
  File_cache.insert cache big (Bytes.make 2_000 'x');
  check_bool "oversize not cached" true (File_cache.find cache big = None);
  check_int "oversize rejected" 1 (Stats.count (File_cache.stats cache) "oversize_rejects");
  let small = dummy_cap 10 in
  File_cache.insert cache small (Bytes.make 100 'y');
  File_cache.remove cache small;
  check_bool "removed" true (File_cache.find cache small = None);
  check_int "empty again" 0 (File_cache.used_bytes cache);
  (* removing an absent key is fine *)
  File_cache.remove cache small

(* a re-bound name carries a new capability, which can never alias the
   old entry: keys include the sealed check field *)
let test_cache_keyed_by_capability () =
  let cache = File_cache.create ~capacity_bytes:10_000 in
  let v1 = dummy_cap 5 in
  let v2 = Cap.v ~port:v1.Cap.port ~obj:v1.Cap.obj ~rights:v1.Cap.rights ~check:99L in
  File_cache.insert cache v1 (Bytes.of_string "old");
  check_bool "new version misses" true (File_cache.find cache v2 = None);
  File_cache.insert cache v2 (Bytes.of_string "new");
  check_bytes "old version intact" (Bytes.of_string "old")
    (Option.get (File_cache.find cache v1));
  check_bytes "new version intact" (Bytes.of_string "new")
    (Option.get (File_cache.find cache v2))

(* ---- local capability verification ---- *)

let test_verify_local () =
  let b = make_bullet () in
  let sealer = Bullet_core.Server.sealer b.server in
  let cap = Bullet_core.Client.create b.client (payload 64) in
  check_bool "genuine cap verifies" true (Sealer.verify_local sealer ~cap);
  let forged_check =
    Cap.v ~port:cap.Cap.port ~obj:cap.Cap.obj ~rights:cap.Cap.rights
      ~check:(Int64.add cap.Cap.check 1L)
  in
  check_bool "tampered check rejected" false (Sealer.verify_local sealer ~cap:forged_check);
  (* a created cap carries full rights, so tamper by narrowing: any
     rights field that disagrees with the sealed one must fail *)
  let tampered_rights =
    Cap.v ~port:cap.Cap.port ~obj:cap.Cap.obj ~rights:(Rights.of_int 1) ~check:cap.Cap.check
  in
  check_bool "tampered rights rejected" false (Sealer.verify_local sealer ~cap:tampered_rights)

(* ---- the leased station ---- *)

type lease_rig = {
  b : bullet_rig;
  dirs : Dir_server.t;
  dclient : Dir_client.t;
  root : Cap.t;
}

let lease_us = 100_000

let make_lease_rig () =
  let b = make_bullet () in
  let config = { Dir_server.default_config with Dir_server.lease_us } in
  let dirs = Dir_server.create ~config ~store:b.client () in
  Dir_proto.serve dirs b.transport;
  let dclient = Dir_client.connect b.transport (Dir_server.port dirs) in
  { b; dirs; dclient; root = Dir_client.get_root dclient }

let station ?config ?(trusted = true) rig =
  if trusted then
    Station.create ?config
      ~sealer:(Bullet_core.Server.sealer rig.b.server)
      ~store:rig.b.client ~dirs:rig.dclient ()
  else Station.create ?config ~store:rig.b.client ~dirs:rig.dclient ()

let transactions rig = Stats.count (Amoeba_rpc.Transport.stats rig.b.transport) "transactions"

let enter rig name data =
  let cap = Bullet_core.Client.create rig.b.client data in
  Dir_client.enter rig.dclient rig.root name cap;
  cap

let test_warm_read_zero_rpcs () =
  let rig = make_lease_rig () in
  let st = station rig in
  let data = payload 4_096 in
  ignore (enter rig "hot" data);
  check_bytes "cold read" data (Station.read st ~dir:rig.root "hot");
  let before = transactions rig in
  let t0 = Clock.now rig.b.rig.clock in
  for _ = 1 to 5 do
    check_bytes "warm read" data (Station.read st ~dir:rig.root "hot")
  done;
  check_int "zero RPCs across five warm reads" 0 (transactions rig - before);
  check_bool "no network time: five warm reads under 5 ms" true
    (Clock.now rig.b.rig.clock - t0 < 5_000);
  check_int "all served from cache" 5 (Stats.count (Station.stats st) "leased_reads")

let test_untrusted_warm_read_one_rpc () =
  let rig = make_lease_rig () in
  let st = station ~trusted:false rig in
  let data = payload 2_048 in
  ignore (enter rig "hot" data);
  ignore (Station.read st ~dir:rig.root "hot");
  let before = transactions rig in
  check_bytes "warm read" data (Station.read st ~dir:rig.root "hot");
  check_int "exactly one verification RPC" 1 (transactions rig - before);
  check_bool "station knows it is untrusted" false (Station.trusted st);
  (* the cold read was a fetch, not a verified cache hit *)
  check_int "remote verifies counted" 1 (Stats.count (Station.stats st) "remote_verifies")

let test_expiry_revalidates_with_one_rpc () =
  let rig = make_lease_rig () in
  let st = station rig in
  let data = payload 1_024 in
  ignore (enter rig "f" data);
  ignore (Station.read st ~dir:rig.root "f");
  Clock.advance rig.b.rig.clock (2 * lease_us);
  let before = transactions rig in
  check_bytes "still correct" data (Station.read st ~dir:rig.root "f");
  check_int "one renewal RPC" 1 (transactions rig - before);
  check_int "expiry counted" 1 (Stats.count (Station.stats st) "lease_expiries");
  check_int "renewal counted" 1 (Stats.count (Station.stats st) "lease_renewals")

let test_replace_bumps_epoch_and_revokes () =
  let rig = make_lease_rig () in
  let st = station rig in
  let old_data = Bytes.make 512 'o' and new_data = Bytes.make 512 'n' in
  ignore (enter rig "f" old_data);
  check_bytes "old served" old_data (Station.read st ~dir:rig.root "f");
  let epoch0 = ok_exn (Dir_server.epoch rig.dirs rig.root) in
  (* replace waits out the station's lease before bumping the epoch, so
     once it returns the station can never serve the old bytes again *)
  let new_cap = Bullet_core.Client.create rig.b.client new_data in
  ignore (Dir_client.replace rig.dclient rig.root "f" new_cap);
  check_int "epoch bumped" (epoch0 + 1) (ok_exn (Dir_server.epoch rig.dirs rig.root));
  check_bool "write waited out the lease" true
    (Stats.count (Dir_server.stats rig.dirs) "lease_waits" >= 1);
  check_bytes "new bytes after replace" new_data (Station.read st ~dir:rig.root "f");
  check_int "lease revoked" 1 (Stats.count (Station.stats st) "lease_revokes")

let test_delete_never_serves_stale () =
  let rig = make_lease_rig () in
  let st = station rig in
  ignore (enter rig "f" (payload 256));
  ignore (Station.read st ~dir:rig.root "f");
  Dir_client.remove_name rig.dclient rig.root "f";
  (* the removal waited the lease out; every later read must fail *)
  for _ = 1 to 3 do
    (match Station.read st ~dir:rig.root "f" with
    | (_ : bytes) -> Alcotest.fail "served a deleted binding"
    | exception Status.Error Status.Not_found -> ());
    Clock.advance rig.b.rig.clock 30_000
  done

(* A station with a skewed lease clock (the Lease_clock_skew fault,
   scripted through the plan DSL) may lose liveness but must never serve
   a stale read after a DELETE completes. The backward step is the
   dangerous direction — it would stretch lease deadlines past the
   server's write-wait horizon — so it must drop every held lease. *)
let test_skewed_station_never_stale_after_delete () =
  let rig = make_lease_rig () in
  let st = station rig in
  let data = payload 512 in
  ignore (enter rig "f" data);
  ignore (Station.read st ~dir:rig.root "f");
  let now = Clock.now rig.b.rig.clock in
  let plan_text =
    Printf.sprintf "seed 9\nat %d lease_skew 80000\nat %d lease_skew -40000\n" (now + 10_000)
      (now + 50_000)
  in
  let plan =
    match Plan.parse plan_text with Ok p -> p | Error e -> Alcotest.failf "parse: %s" e
  in
  let injector =
    Injector.attach ~transport:rig.b.transport ~on_lease_skew:(Station.set_skew st)
      ~clock:rig.b.rig.clock plan
  in
  let deleted = ref false in
  let stale = ref 0 in
  for i = 1 to 8 do
    Injector.poll injector;
    if i = 5 then begin
      Dir_client.remove_name rig.dclient rig.root "f";
      deleted := true
    end;
    (match Station.read st ~dir:rig.root "f" with
    | (_ : bytes) -> if !deleted then incr stale
    | exception Status.Error Status.Not_found -> ());
    Clock.advance rig.b.rig.clock 20_000
  done;
  Injector.detach injector;
  check_int "no stale read after delete" 0 !stale;
  check_bool "backward step dropped the leases" true
    (Stats.count (Station.stats st) "lease_clock_steps_back" >= 1);
  check_int "injector fired both skews" 2
    (Stats.count (Injector.stats injector) "lease_skews")

(* ---- leases through the replicated pair ---- *)

let make_pair_rig () =
  let b = make_bullet () in
  let clock = b.rig.clock in
  let backup_server =
    Bullet_core.Server.boot ~config:small_bullet_config ~seed:77L ~clock ~id:"bk" ~sectors:16_384
      ~max_files:256 ()
  in
  Bullet_core.Proto.serve backup_server b.transport;
  let backup_store = Bullet_core.Client.connect b.transport (Bullet_core.Server.port backup_server) in
  let config = { Dir_server.default_config with Dir_server.lease_us } in
  let pair = Pair.create ~config ~primary_store:b.client ~backup_store () in
  Pair.serve pair b.transport;
  let dclient = Dir_client.connect b.transport (Pair.port pair) in
  (b, pair, dclient)

let test_pair_replicates_leases_and_epochs () =
  let b, pair, dclient = make_pair_rig () in
  let root = Dir_client.get_root dclient in
  let cap = Bullet_core.Client.create b.client (payload 128) in
  Dir_client.enter dclient root "x" cap;
  (* a leased lookup must be recorded by BOTH replicas: after a
     fail-over the backup must still wait the promise out *)
  let found, epoch, granted_us = Dir_client.lookup_lease dclient root "x" in
  check_bool "leased lookup finds the cap" true (Cap.equal cap found);
  check_int "grant carries the lease term" lease_us granted_us;
  check_int "primary granted" 1 (Stats.count (Dir_server.stats (Pair.primary pair)) "leases_granted");
  check_int "backup granted" 1 (Stats.count (Dir_server.stats (Pair.backup pair)) "leases_granted");
  (* an epoch bump through the pair lands on both replicas... *)
  let cap2 = Bullet_core.Client.create b.client (payload 129) in
  ignore (Dir_client.replace dclient root "x" cap2);
  let ep p = ok_exn (Dir_server.epoch p (Dir_server.root p)) in
  check_int "epochs agree" (ep (Pair.primary pair)) (ep (Pair.backup pair));
  check_bool "epoch moved" true (ep (Pair.primary pair) > epoch);
  (* ...and lease state never leaks into the checkpoint comparison *)
  check_bool "replicas byte-identical" true (Pair.divergence pair = None);
  (* the epoch survives a fail-over and heal (checkpoint copy) *)
  Pair.fail_primary pair;
  ignore (Dir_client.lookup dclient root "x");
  Pair.heal_primary pair;
  check_int "epoch survives heal" (ep (Pair.backup pair)) (ep (Pair.primary pair));
  check_bool "healed consistent" true (Pair.divergence pair = None)

(* ---- the plan grammar ---- *)

let test_plan_lease_skew_grammar () =
  (match Plan.parse "seed 3\nat 100 lease_skew 5000\nat 200 lease_skew -7500\n" with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok plan -> (
    match Plan.steps plan with
    | [ s1; s2 ] ->
      check_int "first at" 100 s1.Plan.at_us;
      check_bool "first offset" true (s1.Plan.event = Plan.Lease_clock_skew 5_000);
      check_bool "second offset negative" true (s2.Plan.event = Plan.Lease_clock_skew (-7_500))
    | steps -> Alcotest.failf "expected 2 steps, got %d" (List.length steps)));
  match Plan.parse "at 100 lease_skew fast\n" with
  | Ok _ -> Alcotest.fail "accepted a malformed offset"
  | Error e -> check_bool "error names the line" true (String.length e > 0)

let suite =
  ( "lease",
    [
      Alcotest.test_case "cache LRU eviction and evicted-bytes" `Quick test_cache_lru_eviction;
      Alcotest.test_case "cache oversize and remove" `Quick test_cache_oversize_and_remove;
      Alcotest.test_case "cache keyed by capability" `Quick test_cache_keyed_by_capability;
      Alcotest.test_case "local capability verification" `Quick test_verify_local;
      Alcotest.test_case "warm read issues zero RPCs" `Quick test_warm_read_zero_rpcs;
      Alcotest.test_case "untrusted warm read pays one RPC" `Quick
        test_untrusted_warm_read_one_rpc;
      Alcotest.test_case "expiry revalidates with one RPC" `Quick
        test_expiry_revalidates_with_one_rpc;
      Alcotest.test_case "replace bumps epoch and revokes" `Quick
        test_replace_bumps_epoch_and_revokes;
      Alcotest.test_case "delete never serves stale" `Quick test_delete_never_serves_stale;
      Alcotest.test_case "skewed station never stale after delete" `Quick
        test_skewed_station_never_stale_after_delete;
      Alcotest.test_case "pair replicates leases and epochs" `Quick
        test_pair_replicates_leases_and_epochs;
      Alcotest.test_case "plan grammar: lease_skew" `Quick test_plan_lease_skew_grammar;
    ] )
