(* Tests for the replicated directory service: duplexed mutations,
   failover, healing, convergence. *)

open Helpers
module Pair = Amoeba_dir.Dir_pair
module Dir_client = Amoeba_dir.Dir_client
module Client = Bullet_core.Client
module Cap = Amoeba_cap.Capability
module Status = Amoeba_rpc.Status

type rig = {
  bullet : bullet_rig;  (** shared transport + primary's Bullet store *)
  pair : Pair.t;
  dclient : Dir_client.t;
}

(* two independent Bullet servers on one transport, one per replica *)
let make () =
  let bullet = make_bullet () in
  let clock = bullet.rig.clock in
  let backup_server =
    Bullet_core.Server.boot ~config:small_bullet_config ~seed:77L ~clock ~id:"bk" ~sectors:16_384
      ~max_files:256 ()
  in
  Bullet_core.Proto.serve backup_server bullet.transport;
  let backup_store = Client.connect bullet.transport (Bullet_core.Server.port backup_server) in
  let pair = Pair.create ~primary_store:bullet.client ~backup_store () in
  Pair.serve pair bullet.transport;
  let dclient = Dir_client.connect bullet.transport (Pair.port pair) in
  { bullet; pair; dclient }

let file rig contents = Client.create rig.bullet.client (Bytes.of_string contents)

let test_basic_ops_via_pair () =
  let rig = make () in
  let root = Dir_client.get_root rig.dclient in
  Dir_client.enter rig.dclient root "x" (file rig "1");
  let found = Dir_client.lookup rig.dclient root "x" in
  check_string "readable" "1" (Bytes.to_string (Client.read rig.bullet.client found));
  check_bool "replicas agree" true (Pair.divergence rig.pair = None)

let test_failover_preserves_namespace () =
  let rig = make () in
  let root = Dir_client.get_root rig.dclient in
  let f = file rig "precious" in
  Dir_client.enter rig.dclient root "keep" f;
  let sub = Dir_client.make_dir rig.dclient in
  Dir_client.enter rig.dclient root "sub" sub;
  Dir_client.enter rig.dclient sub "inner" (file rig "deep");
  (* primary dies; every capability keeps working *)
  Pair.fail_primary rig.pair;
  check_bool "primary down" false (Pair.primary_alive rig.pair);
  let found = Dir_client.lookup rig.dclient root "keep" in
  check_bool "same capability" true (Cap.equal f found);
  let inner = Dir_client.lookup rig.dclient (Dir_client.lookup rig.dclient root "sub") "inner" in
  check_string "nested survives" "deep" (Bytes.to_string (Client.read rig.bullet.client inner))

let test_mutations_during_outage_then_heal () =
  let rig = make () in
  let root = Dir_client.get_root rig.dclient in
  Dir_client.enter rig.dclient root "before" (file rig "b");
  Pair.fail_primary rig.pair;
  (* service keeps accepting mutations on the backup alone *)
  Dir_client.enter rig.dclient root "during" (file rig "d");
  let fresh_dir = Dir_client.make_dir rig.dclient in
  Dir_client.enter rig.dclient root "newdir" fresh_dir;
  (* heal: the primary is rebuilt from the backup's state *)
  Pair.heal_primary rig.pair;
  check_bool "primary back" true (Pair.primary_alive rig.pair);
  check_bool "replicas converged" true (Pair.divergence rig.pair = None);
  (* and both serve the outage-era bindings *)
  let d = Dir_client.lookup rig.dclient root "during" in
  check_string "outage binding" "d" (Bytes.to_string (Client.read rig.bullet.client d));
  (* post-heal mutations stay in lockstep, including fresh directories *)
  Dir_client.enter rig.dclient root "after" (file rig "a");
  let another = Dir_client.make_dir rig.dclient in
  Dir_client.enter rig.dclient root "post" another;
  check_bool "still converged" true (Pair.divergence rig.pair = None)

let test_new_dirs_after_heal_agree () =
  (* capabilities minted by the two replicas after a heal must be equal;
     this is what the deterministic (seed, obj) randoms buy *)
  let rig = make () in
  Pair.fail_primary rig.pair;
  let d1 = Dir_client.make_dir rig.dclient in
  Pair.heal_primary rig.pair;
  let d2 = Dir_client.make_dir rig.dclient in
  (* use both: enter entries through the pair, then verify divergence *)
  let root = Dir_client.get_root rig.dclient in
  Dir_client.enter rig.dclient root "d1" d1;
  Dir_client.enter rig.dclient root "d2" d2;
  Dir_client.enter rig.dclient d2 "leaf" (file rig "x");
  check_bool "converged" true (Pair.divergence rig.pair = None)

let test_divergence_detector () =
  let rig = make () in
  let root = Dir_client.get_root rig.dclient in
  Dir_client.enter rig.dclient root "x" (file rig "1");
  check_bool "agree" true (Pair.divergence rig.pair = None);
  (* inject a lost update: mutate the backup's state behind the pair's
     back (simulates a dropped replication message) *)
  Pair.fail_primary rig.pair;
  Dir_client.enter rig.dclient root "sneaky" (file rig "2");
  (* the replicas' states now differ, and the auditor sees it *)
  check_bool "divergence detected" true (Pair.divergence rig.pair <> None);
  Pair.heal_primary rig.pair;
  check_bool "heal repairs the divergence" true (Pair.divergence rig.pair = None)

let test_reads_cheap_mutations_duplexed () =
  let rig = make () in
  let root = Dir_client.get_root rig.dclient in
  let stats = Bullet_core.Server.stats rig.bullet.server in
  let creates_before = Amoeba_sim.Stats.count stats "creates" in
  Dir_client.enter rig.dclient root "x" (file rig "1");
  (* the entry file + the primary replica's directory rewrite hit the
     primary store *)
  check_bool "primary store written" true (Amoeba_sim.Stats.count stats "creates" > creates_before);
  let creates_mid = Amoeba_sim.Stats.count stats "creates" in
  let (_ : Cap.t) = Dir_client.lookup rig.dclient root "x" in
  check_int "reads do not write" creates_mid (Amoeba_sim.Stats.count stats "creates")

(* DELETE_DIR (7), RESTRICT (9) and CHECKPOINT (10) are no longer part
   of the protocol: the pair answers them Bad_request and neither replica
   acts on them. *)
let test_retired_commands () =
  let rig = make () in
  let sub = Dir_client.make_dir rig.dclient in
  List.iter
    (fun command ->
      let reply =
        Amoeba_rpc.Transport.trans rig.bullet.transport ~model:Amoeba_rpc.Net_model.amoeba
          (Amoeba_rpc.Message.request ~port:(Pair.port rig.pair) ~command ~cap:sub
             ~arg0:(Amoeba_cap.Rights.to_int Amoeba_cap.Rights.read) ())
      in
      check_bool (Printf.sprintf "command %d is a bad request" command) true
        (reply.Amoeba_rpc.Message.status = Status.Bad_request))
    [ 7; 9; 10 ];
  check_bool "the directory still exists" true (Dir_client.list rig.dclient sub = []);
  check_bool "replicas agree" true (Pair.divergence rig.pair = None)

let test_replica_dumps_canonical () =
  let rig = make () in
  let root = Dir_client.get_root rig.dclient in
  Dir_client.enter rig.dclient root "x" (file rig "1");
  let sub = Dir_client.make_dir rig.dclient in
  Dir_client.enter rig.dclient root "sub" sub;
  Dir_client.enter rig.dclient sub "leaf" (file rig "2");
  let a, b = Pair.replica_dumps rig.pair in
  check_string "converged replicas dump identically" a b;
  check_bool "the dump is not empty" true (String.length a > 0);
  (* a lost update makes the dumps visibly differ *)
  Pair.fail_primary rig.pair;
  Dir_client.enter rig.dclient root "sneaky" (file rig "3");
  let a, b = Pair.replica_dumps rig.pair in
  check_bool "diverged replicas dump differently" true (a <> b);
  Pair.heal_primary rig.pair;
  let a, b = Pair.replica_dumps rig.pair in
  check_string "heal restores byte-identical state" a b

let test_plan_driven_crash_mid_stream () =
  (* The crash arrives from a fault plan in the middle of a mutation
     stream, not at a hand-picked quiet point: every mutation must land,
     the survivor serves alone during the outage, and after the heal the
     replicas are byte-identical. *)
  let rig = make () in
  let clock = rig.bullet.rig.clock in
  let root = Dir_client.get_root rig.dclient in
  let crash_at = Amoeba_sim.Clock.now clock + 200_000 in
  let heal_at = crash_at + 400_000 in
  let plan =
    Amoeba_fault.Plan.create ~seed:0xD1BL
    |> fun p -> Amoeba_fault.Plan.at p ~us:crash_at Amoeba_fault.Plan.Server_crash
    |> fun p -> Amoeba_fault.Plan.at p ~us:heal_at Amoeba_fault.Plan.Server_reboot
  in
  let injector =
    Amoeba_fault.Injector.attach
      ~act:(function
        | Amoeba_fault.Plan.Server_crash -> Pair.fail_primary rig.pair
        | Server_reboot -> Pair.heal_primary rig.pair
        | _ -> ())
      ~clock plan
  in
  let outage_ops = ref 0 in
  for i = 0 to 19 do
    Dir_client.enter rig.dclient root (Printf.sprintf "entry-%02d" i) (file rig (string_of_int i));
    if not (Pair.primary_alive rig.pair) then incr outage_ops;
    Amoeba_sim.Clock.advance clock 40_000;
    Amoeba_fault.Injector.poll injector
  done;
  Amoeba_fault.Injector.detach injector;
  check_int "crash fired" 1
    (Amoeba_sim.Stats.count (Amoeba_fault.Injector.stats injector) "server_crashes");
  check_bool "some ops rode the outage" true (!outage_ops > 0);
  check_bool "primary healed" true (Pair.primary_alive rig.pair);
  check_bool "no divergence" true (Pair.divergence rig.pair = None);
  let a, b = Pair.replica_dumps rig.pair in
  check_string "byte-identical after heal" a b;
  (* every binding from before, during and after the outage resolves *)
  for i = 0 to 19 do
    let cap = Dir_client.lookup rig.dclient root (Printf.sprintf "entry-%02d" i) in
    check_string
      (Printf.sprintf "entry %d intact" i)
      (string_of_int i)
      (Bytes.to_string (Client.read rig.bullet.client cap))
  done

let suite =
  ( "dir_pair",
    [
      Alcotest.test_case "basic ops through the pair" `Quick test_basic_ops_via_pair;
      Alcotest.test_case "failover preserves the namespace" `Quick test_failover_preserves_namespace;
      Alcotest.test_case "mutations during outage, then heal" `Quick
        test_mutations_during_outage_then_heal;
      Alcotest.test_case "post-heal capabilities agree" `Quick test_new_dirs_after_heal_agree;
      Alcotest.test_case "divergence detector and repair" `Quick test_divergence_detector;
      Alcotest.test_case "reads cheap, mutations duplexed" `Quick test_reads_cheap_mutations_duplexed;
      Alcotest.test_case "replica dumps are canonical" `Quick test_replica_dumps_canonical;
      Alcotest.test_case "retired commands are bad requests" `Quick test_retired_commands;
      Alcotest.test_case "plan-driven crash mid-stream" `Quick test_plan_driven_crash_mid_stream;
    ] )
