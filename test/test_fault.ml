(* Tests for the fault-injection subsystem: plans, the injector, and the
   client-visible behaviour they produce (retry, dedup, recovery). *)

open Helpers
module Clock = Amoeba_sim.Clock
module Stats = Amoeba_sim.Stats
module Dev = Amoeba_disk.Block_device
module Mirror = Amoeba_disk.Mirror
module Transport = Amoeba_rpc.Transport
module Message = Amoeba_rpc.Message
module Status = Amoeba_rpc.Status
module Server = Bullet_core.Server
module Client = Bullet_core.Client
module Plan = Amoeba_fault.Plan
module Injector = Amoeba_fault.Injector

let test_plan_steps_in_order () =
  let plan =
    Plan.create ~seed:1L
    |> fun p -> Plan.at p ~us:50 (Plan.Drive_fail 0)
    |> fun p -> Plan.at p ~us:10 Plan.Server_crash
  in
  (match Plan.steps plan with
  | [ a; b ] ->
    check_int "insertion order kept" 50 a.Plan.at_us;
    check_int "insertion order kept" 10 b.Plan.at_us
  | _ -> Alcotest.fail "expected two steps");
  check_bool "negative time rejected" true
    (try
       ignore (Plan.at plan ~us:(-1) Plan.Server_crash);
       false
     with Invalid_argument _ -> true)

let test_scripted_drive_failure_fires_on_poll () =
  let rig = make_rig () in
  let plan = Plan.create ~seed:2L |> fun p -> Plan.at p ~us:100 (Plan.Drive_fail 0) in
  let injector = Injector.attach ~mirror:rig.mirror ~clock:rig.clock plan in
  check_bool "not yet due" false (Dev.is_failed rig.drive1);
  check_int "one event pending" 1 (Injector.pending injector);
  Clock.advance rig.clock 100;
  Injector.poll injector;
  check_bool "fired at its time" true (Dev.is_failed rig.drive1);
  check_int "queue drained" 0 (Injector.pending injector);
  check_int "counted" 1 (Stats.count (Injector.stats injector) "drive_failures")

let test_same_time_events_fire_in_plan_order () =
  (* fail-then-recover at the same instant: if the order were not the
     plan's, the recover would no-op and the drive would stay dead *)
  let rig = make_rig () in
  let plan =
    Plan.create ~seed:3L
    |> fun p -> Plan.at p ~us:10 (Plan.Drive_fail 1)
    |> fun p -> Plan.at p ~us:10 Plan.Drive_recover
  in
  let injector = Injector.attach ~mirror:rig.mirror ~clock:rig.clock plan in
  Clock.advance rig.clock 10;
  Injector.poll injector;
  check_bool "failed then recovered" false (Dev.is_failed rig.drive2);
  check_int "resync happened" 1 (Stats.count (Mirror.stats rig.mirror) "resyncs")

let test_recovery_runs_off_the_measured_path () =
  let rig = make_rig () in
  let plan =
    Plan.create ~seed:4L
    |> fun p -> Plan.at p ~us:0 (Plan.Drive_fail 1)
    |> fun p -> Plan.at p ~us:5 Plan.Drive_recover
  in
  let injector = Injector.attach ~mirror:rig.mirror ~clock:rig.clock plan in
  Clock.advance rig.clock 5;
  let before = Clock.now rig.clock in
  Injector.poll injector;
  check_int "whole-disk copy charged no observed time" before (Clock.now rig.clock);
  let resync = Stats.summary (Injector.stats injector) "resync_us" in
  check_bool "but its duration was recorded" true (resync.Stats.mean > 0.)

let test_sector_error_rates_switch_on_and_off () =
  let rig = make_rig () in
  Mirror.write rig.mirror ~sync:2 ~sector:0 (payload 512);
  let off_at = Clock.now rig.clock + 1_000 in
  let plan =
    Plan.create ~seed:5L
    |> fun p -> Plan.at p ~us:0 (Plan.Sector_errors 1.0)
    |> fun p -> Plan.at p ~us:off_at (Plan.Sector_errors 0.0)
  in
  let injector = Injector.attach ~mirror:rig.mirror ~clock:rig.clock plan in
  (* rate 1.0: every drive's read throws, so the mirror runs out of
     replicas to fail over to *)
  (try
     ignore (Mirror.read rig.mirror ~sector:0 ~count:1);
     Alcotest.fail "expected No_live_drive"
   with Mirror.No_live_drive -> ());
  check_bool "failover was attempted first" true
    (Stats.count (Mirror.stats rig.mirror) "read_failovers" > 0);
  Clock.advance rig.clock 1_000;
  Injector.poll injector;
  check_bytes "rate back to zero, reads recover" (payload 512)
    (Mirror.read rig.mirror ~sector:0 ~count:1);
  Injector.detach injector

let test_message_loss_recovered_by_retry () =
  let b = make_bullet () in
  let retrying =
    Client.connect ~attempts:10 ~backoff_us:10_000 b.transport (Server.port b.server)
  in
  let plan = Plan.create ~seed:0x5EEDL |> fun p -> Plan.at p ~us:0 (Plan.Message_loss 0.2) in
  let injector = Injector.attach ~transport:b.transport ~mirror:b.rig.mirror ~clock:b.rig.clock plan in
  let caps = Array.init 12 (fun i -> Client.create retrying (payload (100 + i))) in
  Array.iteri (fun i cap -> check_bytes "readback" (payload (100 + i)) (Client.read retrying cap)) caps;
  check_bool "losses actually happened" true (Stats.count (Client.stats retrying) "timeouts" > 0);
  check_bool "retries recovered them" true (Stats.count (Client.stats retrying) "retries" > 0);
  check_int "no create ran twice" 12 (Stats.count (Server.stats b.server) "creates");
  Injector.detach injector

let drop_first_reply transport =
  (* a one-shot reply loss, scripted by hand: the first matching message
     loses its reply, everything after is delivered *)
  let dropped = ref false in
  Transport.set_fault_hook transport
    (Some
       (fun ~link:_ _ ->
         if !dropped then Transport.Deliver
         else begin
           dropped := true;
           Transport.Drop_reply
         end))

let test_create_dedup_on_lost_reply () =
  let b = make_bullet () in
  let retrying = Client.connect ~attempts:3 ~backoff_us:10_000 b.transport (Server.port b.server) in
  drop_first_reply b.transport;
  let cap = Client.create retrying (payload 4_000) in
  Transport.set_fault_hook b.transport None;
  (* the first CREATE executed, its reply was lost, the retry got the
     cached reply: one file, one server-side execution *)
  check_int "one retry" 1 (Stats.count (Client.stats retrying) "retries");
  check_int "executed once" 1 (Stats.count (Server.stats b.server) "creates");
  check_int "one live file" 1 (Server.live_files b.server);
  check_bytes "the capability works" (payload 4_000) (Client.read retrying cap)

let test_delete_dedup_on_lost_reply () =
  let b = make_bullet () in
  let retrying = Client.connect ~attempts:3 ~backoff_us:10_000 b.transport (Server.port b.server) in
  let cap = Client.create retrying (payload 100) in
  drop_first_reply b.transport;
  (* without dedup the retried DELETE would hit a dead object and raise *)
  Client.delete retrying cap;
  Transport.set_fault_hook b.transport None;
  check_int "file gone" 0 (Server.live_files b.server)

let test_retry_exhaustion_surfaces_timeout () =
  let b = make_bullet () in
  let retrying = Client.connect ~attempts:2 ~backoff_us:1_000 b.transport (Server.port b.server) in
  Transport.set_fault_hook b.transport (Some (fun ~link:_ _ -> Transport.Drop_request));
  (try
     ignore (Client.create retrying (payload 10));
     Alcotest.fail "expected timeout"
   with Status.Error Status.Timeout -> ());
  Transport.set_fault_hook b.transport None;
  check_int "both attempts timed out" 2 (Stats.count (Client.stats retrying) "timeouts");
  check_int "gave up after the bound" 1 (Stats.count (Client.stats retrying) "exhausted")

let test_crash_reboot_spanned_by_retries () =
  let b = make_bullet () in
  let port = Server.port b.server in
  let server = ref b.server in
  let retrying = Client.connect ~attempts:8 ~backoff_us:50_000 b.transport port in
  let pre_crash = Client.create retrying (payload 2_048) in
  let timeout = Amoeba_rpc.Net_model.amoeba.Amoeba_rpc.Net_model.timeout_us in
  let crash_at = Clock.now b.rig.clock + 1_000 in
  let reboot_at = crash_at + (3 * timeout) in
  let plan =
    Plan.create ~seed:0xC0FFEEL
    |> fun p -> Plan.at p ~us:crash_at Plan.Server_crash
    |> fun p -> Plan.at p ~us:reboot_at Plan.Server_reboot
  in
  let act : Plan.event -> unit = function
    | Server_crash ->
      Transport.unregister b.transport port;
      Server.crash !server
    | Server_reboot ->
      let booted, _ = Result.get_ok (Server.start ~config:small_bullet_config b.rig.mirror) in
      server := booted;
      Bullet_core.Proto.serve booted b.transport
    | _ -> ()
  in
  let injector =
    Injector.attach ~transport:b.transport ~mirror:b.rig.mirror ~act ~clock:b.rig.clock plan
  in
  Clock.advance b.rig.clock 1_000;
  (* this read starts inside the outage: it times out, backs off, and a
     later attempt lands after the reboot has re-registered the port *)
  check_bytes "op spans the outage" (payload 2_048) (Client.read retrying pre_crash);
  check_bool "it took retries" true (Stats.count (Client.stats retrying) "retries" > 0);
  check_int "crash fired" 1 (Stats.count (Injector.stats injector) "server_crashes");
  check_int "reboot fired" 1 (Stats.count (Injector.stats injector) "server_reboots");
  check_bytes "pre-crash capability valid after reboot" (payload 2_048)
    (Client.read retrying pre_crash);
  Injector.detach injector

let run_loss_workload () =
  let b = make_bullet () in
  let retrying = Client.connect ~attempts:10 ~backoff_us:10_000 b.transport (Server.port b.server) in
  let plan = Plan.create ~seed:0xD13EL |> fun p -> Plan.at p ~us:0 (Plan.Message_loss 0.1) in
  let injector = Injector.attach ~transport:b.transport ~mirror:b.rig.mirror ~clock:b.rig.clock plan in
  for i = 1 to 10 do
    let cap = Client.create retrying (payload (200 + i)) in
    ignore (Client.read retrying cap)
  done;
  Injector.detach injector;
  (Clock.now b.rig.clock, Stats.count (Client.stats retrying) "retries")

let test_same_seed_same_run () =
  let t1, r1 = run_loss_workload () in
  let t2, r2 = run_loss_workload () in
  check_int "identical virtual end time" t1 t2;
  check_int "identical retry count" r1 r2;
  check_bool "faults did occur" true (r1 > 0)

(* ---- the plan line DSL ---- *)

let test_plan_parse () =
  let text =
    "# a full tour of the grammar\n\
     seed 42\n\
     at 1000 drive_fail 0\n\
     at 2000 drive_rejoin 128\n\
     \n\
     at 3000 loss 0.25\n\
     at 4000 link_loss wide 0.5\n\
     at 5000 link_partition wide\n\
     at 6000 link_heal wide\n\
     at 7000 server_crash\n"
  in
  match Plan.parse text with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok plan ->
    check_int "seven steps" 7 (List.length (Plan.steps plan));
    (match Plan.steps plan with
    | { Plan.at_us = 1000; event = Plan.Drive_fail 0 }
      :: { Plan.at_us = 2000; event = Plan.Drive_rejoin 128 }
      :: _ -> ()
    | _ -> Alcotest.fail "first steps mis-parsed");
    check_bool "link event parsed" true
      (List.exists
         (fun s -> s.Plan.event = Plan.Link_loss (Amoeba_rpc.Link.Wide, 0.5))
         (Plan.steps plan))

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub haystack i nn = needle || at (i + 1)) in
  at 0

let test_plan_parse_errors_carry_line () =
  let pinned text expected =
    match Plan.parse text with
    | Ok _ -> Alcotest.failf "expected a parse error for %S" text
    | Error e -> Alcotest.(check string) "exact error" expected e
  in
  (* line, 1-based column of the offending token, and the token itself *)
  pinned "at 10 drive_fail 0\nat nonsense here\n"
    "plan line 2, col 4: bad time: \"nonsense\"";
  pinned "at 10 link_loss marsnet 0.5\n"
    "plan line 1, col 17: unknown link class: \"marsnet\"";
  pinned "seed 42\nat 10 drive_fial 0\n"
    "plan line 2, col 7: unknown event: \"drive_fial\"";
  pinned "at 10 loss\n" "plan line 1, col 11: missing operand after \"loss\"";
  pinned "at 5000\n" "plan line 1, col 8: missing event after \"at <us>\"";
  pinned "at 10 txn_crash coord_between\n"
    "plan line 1, col 17: unknown txn crash edge: \"coord_between\"";
  pinned "at 10 txn_drop sideways 1\n"
    "plan line 1, col 16: unknown txn leg: \"sideways\"";
  pinned "frob 1\n" "plan line 1, col 1: unknown directive: \"frob\"";
  pinned "at 10 shard_kill\n" "plan line 1, col 17: missing operand after \"shard_kill\"";
  pinned "seed 3\nat 10 shard_kill bee cow\n"
    "plan line 2, col 18: extra operand after \"shard_kill\": \"bee\""

let test_plan_parse_shard_kill () =
  match Plan.parse "seed 7\nat 4000000 shard_kill bee\nat 9000000 shard_kill emu\n" with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok plan ->
    check_int "two steps" 2 (List.length (Plan.steps plan));
    (match Plan.steps plan with
    | { Plan.at_us = 4_000_000; event = Plan.Shard_kill "bee" }
      :: { Plan.at_us = 9_000_000; event = Plan.Shard_kill "emu" }
      :: [] -> ()
    | _ -> Alcotest.fail "shard_kill steps mis-parsed");
    check_bool "describes the victim" true
      (contains
         (Format.asprintf "%a" Plan.pp_event (Plan.Shard_kill "bee"))
         "bee")

(* The injector hands the harness events to [act] as they fire and
   counts them: a shard kill and a lease skew when their time comes, and
   an armed txn crash exactly once, only when the transaction reaches
   its edge. Arming it, and every other edge, is not an action. *)
let test_harness_events_reach_act () =
  let clock = Amoeba_sim.Clock.create () in
  let plan =
    match
      Plan.parse
        "at 1000 shard_kill bee\nat 1000 lease_skew -250\nat 2000 txn_crash coord_after_prepare\n"
    with
    | Ok p -> p
    | Error e -> failwith e
  in
  let acted = ref [] in
  let injector = Injector.attach ~act:(fun ev -> acted := ev :: !acted) ~clock plan in
  let seen () = List.rev !acted in
  let count key = Stats.count (Injector.stats injector) key in
  check_bool "not yet" true (seen () = []);
  Clock.advance clock 1_000;
  Injector.poll injector;
  check_bool "kill and skew, in plan order" true
    (seen () = [ Plan.Shard_kill "bee"; Plan.Lease_clock_skew (-250) ]);
  check_int "kill counted" 1 (count "shard_kills");
  check_int "skew counted" 1 (count "lease_skews");
  acted := [];
  Clock.advance clock 1_000;
  Injector.txn_point injector Plan.Coord_before_prepare;
  check_int "armed" 1 (count "txn_crashes_armed");
  check_bool "arming and other edges do not act" true (seen () = []);
  Injector.txn_point injector Plan.Coord_after_prepare;
  Injector.txn_point injector Plan.Coord_after_prepare;
  check_bool "the armed edge acts once" true
    (seen () = [ Plan.Txn_crash Plan.Coord_after_prepare ]);
  check_int "crash counted once" 1 (count "txn_crashes");
  Injector.detach injector

let test_plan_parse_txn_directives () =
  let text =
    "seed 9\n\
     at 100 txn_crash coord_before_prepare\n\
     at 200 txn_crash coord_after_prepare\n\
     at 300 txn_crash coord_after_commit\n\
     at 400 txn_crash coord_mid_decision\n\
     at 500 txn_crash participant_after_prepare\n\
     at 600 txn_drop prepare_req 2\n\
     at 700 txn_drop decision_reply 1\n\
     at 800 txn_dup decision_req\n"
  in
  match Plan.parse text with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok plan ->
    check_int "eight steps" 8 (List.length (Plan.steps plan));
    check_bool "edges round-trip" true
      (List.exists
         (fun s -> s.Plan.event = Plan.Txn_crash Plan.Coord_after_commit_record)
         (Plan.steps plan));
    check_bool "drop leg and count" true
      (List.exists
         (fun s -> s.Plan.event = Plan.Txn_drop (Plan.Prepare_request, 2))
         (Plan.steps plan));
    check_bool "dup leg" true
      (List.exists
         (fun s -> s.Plan.event = Plan.Txn_dup (Plan.Decision_request))
         (Plan.steps plan))

let test_drive_rejoin_via_plan () =
  let rig = make_rig ~sectors:1024 () in
  Mirror.write rig.mirror ~sync:2 ~sector:10 (payload 512);
  let fail_at = Clock.now rig.clock + 100 in
  let plan =
    Plan.create ~seed:6L
    |> fun p -> Plan.at p ~us:fail_at (Plan.Drive_fail 1)
    |> fun p -> Plan.at p ~us:(fail_at + 100) (Plan.Drive_rejoin 256)
  in
  let injector = Injector.attach ~mirror:rig.mirror ~clock:rig.clock plan in
  Clock.advance rig.clock 100;
  Injector.poll injector;
  check_bool "drive down" true (Dev.is_failed rig.drive2);
  Mirror.write rig.mirror ~sync:1 ~sector:20 (payload 512);
  Clock.advance rig.clock 100;
  (* the rejoin fires AND the same poll runs the first resync step *)
  Injector.poll injector;
  check_bool "drive back" false (Dev.is_failed rig.drive2);
  check_int "rejoin counted" 1 (Stats.count (Injector.stats injector) "drive_rejoins");
  (match Mirror.sync_state rig.mirror with
  | Mirror.Resyncing { sectors_remaining } ->
    check_int "first batch already drained" (1024 - 256) sectors_remaining
  | _ -> Alcotest.fail "expected Resyncing");
  (* keep polling: the injector paces the resync to completion *)
  let rec pump n =
    if n > 0 && Mirror.sync_state rig.mirror <> Mirror.Clean then begin
      Clock.advance rig.clock 10;
      Injector.poll injector;
      pump (n - 1)
    end
  in
  pump 10;
  check_bool "clean after a few polls" true (Mirror.sync_state rig.mirror = Mirror.Clean);
  check_int "whole resync observed" 1 (Stats.count (Injector.stats injector) "online_resyncs");
  check_bytes "outage write made it to the rejoined drive" (payload 512)
    (Dev.peek rig.drive2 ~sector:20 ~count:1);
  Injector.detach injector

let test_link_faults_scope_to_tagged_traffic () =
  let rig = make_rig () in
  let plan =
    Plan.create ~seed:7L |> fun p -> Plan.at p ~us:0 (Plan.Link_partition Amoeba_rpc.Link.Wide)
  in
  let injector = Injector.attach ~clock:rig.clock plan in
  let msg = Message.request ~port:(Amoeba_cap.Port.of_int64 9L) ~command:1 () in
  Injector.poll injector;
  (match Injector.verdict injector ~link:(Some Amoeba_rpc.Link.Wide) msg with
  | Transport.Drop_request -> ()
  | _ -> Alcotest.fail "partitioned link must drop");
  (match Injector.verdict injector ~link:None msg with
  | Transport.Deliver -> ()
  | _ -> Alcotest.fail "untagged traffic unaffected");
  (match Injector.verdict injector ~link:(Some Amoeba_rpc.Link.Local) msg with
  | Transport.Deliver -> ()
  | _ -> Alcotest.fail "other links unaffected");
  check_int "drops counted" 1 (Stats.count (Injector.stats injector) "link_partition_drops");
  Injector.detach injector

let run_resync_workload () =
  (* a fail + rejoin riding a live read workload, twice: the scheduler's
     interleaving must be a pure function of plan + workload *)
  let b = make_bullet () in
  let retrying = Client.connect ~attempts:4 ~backoff_us:25_000 b.transport (Server.port b.server) in
  let caps = Array.init 8 (fun i -> Client.create retrying ~p_factor:2 (payload (8_192 + i))) in
  let plan =
    Plan.create ~seed:0x5E5CL
    |> fun p -> Plan.at p ~us:(Clock.now b.rig.clock + 50_000) (Plan.Drive_fail 0)
    |> fun p -> Plan.at p ~us:(Clock.now b.rig.clock + 400_000) (Plan.Drive_rejoin 512)
  in
  let injector = Injector.attach ~transport:b.transport ~mirror:b.rig.mirror ~clock:b.rig.clock plan in
  for i = 0 to 63 do
    ignore (Client.read retrying caps.(i mod 8));
    Clock.advance b.rig.clock 5_000;
    Injector.poll injector
  done;
  let m = Mirror.stats b.rig.mirror in
  Injector.detach injector;
  ( Clock.now b.rig.clock,
    Stats.count m "resync_steps",
    Stats.count m "resync_sectors",
    Mirror.sync_state_label b.rig.mirror )

let test_online_resync_deterministic () =
  let t1, steps1, sectors1, state1 = run_resync_workload () in
  let t2, steps2, sectors2, state2 = run_resync_workload () in
  check_int "identical end time" t1 t2;
  check_int "identical step count" steps1 steps2;
  check_int "identical sectors copied" sectors1 sectors2;
  check_string "identical final state" state1 state2;
  check_bool "the resync actually ran" true (steps1 > 0)

let suite =
  ( "fault",
    [
      Alcotest.test_case "plan keeps insertion order" `Quick test_plan_steps_in_order;
      Alcotest.test_case "scripted drive failure fires on poll" `Quick
        test_scripted_drive_failure_fires_on_poll;
      Alcotest.test_case "same-time events fire in plan order" `Quick
        test_same_time_events_fire_in_plan_order;
      Alcotest.test_case "recovery runs off the measured path" `Quick
        test_recovery_runs_off_the_measured_path;
      Alcotest.test_case "sector error rates switch on and off" `Quick
        test_sector_error_rates_switch_on_and_off;
      Alcotest.test_case "message loss recovered by retry" `Quick
        test_message_loss_recovered_by_retry;
      Alcotest.test_case "create dedup on lost reply" `Quick test_create_dedup_on_lost_reply;
      Alcotest.test_case "delete dedup on lost reply" `Quick test_delete_dedup_on_lost_reply;
      Alcotest.test_case "retry exhaustion surfaces timeout" `Quick
        test_retry_exhaustion_surfaces_timeout;
      Alcotest.test_case "crash and reboot spanned by retries" `Quick
        test_crash_reboot_spanned_by_retries;
      Alcotest.test_case "same seed, same run" `Quick test_same_seed_same_run;
      Alcotest.test_case "plan text parses" `Quick test_plan_parse;
      Alcotest.test_case "plan parse errors carry line, col and token" `Quick
        test_plan_parse_errors_carry_line;
      Alcotest.test_case "txn directives parse" `Quick test_plan_parse_txn_directives;
      Alcotest.test_case "shard_kill directives parse" `Quick test_plan_parse_shard_kill;
      Alcotest.test_case "harness events reach act" `Quick test_harness_events_reach_act;
      Alcotest.test_case "drive rejoin via plan, injector paces resync" `Quick
        test_drive_rejoin_via_plan;
      Alcotest.test_case "link faults scope to tagged traffic" `Quick
        test_link_faults_scope_to_tagged_traffic;
      Alcotest.test_case "online resync is deterministic" `Quick
        test_online_resync_deterministic;
    ] )
