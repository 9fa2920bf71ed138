open Common

module Txn = Amoeba_txn.Txn
module Txn_wal = Amoeba_txn.Wal
module Bullet_fsck = Bullet_core.Fsck

(* One transport, a Bullet file server and TWO replicated directory
   pairs (each on its own pair of stores) — the smallest stack on which
   all three multi-object scenarios run, including a rename whose two
   participants live on different pairs.  Everything hangs off one
   virtual clock, so every run is exactly reproducible. *)
type txn_rig = {
  tx_clock : Clock.t;
  tx_transport : Transport.t;
  tx_files : Server.t;
  tx_files_client : Client.t;
  tx_pair_a : Pair.t;
  tx_dirs_a : Dir_client.t;
  tx_pair_b : Pair.t;
  tx_dirs_b : Dir_client.t;
}

let make_txn_rig () =
  let clock = Clock.create () in
  let transport = Transport.create ~clock in
  let boot = boot_served ~clock transport in
  let files, files_client = boot "txn-files" 5L in
  let _, store_ap = boot "txn-dir-ap" 11L in
  let _, store_ab = boot "txn-dir-ab" 22L in
  let _, store_bp = boot "txn-dir-bp" 33L in
  let _, store_bb = boot "txn-dir-bb" 44L in
  (* distinct seeds: each pair mints its own service port and seals *)
  let pair_a = Pair.create ~seed:0xA11CEL ~primary_store:store_ap ~backup_store:store_ab () in
  let pair_b = Pair.create ~seed:0xB0BCA7L ~primary_store:store_bp ~backup_store:store_bb () in
  Pair.serve pair_a transport;
  Pair.serve pair_b transport;
  {
    tx_clock = clock;
    tx_transport = transport;
    tx_files = files;
    tx_files_client = files_client;
    tx_pair_a = pair_a;
    tx_dirs_a = Dir_client.connect transport (Pair.port pair_a);
    tx_pair_b = pair_b;
    tx_dirs_b = Dir_client.connect transport (Pair.port pair_b);
  }

let txn_bound dirs root name =
  match Dir_client.lookup dirs root name with
  | cap -> Some cap
  | exception Status.Error _ -> None

(* The reference roots for the orphan check: every capability the naming
   layer can still reach, including the older entries of each version
   stack.  The directory servers persist into their own stores, so the
   file server's live set must be covered by the listings alone. *)
let txn_reachable rig =
  let from_pair dirs pair =
    let root = Pair.root pair in
    List.concat_map
      (fun (name, _) -> Dir_client.versions dirs root name)
      (Dir_client.list dirs root)
  in
  from_pair rig.tx_dirs_a rig.tx_pair_a @ from_pair rig.tx_dirs_b rig.tx_pair_b

(* Prepared residue left anywhere after resolution — must be zero. *)
let txn_residue rig =
  Server.txn_pending_count rig.tx_files
  + Server.txn_condemned_count rig.tx_files
  + Dir_server.txn_pending_count (Pair.primary rig.tx_pair_a)
  + Dir_server.txn_pending_count (Pair.backup rig.tx_pair_a)
  + Dir_server.txn_pending_count (Pair.primary rig.tx_pair_b)
  + Dir_server.txn_pending_count (Pair.backup rig.tx_pair_b)

let txn_dumps_equal rig =
  let pa, ba = Pair.replica_dumps rig.tx_pair_a in
  let pb, bb = Pair.replica_dumps rig.tx_pair_b in
  String.equal pa ba && String.equal pb bb

(* Each scenario sets up its own initial state against the rig and
   returns its name, a driver (None = the coordinator crashed mid-run)
   and an atomicity oracle: given the resolved outcome, is the visible
   state exactly the committed state or exactly the initial state —
   never a mixture. *)
let txn_scenario_create rig =
  let data = Bytes.make 2_048 'N' in
  let root = Pair.root rig.tx_pair_a in
  let run txn =
    match
      Txn.create_and_bind txn ~bullet:rig.tx_files_client ~dir:rig.tx_dirs_a ~dir_cap:root
        ~name:"fresh" data
    with
    | outcome, _cap -> Some outcome
    | exception Txn.Crashed _ -> None
  in
  let atomic outcome =
    match txn_bound rig.tx_dirs_a root "fresh" with
    | Some cap ->
      String.equal outcome "committed"
      && (match Client.read rig.tx_files_client cap with
         | bytes -> Bytes.equal bytes data
         | exception Status.Error _ -> false)
    | None -> String.equal outcome "aborted"
  in
  ("create_and_bind", run, atomic)

let txn_scenario_rename rig =
  let data = Bytes.make 2_048 'R' in
  let cap = Client.create rig.tx_files_client data in
  let root_a = Pair.root rig.tx_pair_a and root_b = Pair.root rig.tx_pair_b in
  Dir_client.enter rig.tx_dirs_a root_a "from" cap;
  let run txn =
    match
      Txn.rename txn
        ~from:(rig.tx_dirs_a, root_a, "from")
        ~into:(rig.tx_dirs_b, root_b, "into")
    with
    | outcome -> Some outcome
    | exception Txn.Crashed _ -> None
  in
  let atomic outcome =
    match
      (outcome, txn_bound rig.tx_dirs_a root_a "from", txn_bound rig.tx_dirs_b root_b "into")
    with
    | "committed", None, Some c -> Cap.equal c cap
    | "aborted", Some c, None -> Cap.equal c cap
    | _ -> false
  in
  ("rename", run, atomic)

let txn_scenario_replace rig =
  let old_data = Bytes.make 2_048 'O' and new_data = Bytes.make 2_048 'W' in
  let old_cap = Client.create rig.tx_files_client old_data in
  let root = Pair.root rig.tx_pair_a in
  Dir_client.enter rig.tx_dirs_a root "doc" old_cap;
  let run txn =
    match
      Txn.replace_with_delete txn ~bullet:rig.tx_files_client ~dir:rig.tx_dirs_a ~dir_cap:root
        ~name:"doc" new_data
    with
    | outcome, _cap -> Some outcome
    | exception Txn.Crashed _ -> None
  in
  let atomic outcome =
    match txn_bound rig.tx_dirs_a root "doc" with
    | None -> false
    | Some now -> (
      let read cap =
        match Client.read rig.tx_files_client cap with
        | bytes -> Some bytes
        | exception Status.Error _ -> None
      in
      match (outcome, read now, read old_cap) with
      | "committed", Some bytes, None ->
        (not (Cap.equal now old_cap)) && Bytes.equal bytes new_data
      | "aborted", Some bytes, Some _ -> Cap.equal now old_cap && Bytes.equal bytes old_data
      | _ -> false)
  in
  ("replace_with_delete", run, atomic)

type txn_fault = {
  tf_plan : string;
  tf_scenario : string;
  tf_expected : string;  (** the outcome the plan must resolve to *)
  tf_outcome : string;  (** the post-recovery outcome: committed or aborted *)
  tf_crashed : bool;  (** a crash directive actually fired mid-protocol *)
  tf_in_doubt_before : int;  (** WAL in-doubt count when recovery starts *)
  tf_resolved_commits : int;
  tf_resolved_aborts : int;
  tf_atomic : bool;  (** visible state matches the outcome everywhere — never mixed *)
  tf_orphans : int;  (** fsck orphans on the file server after recovery — must be 0 *)
  tf_pending : int;  (** prepared residue anywhere after recovery — must be 0 *)
  tf_dumps_equal : bool;  (** both pairs byte-identical across replicas *)
  tf_stable : bool;  (** a second recovery pass finds nothing to do *)
}

(* Every edge of the protocol, one named plan each: the five crash
   points (scripted as [txn_crash] directives through the plan DSL) and
   loss / duplication on each of the four message legs.  The expected
   outcome is pinned per plan: a fault before the commit record must
   resolve to aborted-everywhere, after it to committed-everywhere. *)
let txn_fault_table =
  [
    ("coord-crash-before-prepare", "txn_crash coord_before_prepare", `Create, "aborted", 1);
    ("coord-crash-after-prepare", "txn_crash coord_after_prepare", `Create, "aborted", 1);
    ("coord-crash-after-commit-record", "txn_crash coord_after_commit", `Rename, "committed", 1);
    ("coord-crash-mid-decision", "txn_crash coord_mid_decision", `Replace, "committed", 1);
    ("participant-crash-after-prepare", "txn_crash participant_after_prepare", `Create,
      "committed", 0);
    ("drop-prepare-req", "txn_drop prepare_req 1", `Create, "aborted", 0);
    ("drop-prepare-reply", "txn_drop prepare_reply 1", `Rename, "aborted", 0);
    ("drop-decision-req", "txn_drop decision_req 1", `Create, "committed", 1);
    ("drop-decision-reply", "txn_drop decision_reply 1", `Replace, "committed", 1);
    ("dup-prepare-req", "txn_dup prepare_req", `Rename, "committed", 0);
    ("dup-prepare-reply", "txn_dup prepare_reply", `Create, "committed", 0);
    ("dup-decision-req", "txn_dup decision_req", `Replace, "committed", 0);
    ("dup-decision-reply", "txn_dup decision_reply", `Rename, "committed", 0);
  ]

let txn_run_case (plan_name, directive, which, expected, _expected_doubt) =
  let rig = make_txn_rig () in
  let scenario =
    match which with
    | `Create -> txn_scenario_create
    | `Rename -> txn_scenario_rename
    | `Replace -> txn_scenario_replace
  in
  let sc_name, run, atomic = scenario rig in
  let plan_text = Printf.sprintf "seed 424242\nat 0 %s\n" directive in
  let plan = match Plan.parse plan_text with Ok p -> p | Error e -> failwith e in
  (* the crash action defines what "crash" means per edge: coordinator
     edges unwind the coordinator (the WAL survives); the participant
     edge kills the directory pair's primary replica instead *)
  let injector =
    Injector.attach ~transport:rig.tx_transport
      ~act:(function
        | Plan.Txn_crash Participant_after_prepare -> Pair.fail_primary rig.tx_pair_a
        | Plan.Txn_crash edge -> raise (Txn.Crashed edge)
        | _ -> ())
      ~clock:rig.tx_clock plan
  in
  let txn =
    Txn.create ~injector ~metrics:(Server.metrics rig.tx_files)
      ~bullets:[ rig.tx_files_client ]
      ~dirs:[ rig.tx_dirs_a; rig.tx_dirs_b ]
      ()
  in
  let ran = run txn in
  let participant_down = not (Pair.primary_alive rig.tx_pair_a) in
  let in_doubt_before = Txn.in_doubt_count txn in
  (* recovery: heal the crashed replica first (it restores from the
     surviving checkpoint, intents and all), then resolve the WAL *)
  if participant_down then Pair.heal_primary rig.tx_pair_a;
  let resolved = Txn.recover txn in
  let again = Txn.recover txn in
  Injector.detach injector;
  let outcome =
    match ran with
    | Some o -> Txn.outcome_name o
    | None -> if resolved.Txn.resolved_commits > 0 then "committed" else "aborted"
  in
  {
    tf_plan = plan_name;
    tf_scenario = sc_name;
    tf_expected = expected;
    tf_outcome = outcome;
    tf_crashed = ran = None || participant_down;
    tf_in_doubt_before = in_doubt_before;
    tf_resolved_commits = resolved.Txn.resolved_commits;
    tf_resolved_aborts = resolved.Txn.resolved_aborts;
    tf_atomic = atomic outcome;
    tf_orphans = List.length (Bullet_fsck.orphans rig.tx_files ~reachable:(txn_reachable rig));
    tf_pending = txn_residue rig;
    tf_dumps_equal = txn_dumps_equal rig;
    tf_stable = again.Txn.resolved_commits = 0 && again.Txn.resolved_aborts = 0;
  }

(* The unfaulted baseline: all three scenarios through one coordinator,
   every one committing cleanly. *)
let txn_quiet_run () =
  let rig = make_txn_rig () in
  let scenarios = [ txn_scenario_create rig; txn_scenario_rename rig; txn_scenario_replace rig ] in
  let txn =
    Txn.create
      ~bullets:[ rig.tx_files_client ]
      ~dirs:[ rig.tx_dirs_a; rig.tx_dirs_b ]
      ()
  in
  let outcomes =
    List.map
      (fun (name, run, atomic) ->
        let outcome =
          match run txn with Some o -> Txn.outcome_name o | None -> "crashed"
        in
        (name, outcome, atomic outcome))
      scenarios
  in
  let clean =
    List.for_all (fun (_, _, ok) -> ok) outcomes
    && Txn.in_doubt_count txn = 0
    && txn_residue rig = 0
    && txn_dumps_equal rig
    && Bullet_fsck.orphans rig.tx_files ~reachable:(txn_reachable rig) = []
  in
  (List.map (fun (n, o, _) -> (n, o)) outcomes, Txn_wal.length (Txn.wal txn), clean)

(* The health story: a coordinator dies between two decision legs and
   stays dead.  The [txn.in_doubt] gauge (mounted on the file server's
   registry, so STD_STATUS serves it) reads 1; one scrape of doubt is a
   decision leg in flight, two consecutive flips the health state to
   txn_stuck; recovery drains the gauge and hysteresis walks the state
   back to healthy. *)
let txn_health_story () =
  let rig = make_txn_rig () in
  let plan =
    match Plan.parse "seed 9\nat 0 txn_crash coord_mid_decision\n" with
    | Ok p -> p
    | Error e -> failwith e
  in
  let injector =
    Injector.attach ~transport:rig.tx_transport
      ~act:(function Plan.Txn_crash edge -> raise (Txn.Crashed edge) | _ -> ())
      ~clock:rig.tx_clock plan
  in
  let registry = Server.metrics rig.tx_files in
  let txn =
    Txn.create ~injector ~metrics:registry
      ~bullets:[ rig.tx_files_client ]
      ~dirs:[ rig.tx_dirs_a; rig.tx_dirs_b ]
      ()
  in
  let _, run, _ = txn_scenario_create rig in
  (match run txn with
  | None -> ()
  | Some _ -> failwith "txn health story: the armed crash did not fire");
  Injector.detach injector;
  let interval_us = 500_000 in
  let w = watch ~registry ~clock:rig.tx_clock ~interval_us ~capacity:32 [] in
  let scrape n =
    for _ = 1 to n do
      Clock.advance rig.tx_clock interval_us;
      poll w
    done
  in
  scrape 3;
  let stuck = Health.state w.health in
  let (_ : Txn.recovery) = Txn.recover txn in
  scrape 3;
  let status = Bullet_core.Proto.encode_status rig.tx_files in
  let has_gauges =
    match Bullet_core.Proto.decode_status status with
    | Error _ -> false
    | Ok snap ->
      Option.is_some (Metrics.find snap "txn.in_doubt")
      && Option.is_some (Metrics.find snap "txn.committed")
      && Option.is_some (Metrics.find snap "txn.aborted")
      && Option.is_some (Metrics.find snap "txn.prepared")
  in
  let transitions =
    List.map (fun (at, st) -> (at, Health.state_label st)) (Health.transitions w.health)
  in
  (transitions, Health.state_label stuck, has_gauges)

type txn_report = {
  tx_quiet : (string * string) list;  (** scenario name, outcome of the unfaulted run *)
  tx_quiet_wal : int;  (** WAL records after the three quiet commits *)
  tx_quiet_clean : bool;  (** quiet runs atomic, residue-free, orphan-free *)
  tx_faults : txn_fault list;
  tx_health : (int * string) list;  (** health transitions of the stuck-coordinator run *)
  tx_stuck_label : string;  (** the state while the coordinator stayed dead *)
  tx_status_has_gauges : bool;  (** STD_STATUS carries the [txn.*] surface *)
}

let assert_txn_invariants r =
  let check = invariant "TXN" in
  check "quiet runs all commit"
    (List.for_all (fun (_, o) -> String.equal o "committed") r.tx_quiet);
  check "quiet runs leave no residue and full WAL coverage"
    (r.tx_quiet_clean && r.tx_quiet_wal = 16);
  List.iter
    (fun f ->
      let ck what cond = check (Printf.sprintf "%s: %s" f.tf_plan what) cond in
      ck (Printf.sprintf "resolves to %s" f.tf_expected)
        (String.equal f.tf_outcome f.tf_expected);
      ck "atomic (never mixed)" f.tf_atomic;
      ck "no orphaned objects" (f.tf_orphans = 0);
      ck "no prepared residue" (f.tf_pending = 0);
      ck "replica dumps byte-identical" f.tf_dumps_equal;
      ck "recovery idempotent" f.tf_stable)
    r.tx_faults;
  check "every crash plan actually crashed"
    (List.for_all
       (fun f ->
         (not (String.length f.tf_plan > 4 && String.sub f.tf_plan 0 4 = "coor"))
         && not (String.length f.tf_plan > 4 && String.sub f.tf_plan 0 4 = "part")
         || f.tf_crashed)
       r.tx_faults);
  check "stuck coordinator reads txn_stuck:1" (String.equal r.tx_stuck_label "txn_stuck:1");
  check "health walks healthy -> txn_stuck -> healthy"
    (match List.map snd r.tx_health with
    | [ "healthy"; "txn_stuck:1"; "healthy" ] -> true
    | _ -> false);
  check "STD_STATUS carries the txn gauges" r.tx_status_has_gauges

let txn_experiment () =
  let quiet, quiet_wal, quiet_clean = txn_quiet_run () in
  let faults = List.map txn_run_case txn_fault_table in
  let health, stuck_label, has_gauges = txn_health_story () in
  let report =
    {
      tx_quiet = quiet;
      tx_quiet_wal = quiet_wal;
      tx_quiet_clean = quiet_clean;
      tx_faults = faults;
      tx_health = health;
      tx_stuck_label = stuck_label;
      tx_status_has_gauges = has_gauges;
    }
  in
  assert_txn_invariants report;
  report

(* Deterministic text dump — one line per quiet run, per fault plan and
   per health transition. *)
let txn_dump r =
  let buf = Buffer.create 4_096 in
  List.iter
    (fun (name, outcome) -> Buffer.add_string buf (Printf.sprintf "quiet %s %s\n" name outcome))
    r.tx_quiet;
  Buffer.add_string buf
    (Printf.sprintf "quiet wal_records %d clean %b\n" r.tx_quiet_wal r.tx_quiet_clean);
  List.iter
    (fun f ->
      Buffer.add_string buf
        (Printf.sprintf
           "plan %s scenario %s outcome %s crashed %b in_doubt %d resolved %d/%d atomic %b \
            orphans %d pending %d dumps_equal %b stable %b\n"
           f.tf_plan f.tf_scenario f.tf_outcome f.tf_crashed f.tf_in_doubt_before
           f.tf_resolved_commits f.tf_resolved_aborts f.tf_atomic f.tf_orphans f.tf_pending
           f.tf_dumps_equal f.tf_stable))
    r.tx_faults;
  List.iter
    (fun (at, label) -> Buffer.add_string buf (Printf.sprintf "health %d %s\n" at label))
    r.tx_health;
  Buffer.add_string buf
    (Printf.sprintf "stuck %s status_gauges %b\n" r.tx_stuck_label r.tx_status_has_gauges);
  Buffer.contents buf

let txn_json r =
  let fault f =
    json_obj
      [
        ("plan", json_str f.tf_plan);
        ("scenario", json_str f.tf_scenario);
        ("outcome", json_str f.tf_outcome);
        ("crashed", string_of_bool f.tf_crashed);
        ("in_doubt", string_of_int f.tf_in_doubt_before);
        ("resolved_commits", string_of_int f.tf_resolved_commits);
        ("resolved_aborts", string_of_int f.tf_resolved_aborts);
        ("atomic", string_of_bool f.tf_atomic);
        ("orphans", string_of_int f.tf_orphans);
        ("pending", string_of_int f.tf_pending);
        ("dumps_equal", string_of_bool f.tf_dumps_equal);
      ]
  in
  json_obj
    [
      ( "quiet",
        json_arr
          (List.map
             (fun (n, o) -> json_obj [ ("scenario", json_str n); ("outcome", json_str o) ])
             r.tx_quiet) );
      ("faults", json_arr (List.map fault r.tx_faults));
      ("stuck_state", json_str r.tx_stuck_label);
      ("status_has_gauges", string_of_bool r.tx_status_has_gauges);
    ]

let run () =
  header "TXN - atomic multi-object operations, every 2PC edge fault-planned";
  let r = txn_experiment () in
  Printf.printf "\nQuiet baseline (no faults):\n";
  List.iter (fun (n, o) -> Printf.printf "  %-24s %s\n" n o) r.tx_quiet;
  Printf.printf "\nFault plans (atomic must be yes, orphans and residue 0 everywhere):\n";
  Printf.printf "  %-32s %-20s %-10s %6s %8s %7s %7s %6s\n" "plan" "scenario" "outcome"
    "doubt" "resolved" "atomic" "orphans" "equal";
  List.iter
    (fun f ->
      Printf.printf "  %-32s %-20s %-10s %6d %5d/%-2d %7s %7d %6s\n" f.tf_plan
        f.tf_scenario f.tf_outcome f.tf_in_doubt_before f.tf_resolved_commits
        f.tf_resolved_aborts
        (if f.tf_atomic then "yes" else "NO")
        f.tf_orphans
        (if f.tf_dumps_equal then "yes" else "NO"))
    r.tx_faults;
  Printf.printf "\nStuck-coordinator health walk:\n";
  List.iter
    (fun (at, label) -> Printf.printf "  %-16s at %.1f s\n" label (ms at /. 1000.))
    r.tx_health;
  Printf.printf "STD_STATUS carries txn.* gauges: %s\n"
    (if r.tx_status_has_gauges then "yes" else "NO");
  Printf.printf "  machine-readable copy written to BENCH_txn.json\n";
  Printf.printf "  full dump written to BENCH_txn_dump.txt\n";
  [ txn_json r ^ "\n"; txn_dump r ]
