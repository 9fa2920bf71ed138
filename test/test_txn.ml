(* The two-phase commit layer: WAL codec fuzz, the directory
   participant's intent locking and idempotent decisions, the orphan
   fsck, and the full TXN experiment's byte-determinism. *)

open Helpers
module Cap = Amoeba_cap.Capability
module Port = Amoeba_cap.Port
module Rights = Amoeba_cap.Rights
module Prng = Amoeba_sim.Prng
module Wal = Amoeba_txn.Wal
module Txn = Amoeba_txn.Txn
module Dir = Amoeba_dir.Dir_server
module Client = Bullet_core.Client
module Server = Bullet_core.Server
module Fsck = Bullet_core.Fsck
module Status = Amoeba_rpc.Status
module Metrics = Amoeba_metrics.Metrics
module Archiver = Amoeba_worm.Archiver

(* ---- WAL codec ---- *)

let random_cap prng =
  Cap.v
    ~port:(Port.of_int64 (Prng.next_int64 prng))
    ~obj:(Prng.int prng 100_000)
    ~rights:(Rights.of_int (Prng.int prng 256))
    ~check:(Prng.next_int64 prng)

let random_name prng = Bytes.to_string (Prng.bytes prng (Prng.int prng 40))

let random_record prng =
  let txn = Prng.int prng 1_000_000 in
  match Prng.int prng 4 with
  | 0 -> Wal.Begin txn
  | 1 ->
    let action =
      match Prng.int prng 3 with
      | 0 -> Wal.Bullet_create (random_cap prng)
      | 1 -> Wal.Bullet_delete (random_cap prng)
      | _ ->
        let op =
          match Prng.int prng 3 with
          | 0 -> Dir.Txn_enter (random_cap prng)
          | 1 -> Dir.Txn_replace (random_cap prng)
          | _ -> Dir.Txn_remove
        in
        Wal.Dir_intent { dir = random_cap prng; name = random_name prng; op }
    in
    Wal.Prepared (txn, action)
  | 2 -> Wal.Commit txn
  | _ -> Wal.Done txn

(* 1k SplitMix64-driven records through encode -> decode: every intent
   record shape, every tag, names of every length the codec allows. *)
let test_wal_codec_roundtrip () =
  let prng = Prng.create ~seed:0x7E57C0DEL in
  for i = 1 to 1_000 do
    let record = random_record prng in
    match Wal.decode_record (Wal.encode_record record) with
    | Ok decoded ->
      if decoded <> record then Alcotest.failf "roundtrip mismatch at record %d" i
    | Error e -> Alcotest.failf "record %d failed to decode: %s" i e
  done

let sample_record =
  Wal.Prepared
    ( 7,
      Wal.Dir_intent
        {
          dir = Cap.v ~port:(Port.of_int64 42L) ~obj:3 ~rights:Rights.all ~check:99L;
          name = "victim";
          op = Dir.Txn_enter (Cap.v ~port:(Port.of_int64 8L) ~obj:5 ~rights:Rights.all ~check:1L);
        } )

let test_wal_decode_rejects () =
  let encoded = Wal.encode_record sample_record in
  (match Wal.decode_record (Bytes.cat encoded (Bytes.of_string "x")) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing byte accepted");
  let bad_tag = Bytes.copy encoded in
  Bytes.set bad_tag 0 '\009';
  match Wal.decode_record bad_tag with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown record tag accepted"

(* ---- every decoder of stored bytes, cut at every length ---- *)

let sample_snapshot =
  {
    Metrics.at_us = 12;
    samples =
      [
        { Metrics.s_name = "a"; s_value = Metrics.Counter 1 };
        {
          Metrics.s_name = "h";
          s_value = Metrics.Hist { count = 1; sum = 2; p50 = 3; p95 = 4; p99 = 5; max_value = 6 };
        };
      ];
  }

(* Each strict prefix of a valid encoding is an [Error], never an
   exception. The two restores read their checkpoint from a Bullet file,
   so each cut is stored with [Client.create] first. *)
let test_truncation_is_an_error () =
  let bullet = make_bullet () in
  let client = bullet.client in
  let stored restore data =
    let cap = Client.create client data in
    let rejected = Result.is_error (restore cap) in
    Client.delete client cap;
    rejected
  in
  let dirs = Dir.create ~store:client () in
  let root = Dir.root dirs in
  let f = Client.create client (Bytes.of_string "f") in
  ok_exn (Dir.enter dirs root "bound" f);
  ignore (Dir.make_dir dirs : Cap.t);
  ok_exn (Dir.txn_prepare dirs ~txn:1 root "pending" (Dir.Txn_enter f));
  ok_exn (Dir.txn_prepare dirs ~txn:2 root "gone" (Dir.Txn_replace f));
  ok_exn (Dir.txn_commit dirs ~txn:2 root "gone" (Dir.Txn_replace f));
  let platter = Amoeba_worm.Worm_device.create ~capacity:10_000 ~clock:bullet.rig.clock in
  let archiver = Archiver.create ~store:client ~platter in
  List.iter
    (fun (name, contents) ->
      let cap = Client.create client (Bytes.of_string contents) in
      ignore (ok_exn (Archiver.archive_file archiver ~name cap) : Archiver.archived))
    [ ("doc", "v1"); ("doc", "v2"); ("notes", "n") ];
  let decoders =
    [
      ( "wal record",
        Wal.encode_record sample_record,
        fun b -> Result.is_error (Wal.decode_record b) );
      ( "metrics snapshot",
        Metrics.encode_snapshot sample_snapshot,
        fun b -> Result.is_error (Metrics.decode_snapshot b) );
      ( "directory checkpoint",
        Client.read client (ok_exn (Dir.checkpoint dirs)),
        stored (fun cap -> Dir.restore ~store:client cap) );
      ( "archiver catalog",
        Client.read client (ok_exn (Archiver.checkpoint archiver)),
        stored (fun cap -> Archiver.restore ~store:client ~platter cap) );
    ]
  in
  List.iter
    (fun (name, encoded, rejects) ->
      if rejects encoded then Alcotest.failf "%s: the whole encoding was rejected" name;
      for len = 0 to Bytes.length encoded - 1 do
        match rejects (Bytes.sub encoded 0 len) with
        | true -> ()
        | false -> Alcotest.failf "%s: truncation to %d bytes decoded" name len
        | exception e ->
          Alcotest.failf "%s: truncation to %d bytes raised %s" name len (Printexc.to_string e)
      done)
    decoders

let test_wal_log_order () =
  let wal = Wal.create () in
  let records =
    [ Wal.Begin 1; sample_record; Wal.Commit 7; Wal.Done 7; Wal.Begin 2 ]
  in
  List.iter (Wal.append wal) records;
  check_int "length" 5 (Wal.length wal);
  match Wal.records wal with
  | Ok decoded -> if decoded <> records then Alcotest.fail "decode order differs from append order"
  | Error e -> Alcotest.failf "log failed to decode: %s" e

(* ---- the directory participant ---- *)

type dir_rig = { bullet : bullet_rig; dirs : Dir.t; root : Cap.t }

let make_dir () =
  let bullet = make_bullet () in
  let dirs = Dir.create ~store:bullet.client () in
  { bullet; dirs; root = Dir.root dirs }

let file rig contents = Client.create rig.bullet.client (Bytes.of_string contents)

let test_prepare_locks_binding () =
  let rig = make_dir () in
  let bound = file rig "bound" in
  ok_exn (Dir.enter rig.dirs rig.root "held" bound);
  let fresh = file rig "fresh" in
  ok_exn (Dir.txn_prepare rig.dirs ~txn:1 rig.root "held" (Dir.Txn_replace fresh));
  (* the intent is a lock: every conflicting path refuses with Exists *)
  expect_error Status.Exists (Dir.enter rig.dirs rig.root "held" fresh);
  expect_error Status.Exists (Dir.replace rig.dirs rig.root "held" fresh);
  expect_error Status.Exists (Dir.remove_name rig.dirs rig.root "held");
  expect_error Status.Exists (Dir.txn_prepare rig.dirs ~txn:2 rig.root "held" Dir.Txn_remove);
  check_int "one pending intent" 1 (Dir.txn_pending_count rig.dirs);
  (* abort releases it; aborting again is the presumed-abort Ok *)
  ok_exn (Dir.txn_abort rig.dirs ~txn:1);
  ok_exn (Dir.txn_abort rig.dirs ~txn:1);
  check_int "no pending intents" 0 (Dir.txn_pending_count rig.dirs);
  ok_exn (Dir.replace rig.dirs rig.root "held" fresh |> Result.map ignore)

let test_prepare_votes_no () =
  let rig = make_dir () in
  let cap = file rig "x" in
  ok_exn (Dir.enter rig.dirs rig.root "taken" cap);
  expect_error Status.Exists (Dir.txn_prepare rig.dirs ~txn:1 rig.root "taken" (Dir.Txn_enter cap));
  expect_error Status.Not_found (Dir.txn_prepare rig.dirs ~txn:1 rig.root "ghost" Dir.Txn_remove)

let test_commit_idempotent_and_amnesiac () =
  let rig = make_dir () in
  let cap = file rig "payload" in
  ok_exn (Dir.txn_prepare rig.dirs ~txn:9 rig.root "n" (Dir.Txn_enter cap));
  ok_exn (Dir.txn_commit rig.dirs ~txn:9 rig.root "n" (Dir.Txn_enter cap));
  (* a replayed decision answers Ok without mutating *)
  ok_exn (Dir.txn_commit rig.dirs ~txn:9 rig.root "n" (Dir.Txn_enter cap));
  check_bool "bound once" true (Cap.equal cap (ok_exn (Dir.lookup rig.dirs rig.root "n")));
  (* an amnesiac participant (no prepare ever seen) still complies,
     because the decision carries the full intent *)
  let cap2 = file rig "other" in
  ok_exn (Dir.txn_commit rig.dirs ~txn:10 rig.root "m" (Dir.Txn_enter cap2));
  check_bool "amnesiac commit applied" true
    (Cap.equal cap2 (ok_exn (Dir.lookup rig.dirs rig.root "m")));
  ok_exn (Dir.txn_commit rig.dirs ~txn:11 rig.root "m" Dir.Txn_remove);
  ok_exn (Dir.txn_commit rig.dirs ~txn:11 rig.root "m" Dir.Txn_remove);
  expect_error Status.Not_found (Dir.lookup rig.dirs rig.root "m")

let test_checkpoint_carries_intents () =
  let rig = make_dir () in
  let cap = file rig "locked" in
  ok_exn (Dir.txn_prepare rig.dirs ~txn:3 rig.root "pending" (Dir.Txn_enter cap));
  let checkpoint = ok_exn (Dir.checkpoint rig.dirs) in
  let healed = ok_exn (Dir.restore ~store:rig.bullet.client checkpoint) in
  check_int "intent survives the heal" 1 (Dir.txn_pending_count healed);
  expect_error Status.Exists (Dir.enter healed (Dir.root healed) "pending" cap);
  ok_exn (Dir.txn_abort healed ~txn:3);
  check_int "abort clears the restored intent" 0 (Dir.txn_pending_count healed)

(* ---- orphan fsck ---- *)

let test_fsck_finds_seeded_orphan () =
  let b = make_bullet () in
  let kept1 = Client.create b.client (payload 512) in
  let kept2 = Client.create b.client (payload 1_024) in
  let orphan = Client.create b.client (payload 256) in
  let reachable = [ kept1; kept2 ] in
  (match Fsck.orphans b.server ~reachable with
  | [ obj ] -> check_int "the seeded orphan" orphan.Cap.obj obj
  | objs -> Alcotest.failf "expected one orphan, got %d" (List.length objs));
  check_int "gc collects it" 1 (Fsck.gc b.server ~reachable);
  check_bool "nothing left to collect" true (Fsck.orphans b.server ~reachable = []);
  (match Client.read b.client orphan with
  | (_ : bytes) -> Alcotest.fail "orphan still readable after gc"
  | exception Status.Error _ -> ());
  check_bytes "kept objects untouched" (payload 512) (Client.read b.client kept1)

let test_fsck_spares_pending () =
  let b = make_bullet () in
  let kept = Client.create b.client (payload 512) in
  let prepared = ok_exn (Server.txn_prepare_create b.server ~txn:5 (payload 128)) in
  (* in-flight prepares are the coordinator's to decide, not fsck's *)
  check_bool "pending object spared" true (Fsck.orphans b.server ~reachable:[ kept ] = []);
  ok_exn (Server.txn_abort_all b.server ~txn:5);
  check_bool "aborted prepare leaves nothing" true
    (Fsck.orphans b.server ~reachable:[ kept ] = []);
  ignore prepared

(* ---- the experiment, twice ---- *)

let test_txn_experiment_deterministic () =
  let first = Experiments.Txn.txn_dump (Experiments.Txn.txn_experiment ()) in
  let second = Experiments.Txn.txn_dump (Experiments.Txn.txn_experiment ()) in
  check_string "double run is byte-identical" first second

let suite =
  ( "txn",
    [
      Alcotest.test_case "wal codec round-trips 1k fuzzed records" `Quick
        test_wal_codec_roundtrip;
      Alcotest.test_case "wal decode rejects damage" `Quick test_wal_decode_rejects;
      Alcotest.test_case "every decoder rejects every truncation" `Quick test_truncation_is_an_error;
      Alcotest.test_case "wal decodes in append order" `Quick test_wal_log_order;
      Alcotest.test_case "prepare locks the binding" `Quick test_prepare_locks_binding;
      Alcotest.test_case "prepare votes no on conflicts" `Quick test_prepare_votes_no;
      Alcotest.test_case "commit is idempotent, even amnesiac" `Quick
        test_commit_idempotent_and_amnesiac;
      Alcotest.test_case "checkpoint carries intents through a heal" `Quick
        test_checkpoint_carries_intents;
      Alcotest.test_case "fsck finds a hand-seeded orphan" `Quick test_fsck_finds_seeded_orphan;
      Alcotest.test_case "fsck spares in-flight prepares" `Quick test_fsck_spares_pending;
      Alcotest.test_case "TXN experiment is byte-deterministic" `Slow
        test_txn_experiment_deterministic;
    ] )
