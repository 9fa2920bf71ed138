(* Tests for the directory server: naming, versioning, persistence via
   Bullet files, checkpoint/restore. *)

open Helpers
module Dir = Amoeba_dir.Dir_server
module Dir_client = Amoeba_dir.Dir_client
module Dir_proto = Amoeba_dir.Dir_proto
module Client = Bullet_core.Client
module Server = Bullet_core.Server
module Cap = Amoeba_cap.Capability
module Rights = Amoeba_cap.Rights
module Status = Amoeba_rpc.Status

type dir_rig = {
  bullet : bullet_rig;
  dirs : Dir.t;
  dclient : Dir_client.t;
  root : Cap.t;
}

let make ?(config = Dir.default_config) () =
  let bullet = make_bullet () in
  let dirs = Dir.create ~config ~store:bullet.client () in
  Amoeba_dir.Dir_proto.serve dirs bullet.transport;
  let dclient = Dir_client.connect bullet.transport (Dir.port dirs) in
  { bullet; dirs; dclient; root = Dir.root dirs }

let file rig contents = Client.create rig.bullet.client (Bytes.of_string contents)

let test_enter_lookup () =
  let rig = make () in
  let f = file rig "hello" in
  ok_exn (Dir.enter rig.dirs rig.root "greeting" f);
  let found = ok_exn (Dir.lookup rig.dirs rig.root "greeting") in
  check_bool "same capability" true (Cap.equal f found);
  check_string "readable through the name" "hello"
    (Bytes.to_string (Client.read rig.bullet.client found))

let test_lookup_missing () =
  let rig = make () in
  expect_error Status.Not_found (Dir.lookup rig.dirs rig.root "ghost")

let test_enter_duplicate_rejected () =
  let rig = make () in
  ok_exn (Dir.enter rig.dirs rig.root "x" (file rig "1"));
  expect_error Status.Exists (Dir.enter rig.dirs rig.root "x" (file rig "2"))

let test_empty_name_rejected () =
  let rig = make () in
  expect_error Status.Bad_request (Dir.enter rig.dirs rig.root "" (file rig "1"))

(* Rows, LIST replies, checkpoints and WAL intents store a name's length
   as a u16: the longest such name round-trips, one byte more is refused
   by every path that binds or locks a name. *)
let test_name_length_limit () =
  let rig = make () in
  let f = file rig "long" in
  let too_long = String.make 0x10000 'x' in
  expect_error Status.Bad_request (Dir.enter rig.dirs rig.root too_long f);
  expect_error Status.Bad_request (Dir.replace rig.dirs rig.root too_long f);
  expect_error Status.Bad_request
    (Dir.txn_prepare rig.dirs ~txn:1 rig.root too_long (Dir.Txn_enter f));
  let name c = String.make 0xFFFF c in
  ok_exn (Dir.enter rig.dirs rig.root (name 'a') f);
  ok_exn (Dir.txn_prepare rig.dirs ~txn:2 rig.root (name 'b') (Dir.Txn_enter f));
  ok_exn (Dir.txn_commit rig.dirs ~txn:2 rig.root (name 'b') (Dir.Txn_enter f));
  ok_exn (Dir.txn_prepare rig.dirs ~txn:3 rig.root (name 'c') (Dir.Txn_replace f));
  let names dirs root = List.map fst (ok_exn (Dir.list dirs root)) in
  check_bool "LIST carries the names" true
    (List.map fst (Dir_client.list rig.dclient rig.root) = [ name 'a'; name 'b' ]);
  let checkpoint = ok_exn (Dir.checkpoint rig.dirs) in
  let revived = Result.get_ok (Dir.restore ~store:rig.bullet.client checkpoint) in
  check_bool "rows survive a restore" true
    (names revived (Dir.root revived) = [ name 'a'; name 'b' ]);
  check_bool "intent survives a restore" true
    (List.map (fun (_, _, n) -> n) (Dir.txn_pending revived) = [ name 'c' ]);
  (* the applied decision came back too: a re-sent commit is a no-op *)
  ok_exn (Dir.txn_commit revived ~txn:2 rig.root (name 'b') (Dir.Txn_enter f))

let test_replace_versions () =
  let rig = make () in
  let v1 = file rig "v1" in
  let v2 = file rig "v2" in
  check_bool "no previous" true (ok_exn (Dir.replace rig.dirs rig.root "doc" v1) = None);
  let displaced = ok_exn (Dir.replace rig.dirs rig.root "doc" v2) in
  check_bool "v1 displaced" true (match displaced with Some c -> Cap.equal c v1 | None -> false);
  (* lookup returns the newest, versions lists both *)
  check_bool "newest" true (Cap.equal v2 (ok_exn (Dir.lookup rig.dirs rig.root "doc")));
  let vs = ok_exn (Dir.versions rig.dirs rig.root "doc") in
  check_int "two versions" 2 (List.length vs);
  (* the old version is still retrievable: immutability *)
  check_string "old readable" "v1" (Bytes.to_string (Client.read rig.bullet.client v1))

let test_version_trimming_deletes_old_files () =
  let config = { Dir.default_config with Dir.max_versions = 2 } in
  let rig = make ~config () in
  let v1 = file rig "v1" in
  let v2 = file rig "v2" in
  let v3 = file rig "v3" in
  ignore (ok_exn (Dir.replace rig.dirs rig.root "doc" v1));
  ignore (ok_exn (Dir.replace rig.dirs rig.root "doc" v2));
  ignore (ok_exn (Dir.replace rig.dirs rig.root "doc" v3));
  check_int "two retained" 2 (List.length (ok_exn (Dir.versions rig.dirs rig.root "doc")));
  (* v1 was trimmed and deleted from the Bullet server *)
  (try
     ignore (Client.read rig.bullet.client v1);
     Alcotest.fail "expected stale capability"
   with Status.Error _ -> ())

let test_remove_name () =
  let rig = make () in
  ok_exn (Dir.enter rig.dirs rig.root "x" (file rig "1"));
  ok_exn (Dir.remove_name rig.dirs rig.root "x");
  expect_error Status.Not_found (Dir.lookup rig.dirs rig.root "x");
  expect_error Status.Not_found (Dir.remove_name rig.dirs rig.root "x")

let test_list_sorted () =
  let rig = make () in
  ok_exn (Dir.enter rig.dirs rig.root "zeta" (file rig "z"));
  ok_exn (Dir.enter rig.dirs rig.root "alpha" (file rig "a"));
  ok_exn (Dir.enter rig.dirs rig.root "mid" (file rig "m"));
  check_bool "sorted names" true
    (List.map fst (ok_exn (Dir.list rig.dirs rig.root)) = [ "alpha"; "mid"; "zeta" ])

let test_nested_directories () =
  let rig = make () in
  let sub = Dir.make_dir rig.dirs in
  ok_exn (Dir.enter rig.dirs rig.root "sub" sub);
  ok_exn (Dir.enter rig.dirs sub "inner" (file rig "deep"));
  let found = ok_exn (Dir.lookup rig.dirs (ok_exn (Dir.lookup rig.dirs rig.root "sub")) "inner") in
  check_string "nested lookup" "deep" (Bytes.to_string (Client.read rig.bullet.client found))

let test_delete_dir_rules () =
  let rig = make () in
  let sub = Dir.make_dir rig.dirs in
  ok_exn (Dir.enter rig.dirs sub "x" (file rig "1"));
  expect_error Status.Bad_request (Dir.delete_dir rig.dirs sub);
  ok_exn (Dir.remove_name rig.dirs sub "x");
  ok_exn (Dir.delete_dir rig.dirs sub);
  expect_error Status.No_such_object (Dir.lookup rig.dirs sub "x");
  expect_error Status.Bad_request (Dir.delete_dir rig.dirs rig.root)

let test_rights_enforced () =
  let rig = make () in
  ok_exn (Dir.enter rig.dirs rig.root "x" (file rig "1"));
  let read_only = ok_exn (Dir.restrict rig.dirs rig.root Rights.read) in
  let (_ : Cap.t) = ok_exn (Dir.lookup rig.dirs read_only "x") in
  expect_error Status.Bad_capability (Dir.enter rig.dirs read_only "y" (file rig "2"));
  let forged = { read_only with Cap.rights = Rights.all } in
  expect_error Status.Bad_capability (Dir.enter rig.dirs forged "y" (file rig "2"))

let test_directory_persisted_as_bullet_file () =
  let rig = make () in
  let files_before = Server.live_files rig.bullet.server in
  ok_exn (Dir.enter rig.dirs rig.root "x" (file rig "1"));
  (* the directory rewrote itself as a fresh Bullet file and deleted the
     old one, so net growth is exactly the entry's own file *)
  check_int "immutable rewrite, old version deleted" (files_before + 1)
    (Server.live_files rig.bullet.server)

let test_checkpoint_restore () =
  let rig = make () in
  let f = file rig "persistent" in
  ok_exn (Dir.enter rig.dirs rig.root "keep" f);
  let sub = Dir.make_dir rig.dirs in
  ok_exn (Dir.enter rig.dirs rig.root "sub" sub);
  ok_exn (Dir.enter rig.dirs sub "inner" (file rig "nested"));
  let checkpoint = ok_exn (Dir.checkpoint rig.dirs) in
  (* "restart": rebuild a server from the checkpoint *)
  let revived = Result.get_ok (Dir.restore ~store:rig.bullet.client checkpoint) in
  check_bool "same port" true
    (Amoeba_cap.Port.equal (Dir.port rig.dirs) (Dir.port revived));
  let found = ok_exn (Dir.lookup revived (Dir.root revived) "keep") in
  check_string "binding survived" "persistent" (Bytes.to_string (Client.read rig.bullet.client found));
  let sub' = ok_exn (Dir.lookup revived (Dir.root revived) "sub") in
  let inner = ok_exn (Dir.lookup revived sub' "inner") in
  check_string "nested survived" "nested" (Bytes.to_string (Client.read rig.bullet.client inner));
  (* old capabilities still verify after restore (same sealing key) *)
  let (_ : Cap.t) = ok_exn (Dir.lookup revived rig.root "keep") in
  ()

(* A checkpoint whose one intent carries op tag 3, which no op has, is
   refused like a truncated one rather than read as some op. *)
let test_restore_rejects_unknown_intent_op () =
  let rig = make () in
  ok_exn (Dir.enter rig.dirs rig.root "x" (file rig "1"));
  ok_exn (Dir.txn_prepare rig.dirs ~txn:1 rig.root "x" Dir.Txn_remove);
  let bytes = Client.read rig.bullet.client (ok_exn (Dir.checkpoint rig.dirs)) in
  (* header (12 bytes), the root's entry with its file capability (37),
     the intent count, then the intent's txn and directory (4 each) *)
  let tag = 12 + 37 + 4 + 4 + 4 in
  check_int "the remove intent's tag" 2 (Bytes.get_uint8 bytes tag);
  Bytes.set_uint8 bytes tag 3;
  let corrupt = Client.create rig.bullet.client bytes in
  expect_error Status.Bad_request (Dir.restore ~store:rig.bullet.client corrupt)

(* ---- via RPC client ---- *)

let test_client_roundtrip () =
  let rig = make () in
  let root = Dir_client.get_root rig.dclient in
  let f = file rig "via-rpc" in
  Dir_client.enter rig.dclient root "x" f;
  check_bool "lookup" true (Cap.equal f (Dir_client.lookup rig.dclient root "x"));
  check_int "list" 1 (List.length (Dir_client.list rig.dclient root));
  check_int "versions" 1 (List.length (Dir_client.versions rig.dclient root "x"));
  Dir_client.remove_name rig.dclient root "x";
  (try
     ignore (Dir_client.lookup rig.dclient root "x");
     Alcotest.fail "expected Not_found"
   with Status.Error Status.Not_found -> ())

let test_server_side_resolve () =
  let rig = make () in
  let sub = Dir.make_dir rig.dirs in
  let subsub = Dir.make_dir rig.dirs in
  ok_exn (Dir.enter rig.dirs rig.root "a" sub);
  ok_exn (Dir.enter rig.dirs sub "b" subsub);
  ok_exn (Dir.enter rig.dirs subsub "leaf" (file rig "found"));
  let cap = ok_exn (Dir.resolve rig.dirs rig.root "a/b/leaf") in
  check_string "resolved in one call" "found" (Bytes.to_string (Client.read rig.bullet.client cap));
  expect_error Status.Not_found (Dir.resolve rig.dirs rig.root "a/zz/leaf");
  (* resolving through a non-directory component fails cleanly *)
  expect_error Status.No_such_object (Dir.resolve rig.dirs rig.root "a/b/leaf/deeper")

let test_resolve_one_rpc () =
  let rig = make () in
  let root = Dir_client.get_root rig.dclient in
  let leaf_dir = Dir_client.mkdir_path rig.dclient root "x/y/z" in
  Dir_client.enter rig.dclient leaf_dir "f" (file rig "deep");
  let stats = Amoeba_rpc.Transport.stats rig.bullet.transport in
  let before = Amoeba_sim.Stats.count stats "transactions" in
  let (_ : Cap.t) = Dir_client.resolve rig.dclient root "x/y/z/f" in
  check_int "one transaction" (before + 1) (Amoeba_sim.Stats.count stats "transactions");
  let before = Amoeba_sim.Stats.count stats "transactions" in
  let (_ : Cap.t) = Dir_client.resolve_stepwise rig.dclient root "x/y/z/f" in
  check_int "four transactions stepwise" (before + 4) (Amoeba_sim.Stats.count stats "transactions")

let test_client_resolve_and_mkdir_path () =
  let rig = make () in
  let root = Dir_client.get_root rig.dclient in
  let leaf_dir = Dir_client.mkdir_path rig.dclient root "a/b/c" in
  Dir_client.enter rig.dclient leaf_dir "f" (file rig "deep");
  let found = Dir_client.lookup rig.dclient (Dir_client.resolve rig.dclient root "a/b/c") "f" in
  check_string "resolved" "deep" (Bytes.to_string (Client.read rig.bullet.client found));
  (* mkdir_path reuses existing directories *)
  let again = Dir_client.mkdir_path rig.dclient root "a/b/c" in
  check_bool "idempotent" true (Cap.equal leaf_dir again)

let test_client_replace_returns_old () =
  let rig = make () in
  let root = Dir_client.get_root rig.dclient in
  let v1 = file rig "1" and v2 = file rig "2" in
  check_bool "none" true (Dir_client.replace rig.dclient root "d" v1 = None);
  match Dir_client.replace rig.dclient root "d" v2 with
  | Some old -> check_bool "old returned" true (Cap.equal old v1)
  | None -> Alcotest.fail "expected old version"

let suite =
  ( "directory",
    [
      Alcotest.test_case "enter and lookup" `Quick test_enter_lookup;
      Alcotest.test_case "lookup missing" `Quick test_lookup_missing;
      Alcotest.test_case "duplicate enter rejected" `Quick test_enter_duplicate_rejected;
      Alcotest.test_case "empty name rejected" `Quick test_empty_name_rejected;
      Alcotest.test_case "names up to 65,535 bytes, no longer" `Quick test_name_length_limit;
      Alcotest.test_case "replace stacks versions" `Quick test_replace_versions;
      Alcotest.test_case "version trimming deletes old Bullet files" `Quick
        test_version_trimming_deletes_old_files;
      Alcotest.test_case "remove_name" `Quick test_remove_name;
      Alcotest.test_case "list is name-sorted" `Quick test_list_sorted;
      Alcotest.test_case "nested directories" `Quick test_nested_directories;
      Alcotest.test_case "delete_dir rules" `Quick test_delete_dir_rules;
      Alcotest.test_case "rights enforced" `Quick test_rights_enforced;
      Alcotest.test_case "directory persisted as Bullet file" `Quick
        test_directory_persisted_as_bullet_file;
      Alcotest.test_case "checkpoint and restore" `Quick test_checkpoint_restore;
      Alcotest.test_case "restore rejects an unknown intent op" `Quick
        test_restore_rejects_unknown_intent_op;
      Alcotest.test_case "client roundtrip over RPC" `Quick test_client_roundtrip;
      Alcotest.test_case "server-side resolve" `Quick test_server_side_resolve;
      Alcotest.test_case "resolve is one RPC" `Quick test_resolve_one_rpc;
      Alcotest.test_case "client resolve and mkdir_path" `Quick test_client_resolve_and_mkdir_path;
      Alcotest.test_case "client replace returns old version" `Quick test_client_replace_returns_old;
    ] )
