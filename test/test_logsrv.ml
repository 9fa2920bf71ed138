(* Tests for the log server: cheap appends over immutable segments. *)

open Helpers
module Log = Log_server.Log_store
module Client = Bullet_core.Client
module Server = Bullet_core.Server
module Status = Amoeba_rpc.Status
module Cap = Amoeba_cap.Capability
module Rights = Amoeba_cap.Rights
module Clock = Amoeba_sim.Clock

let make ?(config = Log.default_config) () =
  let bullet = make_bullet () in
  let log = Log.create ~config ~store:bullet.client () in
  (bullet, log)

let b s = Bytes.of_string s

let test_append_read_roundtrip () =
  let _bullet, log = make () in
  let cap = Log.create_log log in
  check_int "len" 5 (ok_exn (Log.append log cap (b "hello")));
  check_int "len" 11 (ok_exn (Log.append log cap (b " world")));
  check_string "contents" "hello world" (Bytes.to_string (ok_exn (Log.read_log log cap)))

let test_segment_sealing_at_threshold () =
  let config = { Log.segment_bytes = 100 } in
  let _bullet, log = make ~config () in
  let cap = Log.create_log log in
  ignore (ok_exn (Log.append log cap (payload 60)));
  check_int "tail only" 0 (List.length (ok_exn (Log.segments log cap)));
  ignore (ok_exn (Log.append log cap (payload 60)));
  check_int "sealed one segment" 1 (List.length (ok_exn (Log.segments log cap)));
  check_int "durable" 120 (ok_exn (Log.durable_length log cap));
  check_int "total" 120 (ok_exn (Log.length log cap))

let test_sync_seals_tail () =
  let _bullet, log = make () in
  let cap = Log.create_log log in
  ignore (ok_exn (Log.append log cap (b "tail")));
  check_int "not durable yet" 0 (ok_exn (Log.durable_length log cap));
  ok_exn (Log.sync log cap);
  check_int "durable after sync" 4 (ok_exn (Log.durable_length log cap));
  check_int "segments" 1 (List.length (ok_exn (Log.segments log cap)))

let test_crash_loses_only_tail () =
  let _bullet, log = make () in
  let cap = Log.create_log log in
  ignore (ok_exn (Log.append log cap (b "durable.")));
  ok_exn (Log.sync log cap);
  ignore (ok_exn (Log.append log cap (b "volatile")));
  Log.crash log;
  check_string "tail lost, segments kept" "durable." (Bytes.to_string (ok_exn (Log.read_log log cap)))

let test_append_cost_independent_of_log_size () =
  (* the reason the log server exists: appending to a big log must not
     cost O(log) *)
  let bullet, log = make () in
  let cap = Log.create_log log in
  (* build up ~200 KB of sealed history *)
  let rec grow n = if n > 0 then (ignore (ok_exn (Log.append log cap (payload 10_000))); grow (n - 1)) in
  grow 20;
  ok_exn (Log.sync log cap);
  let _, t_small_append =
    Clock.elapsed bullet.rig.clock (fun () -> ignore (ok_exn (Log.append log cap (b "x"))))
  in
  (* compare with the naive alternative: whole-file copy via MODIFY *)
  let naive = Client.create bullet.client (payload 200_000) in
  let _, t_naive =
    Clock.elapsed bullet.rig.clock (fun () -> ignore (Client.append bullet.client naive (b "x")))
  in
  check_bool "log append ≪ whole-file append" true (t_small_append * 10 < t_naive)

let test_compact_log_merges_segments () =
  let config = { Log.segment_bytes = 50 } in
  let bullet, log = make ~config () in
  let cap = Log.create_log log in
  let rec grow n = if n > 0 then (ignore (ok_exn (Log.append log cap (payload 60))); grow (n - 1)) in
  grow 4;
  check_bool "several segments" true (List.length (ok_exn (Log.segments log cap)) > 1);
  let before = ok_exn (Log.read_log log cap) in
  ok_exn (Log.compact_log log cap);
  check_int "one segment" 1 (List.length (ok_exn (Log.segments log cap)));
  check_bytes "contents preserved" before (ok_exn (Log.read_log log cap));
  ignore bullet

let test_delete_log_frees_bullet_files () =
  let bullet, log = make () in
  let files_before = Server.live_files bullet.server in
  let cap = Log.create_log log in
  ignore (ok_exn (Log.append log cap (payload 100)));
  ok_exn (Log.sync log cap);
  check_bool "segment file exists" true (Server.live_files bullet.server > files_before);
  ok_exn (Log.delete_log log cap);
  check_int "files reclaimed" files_before (Server.live_files bullet.server);
  expect_error Status.No_such_object (Log.length log cap)

let test_rights_enforced () =
  let _bullet, log = make () in
  let cap = Log.create_log log in
  let forged = { cap with Cap.check = Int64.add cap.Cap.check 1L } in
  expect_error Status.Bad_capability (Log.append log forged (b "no"));
  let read_only = { cap with Cap.rights = Rights.read } in
  (* narrowing without re-sealing fails verification *)
  expect_error Status.Bad_capability (Log.append log read_only (b "no"))

let test_multiple_logs_independent () =
  let _bullet, log = make () in
  let l1 = Log.create_log log in
  let l2 = Log.create_log log in
  ignore (ok_exn (Log.append log l1 (b "one")));
  ignore (ok_exn (Log.append log l2 (b "two")));
  check_string "l1" "one" (Bytes.to_string (ok_exn (Log.read_log log l1)));
  check_string "l2" "two" (Bytes.to_string (ok_exn (Log.read_log log l2)))

let test_empty_log () =
  let _bullet, log = make () in
  let cap = Log.create_log log in
  check_int "empty" 0 (ok_exn (Log.length log cap));
  check_int "no contents" 0 (Bytes.length (ok_exn (Log.read_log log cap)));
  ok_exn (Log.sync log cap);
  check_int "sync of empty tail seals nothing" 0 (List.length (ok_exn (Log.segments log cap)))

(* ---- via RPC ---- *)

let test_client_over_rpc () =
  let bullet, log = make () in
  Log_server.Log_proto.serve log bullet.transport;
  let client = Log_server.Log_proto.connect bullet.transport (Log.port log) in
  let cap = Log_server.Log_proto.create_log client in
  check_int "append" 5 (Log_server.Log_proto.append client cap (b "hello"));
  check_int "append more" 11 (Log_server.Log_proto.append client cap (b " world"));
  check_int "not yet durable" 0 (Log_server.Log_proto.durable_length client cap);
  Log_server.Log_proto.sync client cap;
  check_int "durable" 11 (Log_server.Log_proto.durable_length client cap);
  check_string "read back" "hello world" (Bytes.to_string (Log_server.Log_proto.read_log client cap));
  Log_server.Log_proto.compact_log client cap;
  check_int "length preserved" 11 (Log_server.Log_proto.length client cap);
  Log_server.Log_proto.delete_log client cap;
  (try
     ignore (Log_server.Log_proto.length client cap);
     Alcotest.fail "expected error"
   with Status.Error Status.No_such_object -> ())

let test_rpc_append_ships_only_the_record () =
  let bullet, log = make () in
  Log_server.Log_proto.serve log bullet.transport;
  let client = Log_server.Log_proto.connect bullet.transport (Log.port log) in
  let cap = Log_server.Log_proto.create_log client in
  (* grow a large log, then check a tiny append's wire cost is tiny *)
  ignore (Log_server.Log_proto.append client cap (payload 200_000));
  let stats = Amoeba_rpc.Transport.stats bullet.transport in
  let sent_before = Amoeba_sim.Stats.count stats "bytes_sent" in
  ignore (Log_server.Log_proto.append client cap (b "x"));
  let sent = Amoeba_sim.Stats.count stats "bytes_sent" - sent_before in
  check_bool "append wire cost is O(record)" true (sent < 200)

let suite =
  ( "logsrv",
    [
      Alcotest.test_case "append/read roundtrip" `Quick test_append_read_roundtrip;
      Alcotest.test_case "segment seals at threshold" `Quick test_segment_sealing_at_threshold;
      Alcotest.test_case "sync seals the tail" `Quick test_sync_seals_tail;
      Alcotest.test_case "crash loses only the tail" `Quick test_crash_loses_only_tail;
      Alcotest.test_case "append cost independent of log size" `Quick
        test_append_cost_independent_of_log_size;
      Alcotest.test_case "compact_log merges segments" `Quick test_compact_log_merges_segments;
      Alcotest.test_case "delete_log frees Bullet files" `Quick test_delete_log_frees_bullet_files;
      Alcotest.test_case "rights enforced" `Quick test_rights_enforced;
      Alcotest.test_case "multiple logs independent" `Quick test_multiple_logs_independent;
      Alcotest.test_case "empty log" `Quick test_empty_log;
      Alcotest.test_case "client over RPC" `Quick test_client_over_rpc;
      Alcotest.test_case "RPC append ships only the record" `Quick
        test_rpc_append_ships_only_the_record;
    ] )
