(* Integration tests for the command-line tools (mkbullet, bullet_fsck),
   run as real subprocesses against image files. *)

open Helpers

let run command =
  let ic = Unix.open_process_in (command ^ " 2>&1") in
  let buf = Buffer.create 256 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  let status = Unix.close_process_in ic in
  (status, Buffer.contents buf)

let contains haystack needle =
  let h = String.length haystack and n = String.length needle in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

let in_temp_dir f =
  let dir = Filename.temp_file "bullet_tools" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let keep = Sys.getcwd () in
  Sys.chdir dir;
  Fun.protect
    ~finally:(fun () ->
      Sys.chdir keep;
      ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir))))
    f

(* the test binary runs in _build/default/test; the tools are siblings *)
let tool name = Filename.concat (Filename.dirname Sys.executable_name) ("../bin/" ^ name ^ ".exe")

let mkbullet args = run (Filename.quote (tool "mkbullet") ^ " " ^ args)

let fsck args = run (Filename.quote (tool "bullet_fsck") ^ " " ^ args)

let test_mkbullet_and_clean_fsck () =
  in_temp_dir (fun () ->
      let status, out = mkbullet "d1.img d2.img --size-mb 4 --max-files 63" in
      check_bool "mkbullet ok" true (status = Unix.WEXITED 0);
      check_bool "reports geometry" true (contains out "63 inodes");
      let status, out = fsck "d1.img d2.img" in
      check_bool "fsck ok" true (status = Unix.WEXITED 0);
      check_bool "clean" true (contains out "consistency       clean");
      check_bool "no files" true (contains out "live files        0"))

let corrupt_inode_block path =
  (* image header is 32 bytes; inode block 1 starts at 32 + 512 *)
  let oc = open_out_gen [ Open_binary; Open_wronly ] 0o644 path in
  seek_out oc (32 + 512);
  output_bytes oc (payload 512);
  close_out oc

let test_fsck_repairs_corruption () =
  in_temp_dir (fun () ->
      let (_ : Unix.process_status * string) =
        mkbullet "d1.img d2.img --size-mb 4 --max-files 63"
      in
      corrupt_inode_block "d1.img";
      corrupt_inode_block "d2.img";
      let status, out = fsck "d1.img d2.img --repair" in
      check_bool "repair run ok" true (status = Unix.WEXITED 0);
      check_bool "repairs reported" true (contains out "repaired");
      check_bool "written back" true (contains out "repairs written back");
      let _, out = fsck "d1.img d2.img" in
      check_bool "clean afterwards" true (contains out "consistency       clean"))

let test_fsck_rejects_garbage_file () =
  in_temp_dir (fun () ->
      let oc = open_out "junk.img" in
      output_string oc "not an image";
      close_out oc;
      let status, out = fsck "junk.img" in
      check_bool "nonzero exit" true (status <> Unix.WEXITED 0);
      check_bool "explains" true (contains out "junk.img"))

let test_fsck_compact () =
  in_temp_dir (fun () ->
      let (_ : Unix.process_status * string) =
        mkbullet "d1.img d2.img --size-mb 4 --max-files 63"
      in
      let status, out = fsck "d1.img d2.img --compact" in
      check_bool "compact ok" true (status = Unix.WEXITED 0);
      check_bool "reports move" true (contains out "compaction");
      check_bool "saved" true (contains out "images saved"))

let test_fsck_clean_after_crash_reboot () =
  (* A server crashes mid-workload under a fault plan and reboots off the
     surviving disks; the image that survives must be one fsck calls
     clean — the crash may lose unsynced files, never consistency. *)
  in_temp_dir (fun () ->
      let b = make_bullet () in
      let module Server = Bullet_core.Server in
      let module Client = Bullet_core.Client in
      let module Plan = Amoeba_fault.Plan in
      let port = Server.port b.server in
      let server = ref b.server in
      let client =
        Client.connect ~attempts:8 ~backoff_us:50_000 b.transport port
      in
      (* durable files, then one p=0 file the crash is allowed to lose *)
      let durable = List.init 5 (fun i -> Client.create client ~p_factor:2 (payload (500 + i))) in
      let (_ : Amoeba_cap.Capability.t) = Client.create client ~p_factor:0 (payload 9) in
      let crash_at = Amoeba_sim.Clock.now b.rig.clock + 1_000 in
      let plan =
        Plan.create ~seed:0xF5CL
        |> fun p -> Plan.at p ~us:crash_at Plan.Server_crash
        |> fun p -> Plan.at p ~us:(crash_at + 200_000) Plan.Server_reboot
      in
      let act : Plan.event -> unit = function
        | Server_crash ->
          Amoeba_rpc.Transport.unregister b.transport port;
          Server.crash !server
        | Server_reboot ->
          let booted, _ = Result.get_ok (Server.start ~config:small_bullet_config b.rig.mirror) in
          server := booted;
          Bullet_core.Proto.serve booted b.transport
        | _ -> ()
      in
      let injector =
        Amoeba_fault.Injector.attach ~transport:b.transport ~mirror:b.rig.mirror ~act
          ~clock:b.rig.clock plan
      in
      Amoeba_sim.Clock.advance b.rig.clock 1_000;
      (* reads ride out the outage on retries *)
      List.iteri
        (fun i cap -> check_bytes "survives the crash" (payload (500 + i)) (Client.read client cap))
        durable;
      Amoeba_fault.Injector.detach injector;
      Amoeba_disk.Image.save b.rig.drive1 "d1.img";
      Amoeba_disk.Image.save b.rig.drive2 "d2.img";
      let status, out = fsck "d1.img d2.img" in
      check_bool "fsck ok" true (status = Unix.WEXITED 0);
      check_bool "image is clean after crash+reboot" true (contains out "consistency       clean");
      check_bool "durable files all present" true (contains out "live files        5"))

(* ---- the daemon, end to end over real TCP ---- *)

let wait_for_port port =
  let rec go attempts =
    if attempts = 0 then false
    else
      match Amoeba_rpc.Tcp.connect ~port () with
      | conn ->
        Amoeba_rpc.Tcp.close conn;
        true
      | exception Unix.Unix_error _ ->
        Unix.sleepf 0.1;
        go (attempts - 1)
  in
  go 50

(* The daemon on ./data, logging to ./bulletd.log. It is spawned
   directly, so SIGTERM reaches the daemon itself. *)
let spawn_bulletd ?(args = []) port =
  let log = Unix.openfile "bulletd.log" [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let argv =
    [ "bulletd"; "--port"; string_of_int port; "--data"; "data"; "--size-mb"; "8" ] @ args
  in
  let pid = Unix.create_process (tool "bulletd") (Array.of_list argv) Unix.stdin log log in
  Unix.close log;
  check_bool "daemon came up" true (wait_for_port port);
  pid

let stop_bulletd pid =
  Unix.kill pid Sys.sigterm;
  snd (Unix.waitpid [] pid)

let with_daemon ?args port f =
  let pid = spawn_bulletd ?args port in
  Fun.protect ~finally:(fun () -> ignore (stop_bulletd pid)) f

let ctl port args =
  run (Printf.sprintf "%s %s --port %d" (Filename.quote (tool "bullet_ctl")) args port)

let test_daemon_end_to_end () =
  in_temp_dir (fun () ->
      let port = 17_000 + (Unix.getpid () mod 2_000) in
      let oc = open_out "hello.txt" in
      output_string oc "hello daemon";
      close_out oc;
      with_daemon port (fun () ->
          let status, out = ctl port "store greeting hello.txt" in
          check_bool "store ok" true (status = Unix.WEXITED 0);
          check_bool "prints capability" true (contains out "greeting -> ");
          let _, out = ctl port "fetch greeting" in
          check_bool "fetch returns contents" true (contains out "hello daemon");
          let _, out = ctl port "ls" in
          check_bool "listed" true (contains out "greeting");
          let _, out = ctl port "stat" in
          check_bool "stat shows files" true (contains out "live files"));
      (* restart on the same images: the name space survives *)
      with_daemon port (fun () ->
          let status, out = ctl port "fetch greeting" in
          check_bool "fetch after restart" true (status = Unix.WEXITED 0);
          check_bool "contents survive restart" true (contains out "hello daemon");
          let _, _ = ctl port "del greeting" in
          let status, _ = ctl port "fetch greeting" in
          check_bool "deleted" true (status <> Unix.WEXITED 0)))

let test_daemon_fault_plan () =
  (* the daemon consults a deterministic plan per request frame: with
     "at 3 loss 1.0" the first two requests work and every later one is
     dropped on the real TCP carrier (connection closed, no reply) *)
  in_temp_dir (fun () ->
      let port = 19_000 + (Unix.getpid () mod 2_000) in
      let oc = open_out "plan.txt" in
      output_string oc "# drop everything from the third request frame on\nseed 7\nat 3 loss 1.0\n";
      close_out oc;
      with_daemon ~args:[ "--fault-plan"; "plan.txt" ] port (fun () ->
          (* frames 1-2: hello + stat, delivered *)
          let status, out = ctl port "stat" in
          check_bool "first two frames delivered" true (status = Unix.WEXITED 0);
          check_bool "stat answered" true (contains out "live files");
          (* frame 3 onward: the hello of the next invocation is dropped *)
          let status, _ = ctl port "stat" in
          check_bool "third frame dropped on the wire" true (status <> Unix.WEXITED 0);
          let log = In_channel.with_open_text "bulletd.log" In_channel.input_all in
          check_bool "daemon announced the plan" true (contains log "fault plan loaded")))

(* SIGTERM lands while a client streams CREATEs. The daemon must save
   exactly once, under the request lock, and exit 0: every acknowledged
   file reads back after a restart and the images fsck clean. *)
module Message = Amoeba_rpc.Message
module Proto = Bullet_core.Proto

let bullet_port conn =
  let hello =
    Amoeba_rpc.Tcp.trans conn (Message.request ~port:(Amoeba_cap.Port.of_int64 0L) ~command:0 ())
  in
  match hello.Message.cap with
  | Some cap -> cap.Amoeba_cap.Capability.port
  | None -> Alcotest.fail "malformed hello reply"

let test_daemon_sigterm_mid_stream () =
  in_temp_dir (fun () ->
      let port = 21_000 + (Unix.getpid () mod 2_000) in
      let pid = spawn_bulletd port in
      let acked = Atomic.make [] in
      (* the daemon vanishing mid-frame must fail the write, not kill us *)
      let sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
      Fun.protect ~finally:(fun () -> Sys.set_signal Sys.sigpipe sigpipe) @@ fun () ->
      let streamer =
        Thread.create
          (fun () ->
            let conn = Amoeba_rpc.Tcp.connect ~port () in
            let port' = bullet_port conn in
            let rec go i =
              let create =
                Message.request ~port:port' ~command:Proto.cmd_create ~arg0:2
                  ~body:(payload (100 + i)) ()
              in
              match Amoeba_rpc.Tcp.trans conn create with
              | { Message.status = Amoeba_rpc.Status.Ok; cap = Some cap; _ } ->
                Atomic.set acked ((i, cap) :: Atomic.get acked);
                go (i + 1)
              | _ -> ()
              | exception (Failure _ | Unix.Unix_error _) -> ()
            in
            go 0;
            Amoeba_rpc.Tcp.close conn)
          ()
      in
      let rec await tries =
        if List.length (Atomic.get acked) < 20 && tries > 0 then begin
          Unix.sleepf 0.01;
          await (tries - 1)
        end
      in
      await 1_000;
      let streaming = List.length (Atomic.get acked) >= 20 in
      let status = stop_bulletd pid in
      Thread.join streamer;
      check_bool "the stream was running" true streaming;
      check_bool "exits 0" true (status = Unix.WEXITED 0);
      let log = In_channel.with_open_text "bulletd.log" In_channel.input_all in
      let saves = List.filter (fun l -> contains l "saving state") (String.split_on_char '\n' log) in
      check_int "saves once" 1 (List.length saves);
      with_daemon port (fun () ->
          let conn = Amoeba_rpc.Tcp.connect ~port () in
          List.iter
            (fun (i, cap) ->
              let read =
                Message.request ~port:cap.Amoeba_cap.Capability.port ~command:Proto.cmd_read ~cap ()
              in
              check_bytes "acknowledged file survives" (payload (100 + i))
                (Amoeba_rpc.Tcp.trans conn read).Message.body)
            (Atomic.get acked);
          Amoeba_rpc.Tcp.close conn);
      let status, out = fsck "data/drive1.img data/drive2.img" in
      check_bool "fsck ok" true (status = Unix.WEXITED 0);
      check_bool "fsck clean" true (contains out "consistency       clean"))

let test_daemon_rejects_bad_plan () =
  in_temp_dir (fun () ->
      let oc = open_out "plan.txt" in
      output_string oc "at ten drive_fail 0\n";
      close_out oc;
      let status, out =
        run
          (Printf.sprintf "%s --port 0 --data data --size-mb 4 --max-files 63 --fault-plan plan.txt"
             (Filename.quote (tool "bulletd")))
      in
      check_bool "refuses to start" true (status <> Unix.WEXITED 0);
      check_bool "says why" true (contains out "plan"))

(* ---- cluster-aware fsck: checkpoint vs inode tables ---- *)

module Cluster = Amoeba_cluster.Cluster

let write_text path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let save_member c name =
  let mirror = Cluster.server_mirror c name in
  Amoeba_disk.Mirror.drain mirror;
  List.iteri
    (fun i d -> Amoeba_disk.Image.save d (Printf.sprintf "%s-%d.img" name (i + 1)))
    (Amoeba_disk.Mirror.drives mirror)

let ctl_cluster args = run (Filename.quote (tool "bullet_ctl") ^ " cluster " ^ args)

let test_fsck_cluster_crosscheck () =
  in_temp_dir (fun () ->
      let c = Cluster.create () in
      List.iter
        (fun (name, region) -> Cluster.add_server c ~name ~region)
        [ ("ant", "west"); ("bee", "west"); ("cow", "east") ];
      ignore (Cluster.rebalance c);
      let keys = List.init 8 (fun i -> Printf.sprintf "k-%d" i) in
      List.iteri (fun i key -> Cluster.put c ~from:"west" ~key (payload (300 + i))) keys;
      write_text "clean.ck" (Cluster.checkpoint c);
      save_member c "ant";
      (* healthy cluster, on-disk replicas all backed: exit 0 *)
      let status, out = fsck "--cluster clean.ck --member ant=ant-1.img,ant-2.img" in
      check_bool "clean crosscheck ok" true (status = Unix.WEXITED 0);
      check_bool "replication fine" true (contains out "every object at 2 live copies");
      check_bool "inode tables back the directory" true
        (contains out "1 member(s) back every claimed replica");
      (* the offline status table agrees *)
      let status, out = ctl_cluster "clean.ck" in
      check_bool "ctl cluster ok" true (status = Unix.WEXITED 0);
      check_bool "table lists servers" true (contains out "ant");
      check_bool "nothing under-replicated" true (contains out "under-replicated 0");
      (* hand-seed under-replication: a kill recorded before the heal *)
      Cluster.kill_server c "bee";
      write_text "under.ck" (Cluster.checkpoint c);
      let status, out = fsck "--cluster under.ck" in
      check_bool "under-replication is exit 1" true (status = Unix.WEXITED 1);
      check_bool "reported per key" true (contains out "UNDER-REPLICATED");
      (* hand-seed a replica the directory claims but the disk lost:
         delete one of ant's objects behind the directory's back *)
      ignore (Cluster.rebalance c);
      write_text "healed.ck" (Cluster.checkpoint c);
      let info =
        match Cluster.parse_checkpoint (Cluster.checkpoint c) with
        | Ok info -> info
        | Error e -> Alcotest.failf "checkpoint does not parse: %s" e
      in
      let victim_cap =
        match
          List.find_map
            (fun (_key, holds) -> List.assoc_opt "ant" holds)
            info.Cluster.ck_objects
        with
        | Some cap -> cap
        | None -> Alcotest.fail "ant holds nothing"
      in
      (match Bullet_core.Server.delete (Cluster.server c "ant") victim_cap with
      | Ok () -> ()
      | Error st -> Alcotest.failf "delete failed: %s" (Amoeba_rpc.Status.to_string st));
      save_member c "ant";
      let status, out = fsck "--cluster healed.ck --member ant=ant-1.img,ant-2.img" in
      check_bool "lost replica is exit 1" true (status = Unix.WEXITED 1);
      check_bool "missing replica named" true (contains out "MISSING");
      check_bool "and the key under-replicated" true (contains out "UNDER-REPLICATED"))

let test_fsck_cluster_rejects_garbage () =
  in_temp_dir (fun () ->
      write_text "bad.ck" "shards 64\nreplicas 2\nfrobnicate\n";
      let status, out = fsck "--cluster bad.ck" in
      check_bool "nonzero exit" true (status = Unix.WEXITED 1);
      check_bool "line pinned" true (contains out "checkpoint line 3"))

let suite =
  ( "tools",
    [
      Alcotest.test_case "mkbullet then clean fsck" `Quick test_mkbullet_and_clean_fsck;
      Alcotest.test_case "fsck repairs corruption" `Quick test_fsck_repairs_corruption;
      Alcotest.test_case "fsck rejects garbage" `Quick test_fsck_rejects_garbage_file;
      Alcotest.test_case "fsck --compact" `Quick test_fsck_compact;
      Alcotest.test_case "fsck clean after crash+reboot" `Quick test_fsck_clean_after_crash_reboot;
      Alcotest.test_case "fsck --cluster cross-checks the directory" `Quick
        test_fsck_cluster_crosscheck;
      Alcotest.test_case "fsck --cluster rejects a malformed checkpoint" `Quick
        test_fsck_cluster_rejects_garbage;
      Alcotest.test_case "bulletd end to end over TCP" `Slow test_daemon_end_to_end;
      Alcotest.test_case "bulletd --fault-plan drops frames on TCP" `Slow test_daemon_fault_plan;
      Alcotest.test_case "bulletd rejects a malformed plan" `Quick test_daemon_rejects_bad_plan;
      Alcotest.test_case "bulletd saves once on SIGTERM mid-stream" `Slow
        test_daemon_sigterm_mid_stream;
    ] )
