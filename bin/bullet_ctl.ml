(* bullet_ctl: command-line client for a running bulletd.

     bullet_ctl info
     bullet_ctl put FILE [--p-factor N]     -> prints the capability
     bullet_ctl get CAPABILITY [-o FILE]
     bullet_ctl size CAPABILITY
     bullet_ctl append CAPABILITY FILE      -> prints the new capability
     bullet_ctl rm CAPABILITY
     bullet_ctl status [--text]             -> STD_STATUS live metrics snapshot
     bullet_ctl cluster CHECKPOINT          -> offline cluster-directory status table

   Capabilities print as port:obj:rights:check - keep them somewhere (a
   real Amoeba would use the directory server). *)

module Message = Amoeba_rpc.Message
module Status = Amoeba_rpc.Status
module Cap = Amoeba_cap.Capability
module Proto = Bullet_core.Proto

let cmd_hello = 0

let with_conn host port f =
  let conn = Amoeba_rpc.Tcp.connect ~host ~port () in
  Fun.protect ~finally:(fun () -> Amoeba_rpc.Tcp.close conn) (fun () -> f conn)

let checked conn request =
  let reply = Amoeba_rpc.Tcp.trans conn request in
  match reply.Message.status with
  | Status.Ok -> reply
  | err ->
    Printf.eprintf "error: %s\n" (Status.to_string err);
    exit 1

let null_port = Amoeba_cap.Port.of_int64 0L

(* hello returns (bullet port, directory port) *)
let service_ports conn =
  let reply = checked conn (Message.request ~port:null_port ~command:cmd_hello ()) in
  match reply.Message.cap with
  | Some cap when Bytes.length reply.Message.body >= Amoeba_cap.Port.wire_size ->
    (cap.Cap.port, Amoeba_cap.Port.read reply.Message.body 0)
  | Some _ | None ->
    prerr_endline "malformed hello reply";
    exit 1

let service_port conn = fst (service_ports conn)

let dir_root conn =
  let _bullet, dir_port = service_ports conn in
  let reply =
    checked conn (Message.request ~port:dir_port ~command:Amoeba_dir.Dir_proto.cmd_get_root ())
  in
  match reply.Message.cap with
  | Some root -> (dir_port, root)
  | None ->
    prerr_endline "no root directory";
    exit 1

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let parse_cap s =
  try Cap.of_string s
  with Invalid_argument e ->
    Printf.eprintf "bad capability %S: %s\n" s e;
    exit 1

let show_info host port () =
  with_conn host port (fun conn ->
      Printf.printf "bullet service port: %s\n" (Amoeba_cap.Port.to_string (service_port conn)))

let put host port p_factor path () =
  with_conn host port (fun conn ->
      let data = Bytes.of_string (read_file path) in
      let port' = service_port conn in
      let reply =
        checked conn
          (Message.request ~port:port' ~command:Proto.cmd_create ~arg0:p_factor ~body:data ())
      in
      match reply.Message.cap with
      | Some cap -> print_endline (Cap.to_string cap)
      | None ->
        prerr_endline "no capability returned";
        exit 1)

let get host port cap_string output () =
  with_conn host port (fun conn ->
      let cap = parse_cap cap_string in
      let reply =
        checked conn (Message.request ~port:cap.Cap.port ~command:Proto.cmd_read ~cap ())
      in
      match output with
      | None -> print_string (Bytes.to_string reply.Message.body)
      | Some path ->
        let oc = open_out_bin path in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () -> output_bytes oc reply.Message.body))

let size host port cap_string () =
  with_conn host port (fun conn ->
      let cap = parse_cap cap_string in
      let reply =
        checked conn (Message.request ~port:cap.Cap.port ~command:Proto.cmd_size ~cap ())
      in
      Printf.printf "%d\n" reply.Message.arg0)

let append host port cap_string path () =
  with_conn host port (fun conn ->
      let cap = parse_cap cap_string in
      let data = Bytes.of_string (read_file path) in
      let reply =
        checked conn
          (Message.request ~port:cap.Cap.port ~command:Proto.cmd_append ~cap ~arg0:2 ~body:data ())
      in
      match reply.Message.cap with
      | Some fresh -> print_endline (Cap.to_string fresh)
      | None ->
        prerr_endline "no capability returned";
        exit 1)

let rm host port cap_string () =
  with_conn host port (fun conn ->
      let cap = parse_cap cap_string in
      let (_ : Message.t) =
        checked conn (Message.request ~port:cap.Cap.port ~command:Proto.cmd_delete ~cap ())
      in
      ())

let status host port text () =
  with_conn host port (fun conn ->
      let bullet_port = service_port conn in
      if text then
        let reply =
          checked conn
            (Message.request ~port:bullet_port ~command:Proto.cmd_std_status ~arg0:1 ())
        in
        print_string (Bytes.to_string reply.Message.body)
      else
        let reply =
          checked conn (Message.request ~port:bullet_port ~command:Proto.cmd_std_status ())
        in
        match Proto.decode_status reply.Message.body with
        | Error e ->
          Printf.eprintf "malformed status reply: %s\n" e;
          exit 1
        | Ok snap ->
          let module M = Amoeba_metrics.Metrics in
          Printf.printf "live snapshot at %d us\n" snap.M.at_us;
          List.iter
            (fun { M.s_name; s_value } ->
              match s_value with
              | M.Counter n -> Printf.printf "  %-28s counter %12d\n" s_name n
              | M.Gauge n -> Printf.printf "  %-28s gauge   %12d\n" s_name n
              | M.Hist { count; sum; p50; p95; p99; max_value } ->
                Printf.printf
                  "  %-28s hist     count %d sum %d p50 %d p95 %d p99 %d max %d\n" s_name
                  count sum p50 p95 p99 max_value)
            snap.M.samples)

let stat host port () =
  with_conn host port (fun conn ->
      let bullet_port = service_port conn in
      let reply =
        checked conn (Message.request ~port:bullet_port ~command:Proto.cmd_stat ())
      in
      let s = Proto.decode_stat reply.Message.body in
      Printf.printf "live files      %d\n" s.Proto.live_files;
      Printf.printf "free blocks     %d / %d\n" s.Proto.free_blocks s.Proto.data_blocks;
      Printf.printf "cache used      %d / %d bytes\n" s.Proto.cache_used s.Proto.cache_capacity)

(* ---- name-based commands (directory service) ---- *)

let store host port p_factor name path () =
  with_conn host port (fun conn ->
      let data = Bytes.of_string (read_file path) in
      let bullet_port, _ = service_ports conn in
      let create_reply =
        checked conn
          (Message.request ~port:bullet_port ~command:Proto.cmd_create ~arg0:p_factor ~body:data ())
      in
      let file_cap =
        match create_reply.Message.cap with
        | Some cap -> cap
        | None ->
          prerr_endline "no capability returned";
          exit 1
      in
      let dir_port, root = dir_root conn in
      let (_ : Message.t) =
        checked conn
          (Message.request ~port:dir_port ~command:Amoeba_dir.Dir_proto.cmd_replace ~cap:root
             ~body:(Amoeba_dir.Dir_proto.encode_named_cap file_cap name)
             ())
      in
      Printf.printf "%s -> %s\n" name (Cap.to_string file_cap))

let lookup_name conn name =
  let dir_port, root = dir_root conn in
  let reply =
    checked conn
      (Message.request ~port:dir_port ~command:Amoeba_dir.Dir_proto.cmd_lookup ~cap:root
         ~body:(Bytes.of_string name) ())
  in
  match reply.Message.cap with
  | Some cap -> cap
  | None ->
    prerr_endline "no capability in lookup reply";
    exit 1

let fetch host port name output () =
  with_conn host port (fun conn ->
      let cap = lookup_name conn name in
      let reply =
        checked conn (Message.request ~port:cap.Cap.port ~command:Proto.cmd_read ~cap ())
      in
      match output with
      | None -> print_string (Bytes.to_string reply.Message.body)
      | Some path ->
        let oc = open_out_bin path in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () -> output_bytes oc reply.Message.body))

let ls host port () =
  with_conn host port (fun conn ->
      let dir_port, root = dir_root conn in
      let reply =
        checked conn
          (Message.request ~port:dir_port ~command:Amoeba_dir.Dir_proto.cmd_list ~cap:root ())
      in
      let rows = Amoeba_dir.Dir_proto.decode_listing reply.Message.body in
      List.iter (fun (name, cap) -> Printf.printf "%-30s %s\n" name (Cap.to_string cap)) rows)

let del host port name () =
  with_conn host port (fun conn ->
      let dir_port, root = dir_root conn in
      (* collect every retained version, unbind, then delete the files *)
      let versions_reply =
        checked conn
          (Message.request ~port:dir_port ~command:Amoeba_dir.Dir_proto.cmd_versions ~cap:root
             ~body:(Bytes.of_string name) ())
      in
      let versions = Amoeba_dir.Dir_proto.decode_caps versions_reply.Message.body in
      let (_ : Message.t) =
        checked conn
          (Message.request ~port:dir_port ~command:Amoeba_dir.Dir_proto.cmd_remove_name ~cap:root
             ~body:(Bytes.of_string name) ())
      in
      let delete cap =
        let (_ : Message.t) =
          Amoeba_rpc.Tcp.trans conn
            (Message.request ~port:cap.Cap.port ~command:Proto.cmd_delete ~cap ())
        in
        ()
      in
      List.iter delete versions)

(* ---- cluster: offline status table over a directory checkpoint ---- *)

let cluster_status ck_path () =
  let module Cluster = Amoeba_cluster.Cluster in
  match Cluster.parse_checkpoint (read_file ck_path) with
  | Error e ->
    Printf.eprintf "%s: %s\n" ck_path e;
    exit 1
  | Ok info ->
    Printf.printf "cluster directory: shards %d, replicas %d\n" info.Cluster.ck_shards
      info.Cluster.ck_replicas;
    let replicas_on name =
      List.length
        (List.filter
           (fun (_, holds) -> List.exists (fun (srv, _) -> srv = name) holds)
           info.Cluster.ck_objects)
    in
    Printf.printf "  %-12s %-10s %-8s %s\n" "server" "region" "status" "replicas";
    List.iter
      (fun (name, region, status) ->
        Printf.printf "  %-12s %-10s %-8s %8d\n" name region status (replicas_on name))
      info.Cluster.ck_servers;
    let _want, under = Cluster.replication info in
    Printf.printf "objects %d, under-replicated %d%s\n"
      (List.length info.Cluster.ck_objects)
      (List.length under)
      (match under with [] -> "" | short -> ": " ^ String.concat " " (List.map fst short))

open Cmdliner

let host = Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST" ~doc:"Server host.")

let port = Arg.(value & opt int 7654 & info [ "port" ] ~docv:"PORT" ~doc:"Server TCP port.")

let cap_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"CAPABILITY")

let name_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"NAME")

let file_arg n = Arg.(required & pos n (some file) None & info [] ~docv:"FILE")

let p_factor =
  Arg.(
    value & opt int 2
    & info [ "p-factor" ] ~docv:"N" ~doc:"Paranoia factor: disks that must hold the file first.")

let output =
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write here.")

let unit_term = Term.const ()

let status_text =
  Arg.(
    value & flag
    & info [ "text" ] ~doc:"Print the text exposition instead of decoding the binary snapshot.")

let commands =
  [
    Cmd.v (Cmd.info "info" ~doc:"show the service port")
      Term.(const show_info $ host $ port $ unit_term);
    Cmd.v
      (Cmd.info "put" ~doc:"store a local file, print its capability")
      Term.(const put $ host $ port $ p_factor $ file_arg 0 $ unit_term);
    Cmd.v
      (Cmd.info "get" ~doc:"retrieve a file by capability")
      Term.(const get $ host $ port $ cap_arg $ output $ unit_term);
    Cmd.v (Cmd.info "size" ~doc:"file size") Term.(const size $ host $ port $ cap_arg $ unit_term);
    Cmd.v
      (Cmd.info "append" ~doc:"derive a new file = old ++ local file")
      Term.(const append $ host $ port $ cap_arg $ file_arg 1 $ unit_term);
    Cmd.v (Cmd.info "rm" ~doc:"delete a file") Term.(const rm $ host $ port $ cap_arg $ unit_term);
    Cmd.v
      (Cmd.info "store" ~doc:"store a local file under a name")
      Term.(const store $ host $ port $ p_factor $ name_arg $ file_arg 1 $ unit_term);
    Cmd.v
      (Cmd.info "fetch" ~doc:"retrieve a named file")
      Term.(const fetch $ host $ port $ name_arg $ output $ unit_term);
    Cmd.v (Cmd.info "ls" ~doc:"list named files") Term.(const ls $ host $ port $ unit_term);
    Cmd.v (Cmd.info "stat" ~doc:"server statistics") Term.(const stat $ host $ port $ unit_term);
    Cmd.v
      (Cmd.info "status" ~doc:"STD_STATUS: the server's live metrics snapshot")
      Term.(const status $ host $ port $ status_text $ unit_term);
    Cmd.v
      (Cmd.info "del" ~doc:"unbind a name and delete all its versions")
      Term.(const del $ host $ port $ name_arg $ unit_term);
    Cmd.v
      (Cmd.info "cluster" ~doc:"offline status table over a cluster-directory checkpoint")
      Term.(
        const cluster_status
        $ Arg.(required & pos 0 (some file) None & info [] ~docv:"CHECKPOINT")
        $ unit_term);
  ]

let () =
  let doc = "client for the Bullet file server daemon" in
  exit (Cmd.eval (Cmd.group (Cmd.info "bullet_ctl" ~doc) commands))
