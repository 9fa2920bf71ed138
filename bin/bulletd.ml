(* bulletd: the Bullet file server + directory service as a standalone
   daemon.

   The server logic, disk layout and capability protection are exactly
   the library's; the simulated mirrored drives persist in image files,
   and requests arrive as RPC frames over TCP instead of the simulated
   Ethernet. The directory service stores its directories as Bullet
   files and survives restarts through a checkpoint whose capability is
   kept beside the images. Try:

     dune exec bin/bulletd.exe -- --port 7654 --data /tmp/bullet &
     dune exec bin/bullet_ctl.exe -- store notes notes.txt --port 7654
     dune exec bin/bullet_ctl.exe -- ls --port 7654
     dune exec bin/bullet_ctl.exe -- fetch notes --port 7654             *)

module Server = Bullet_core.Server
module Dir = Amoeba_dir.Dir_server
module Message = Amoeba_rpc.Message
module Status = Amoeba_rpc.Status
module Port = Amoeba_cap.Port

let cmd_hello = 0

let run tcp_port data_dir size_mb max_files cache_mb fault_plan =
  if not (Sys.file_exists data_dir) then Unix.mkdir data_dir 0o755;
  let clock = Amoeba_sim.Clock.create () in
  let geometry = Amoeba_disk.Geometry.small ~sectors:(size_mb * 2048) in
  let open_drive name =
    match
      Amoeba_disk.Image.load_or_create ~id:name ~clock ~geometry
        (Filename.concat data_dir (name ^ ".img"))
    with
    | Ok (device, state) ->
      Printf.printf "drive %s: %s\n%!" name
        (match state with `Loaded -> "loaded from image" | `Created -> "created fresh");
      device
    | Error e ->
      Printf.eprintf "cannot open drive %s: %s\n" name e;
      exit 1
  in
  let drive1 = open_drive "drive1" in
  let drive2 = open_drive "drive2" in
  let mirror = Amoeba_disk.Mirror.create [ drive1; drive2 ] in
  (* mkfs only if the image is brand new *)
  let formatted =
    match Bullet_core.Inode_table.load mirror with Ok _ -> true | Error _ -> false
  in
  if not formatted then begin
    Printf.printf "formatting fresh images (max %d files)\n%!" max_files;
    Server.format mirror ~max_files
  end;
  let config = { Server.default_config with Server.cache_bytes = cache_mb * 1024 * 1024 } in
  let server, report =
    match Server.start ~config mirror with
    | Ok v -> v
    | Error e ->
      Printf.eprintf "cannot start server: %s\n" e;
      exit 1
  in
  Printf.printf "bullet server on port %s: %d files, scan repaired %d\n%!"
    (Port.to_string (Server.port server))
    report.Bullet_core.Inode_table.files
    (List.length report.Bullet_core.Inode_table.repaired);
  (* the directory service stores directories as Bullet files; its own
     traffic rides an in-process transport *)
  let local_transport = Amoeba_rpc.Transport.create ~clock in
  Bullet_core.Proto.serve server local_transport;
  let store = Bullet_core.Client.connect local_transport (Server.port server) in
  let dir_cap_path = Filename.concat data_dir "dir.cap" in
  let dirs =
    let restored =
      if Sys.file_exists dir_cap_path then begin
        let ic = open_in dir_cap_path in
        let line = input_line ic in
        close_in ic;
        match Dir.restore ~store (Amoeba_cap.Capability.of_string line) with
        | Ok dirs ->
          Printf.printf "directory service restored from checkpoint\n%!";
          Some dirs
        | Error e ->
          Printf.eprintf "checkpoint restore failed (%s); starting fresh\n%!"
            (Status.to_string e);
          None
      end
      else None
    in
    match restored with Some dirs -> dirs | None -> Dir.create ~store ()
  in
  Printf.printf "directory service on port %s\n%!" (Port.to_string (Dir.port dirs));
  let save_state () =
    (match Dir.checkpoint dirs with
    | Ok cap ->
      let oc = open_out dir_cap_path in
      output_string oc (Amoeba_cap.Capability.to_string cap);
      output_char oc '\n';
      close_out oc
    | Error e -> Printf.eprintf "checkpoint failed: %s\n%!" (Status.to_string e));
    Amoeba_disk.Mirror.drain mirror;
    Amoeba_disk.Image.save drive1 (Filename.concat data_dir "drive1.img");
    Amoeba_disk.Image.save drive2 (Filename.concat data_dir "drive2.img")
  in
  (* --fault-plan: the daemon consults a deterministic injector before
     each frame. Plan times count {e request frames}, not microseconds —
     the injector gets a dedicated clock advanced by 1 per incoming
     request, so "at 5 loss 0.5" means "from the 5th request on". Drive
     events apply to the daemon's own mirror. *)
  let fault_clock = Amoeba_sim.Clock.create () in
  let injector =
    match fault_plan with
    | None -> None
    | Some path -> (
      let ic = open_in_bin path in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      match Amoeba_fault.Plan.parse text with
      | Error e ->
        Printf.eprintf "cannot parse fault plan %s: %s\n" path e;
        exit 1
      | Ok plan ->
        Printf.printf "fault plan loaded from %s (%d events)\n%!" path
          (List.length (Amoeba_fault.Plan.steps plan));
        Some (Amoeba_fault.Injector.attach ~mirror ~clock:fault_clock plan))
  in
  let requests = ref 0 in
  let hello_reply () =
    (* bullet port in the capability slot, directory port in the body *)
    let body = Bytes.create Port.wire_size in
    Port.write (Dir.port dirs) body 0;
    Message.reply ~status:Status.Ok
      ~cap:
        (Amoeba_cap.Capability.v ~port:(Server.port server) ~obj:0 ~rights:Amoeba_cap.Rights.none
           ~check:0L)
      ~body ()
  in
  let dispatch request =
    if request.Message.command = cmd_hello && Port.equal request.Message.port (Port.of_int64 0L)
    then hello_reply ()
    else if Port.equal request.Message.port (Dir.port dirs) then
      Amoeba_dir.Dir_proto.dispatch dirs request
    else Bullet_core.Proto.dispatch server request
  in
  let handler request =
    incr requests;
    let verdict =
      match injector with
      | None -> Amoeba_rpc.Transport.Deliver
      | Some inj ->
        Amoeba_sim.Clock.advance fault_clock 1;
        Amoeba_fault.Injector.verdict inj ~link:None request
    in
    let reply =
      match verdict with
      | Amoeba_rpc.Transport.Drop_request ->
        (* the request "never arrived": no execution, no reply *)
        None
      | Amoeba_rpc.Transport.Deliver -> Some (dispatch request)
      | Amoeba_rpc.Transport.Drop_reply | Amoeba_rpc.Transport.Corrupt_reply ->
        (* the server executes (side effects happen) but the client
           never hears back; a corrupted reply fails its checksum and
           is equally lost *)
        let (_ : Message.t) = dispatch request in
        None
      | Amoeba_rpc.Transport.Duplicate_request ->
        (* the frame arrives twice; xid dedup in the services absorbs
           the second execution of mutations *)
        let reply = dispatch request in
        let (_ : Message.t) = dispatch request in
        Some reply
    in
    if !requests mod 16 = 0 then save_state ();
    reply
  in
  (* One lock orders request handling and the exit save. SIGINT/SIGTERM
     are blocked in every thread (threads inherit the mask) and taken
     synchronously by one waiter, which saves under the lock and exits
     still holding it: the save runs once, and no request runs during or
     after it. *)
  let lock = Mutex.create () in
  let shutdown () =
    Mutex.lock lock;
    Printf.printf "saving state and exiting\n%!";
    match save_state () with
    | () -> exit 0
    | exception e ->
      (* a waiter thread dying here would leave the lock held and the
         daemon up, refusing every request *)
      Printf.eprintf "saving state failed: %s\n%!" (Printexc.to_string e);
      exit 1
  in
  let exit_signals = [ Sys.sigint; Sys.sigterm ] in
  let (_ : int list) = Thread.sigmask Unix.SIG_BLOCK exit_signals in
  (* an inherited "ignore" (a shell's background job) would discard the
     signal before the waiter could take it *)
  List.iter (fun s -> Sys.set_signal s Sys.Signal_default) exit_signals;
  let (_ : Thread.t) =
    Thread.create
      (fun () ->
        let (_ : int) = Thread.wait_signal exit_signals in
        shutdown ())
      ()
  in
  let tcp = Amoeba_rpc.Tcp.listen ~port:tcp_port () in
  Printf.printf "listening on 127.0.0.1:%d (data in %s)\n%!" (Amoeba_rpc.Tcp.bound_port tcp)
    data_dir;
  let handler request = Mutex.protect lock (fun () -> handler request) in
  (try Amoeba_rpc.Tcp.serve_forever tcp ~handler with Unix.Unix_error _ -> ());
  shutdown ()

open Cmdliner

let tcp_port =
  Arg.(value & opt int 7654 & info [ "port" ] ~docv:"PORT" ~doc:"TCP port to listen on.")

let data_dir =
  Arg.(
    value
    & opt string "./bullet-data"
    & info [ "data" ] ~docv:"DIR" ~doc:"Directory holding the drive images and checkpoint.")

let size_mb =
  Arg.(value & opt int 64 & info [ "size-mb" ] ~docv:"MB" ~doc:"Drive size for fresh images.")

let max_files =
  Arg.(value & opt int 2048 & info [ "max-files" ] ~docv:"N" ~doc:"Inode-table size for mkfs.")

let cache_mb =
  Arg.(value & opt int 12 & info [ "cache-mb" ] ~docv:"MB" ~doc:"RAM file cache size.")

let fault_plan =
  Arg.(
    value
    & opt (some string) None
    & info [ "fault-plan" ]
        ~docv:"FILE"
        ~doc:
          "Deterministic fault plan (see Amoeba_fault.Plan.parse). Plan times count request \
           frames: \"at 5 loss 0.5\" starts dropping from the 5th request. Dropped requests \
           and replies close the connection without answering.")

let cmd =
  let doc = "the Bullet file server daemon (contiguous immutable files, mirrored drives)" in
  Cmd.v
    (Cmd.info "bulletd" ~doc)
    Term.(const run $ tcp_port $ data_dir $ size_mb $ max_files $ cache_mb $ fault_plan)

let () = exit (Cmd.eval cmd)
