(* A bench-side replica of bulletd's request path (bin/bulletd.ml without
   the fault plan): the same library calls in the same order, with a
   host-clock span around each layer. It opens or creates the two drive
   images, formats them if new, boots the Bullet server, serves it on a
   local transport as the directory service's store, restores or creates
   the directory service, dispatches by port, and saves (directory
   checkpoint, mirror drain, both images) every 16 request frames. The
   fidelity test checks that it leaves byte-identical images to the real
   daemon on the same request stream, which ties the traced run's
   per-layer numbers to the real program. *)

module Server = Bullet_core.Server
module Dir = Amoeba_dir.Dir_server
module Message = Amoeba_rpc.Message
module Status = Amoeba_rpc.Status
module Port = Amoeba_cap.Port

let cmd_hello = 0

(* bulletd saves after every [save_every]-th request frame. *)
let save_every = 16

(* Runs a layer's work inside the named span. *)
type tracer = { span : 'a. string -> (unit -> 'a) -> 'a }

let untraced = { span = (fun _name f -> f ()) }

let create ?(tracer = untraced) ~data ~size_mb ~max_files ~cache_mb () =
  let span name f = tracer.span name f in
  if not (Sys.file_exists data) then Unix.mkdir data 0o755;
  let clock = Amoeba_sim.Clock.create () in
  let geometry = Amoeba_disk.Geometry.small ~sectors:(size_mb * 2048) in
  let open_drive name =
    match
      Amoeba_disk.Image.load_or_create ~id:name ~clock ~geometry
        (Filename.concat data (name ^ ".img"))
    with
    | Ok (device, _) -> device
    | Error e -> failwith (Printf.sprintf "cannot open drive %s: %s" name e)
  in
  let drive1 = open_drive "drive1" in
  let drive2 = open_drive "drive2" in
  let mirror = Amoeba_disk.Mirror.create [ drive1; drive2 ] in
  (match Bullet_core.Inode_table.load mirror with
  | Ok _ -> ()
  | Error _ -> Server.format mirror ~max_files);
  let config = { Server.default_config with Server.cache_bytes = cache_mb * 1024 * 1024 } in
  let server =
    match Server.start ~config mirror with
    | Ok (server, _) -> server
    | Error e -> failwith ("cannot start server: " ^ e)
  in
  let local_transport = Amoeba_rpc.Transport.create ~clock in
  Bullet_core.Proto.serve server local_transport;
  let store = Bullet_core.Client.connect local_transport (Server.port server) in
  let dir_cap_path = Filename.concat data "dir.cap" in
  let dirs =
    let restored =
      if Sys.file_exists dir_cap_path then
        let line = In_channel.with_open_text dir_cap_path input_line in
        Result.to_option (Dir.restore ~store (Amoeba_cap.Capability.of_string line))
      else None
    in
    match restored with Some dirs -> dirs | None -> Dir.create ~store ()
  in
  let save_state () =
    span "durability.save" (fun () ->
        span "directory.checkpoint" (fun () ->
            match Dir.checkpoint dirs with
            | Ok cap ->
              Out_channel.with_open_text dir_cap_path (fun oc ->
                  output_string oc (Amoeba_cap.Capability.to_string cap);
                  output_char oc '\n')
            | Error e -> Printf.eprintf "checkpoint failed: %s\n%!" (Status.to_string e));
        span "mirror.drain" (fun () -> Amoeba_disk.Mirror.drain mirror);
        span "image.save" (fun () ->
            Amoeba_disk.Image.save drive1 (Filename.concat data "drive1.img"));
        span "image.save" (fun () ->
            Amoeba_disk.Image.save drive2 (Filename.concat data "drive2.img")))
  in
  let hello_reply () =
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
      span "directory.dispatch" (fun () -> Amoeba_dir.Dir_proto.dispatch dirs request)
    else span "bullet.dispatch" (fun () -> Bullet_core.Proto.dispatch server request)
  in
  let requests = ref 0 in
  let handler request =
    span "handler" (fun () ->
        incr requests;
        let reply = Some (dispatch request) in
        if !requests mod save_every = 0 then save_state ();
        reply)
  in
  handler

(* Run as a daemon, the way bulletd does: print the listening line and
   serve until killed. *)
let serve ~port ~data ~size_mb ~max_files ~cache_mb =
  let handler = create ~data ~size_mb ~max_files ~cache_mb () in
  let tcp = Amoeba_rpc.Tcp.listen ~port () in
  Printf.printf "listening on 127.0.0.1:%d (data in %s)\n%!" (Amoeba_rpc.Tcp.bound_port tcp) data;
  Amoeba_rpc.Tcp.serve_forever tcp ~handler
