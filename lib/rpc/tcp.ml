type server = { socket : Unix.file_descr; port : int }

(* Pending connections the kernel queues before [accept]. *)
let backlog = 16

let listen ~port () =
  let socket = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt socket Unix.SO_REUSEADDR true;
  Unix.bind socket (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen socket backlog;
  let port =
    match Unix.getsockname socket with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> port
  in
  { socket; port }

let bound_port t = t.port

let handle_connection fd ~handler =
  let rec loop () =
    match Wire.read_frame fd with
    | Error _ -> ()
    | Ok payload -> (
      let reply =
        match Wire.decode payload with
        | Error _ -> Some (Message.error Status.Bad_request)
        | Ok request -> (
          try handler request with _ -> Some (Message.error Status.Server_failure))
      in
      (* [None] models a lost message on the real wire: no reply ever
         comes, the connection is dropped, and the client surfaces a
         failure it can retry — the closest a stream carrier gets to a
         datagram silently vanishing. *)
      match reply with
      | None -> ()
      | Some reply ->
        Wire.write_frame fd reply;
        loop ())
  in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ()) loop

let serve_connections t ~handler n =
  for _ = 1 to n do
    let fd, _peer = Unix.accept t.socket in
    handle_connection fd ~handler
  done

let serve_forever t ~handler =
  (* one request at a time, as on the paper's dedicated server machine *)
  let lock = Mutex.create () in
  let serialised request =
    Mutex.lock lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock lock) (fun () -> handler request)
  in
  while true do
    let fd, _peer = Unix.accept t.socket in
    let (_ : Thread.t) = Thread.create (fun () -> handle_connection fd ~handler:serialised) () in
    ()
  done

let shutdown t = try Unix.close t.socket with Unix.Unix_error _ -> ()

type conn = { fd : Unix.file_descr }

let connect ?(host = "127.0.0.1") ~port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  let address =
    try Unix.inet_addr_of_string host
    with Stdlib.Failure _ -> (
      match Unix.gethostbyname host with
      | { Unix.h_addr_list = [||]; _ } -> failwith ("cannot resolve " ^ host)
      | entry -> entry.Unix.h_addr_list.(0))
  in
  Unix.connect fd (Unix.ADDR_INET (address, port));
  { fd }

let trans conn request =
  Wire.write_frame conn.fd request;
  match Wire.read_frame conn.fd with
  | Error e -> failwith ("rpc: " ^ e)
  | Ok payload -> (
    match Wire.decode payload with
    | Error e -> failwith ("rpc: " ^ e)
    | Ok reply -> reply)

let close conn = try Unix.close conn.fd with Unix.Unix_error _ -> ()
