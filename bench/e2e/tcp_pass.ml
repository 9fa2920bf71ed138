(* The TCP pass: a server behind loopback TCP, driven from this one process
   by two threads, one connection each, closed loop with no think time.
   The plain run drives a real bulletd child; the traced run drives the
   in-process replica (Replica) so the benchmark can put host-clock spans
   on both sides of each request. *)

module Message = Amoeba_rpc.Message
module Tcp = Amoeba_rpc.Tcp
module Port = Amoeba_cap.Port

type client = {
  tcp : Tcp.conn;
  spans : Spans.t;
  tag : (int * int) Atomic.t;  (** (op, request) in flight, read by the traced server *)
  mutable op : int;
  mutable req : int;
  mutable first : int64;  (** first send of the current op, -1 before it *)
  mutable last : int64;  (** last reply of the current op *)
  mutable seen : (Message.t * Message.t) list;  (** traced run: every request and its reply *)
}

let call c request =
  let t0 = Spans.now () in
  if c.first < 0L then c.first <- t0;
  c.req <- c.req + 1;
  Atomic.set c.tag (c.op, c.req);
  let reply = Tcp.trans c.tcp request in
  let t1 = Spans.now () in
  c.last <- t1;
  if c.spans.Spans.recording then begin
    Spans.record c.spans { Spans.op = c.op; req = c.req; name = "tcp.trans"; start_ns = t0; end_ns = t1 };
    c.seen <- (request, reply) :: c.seen
  end;
  reply

let hello c = call c (Message.request ~port:(Port.of_int64 0L) ~command:Replica.cmd_hello ())

(* Connect, say hello (bullet port in the capability, directory port in
   the body, as bullet_ctl does), and fetch the root directory when the
   workload names files. *)
let connect (gen : Gen.t) spans ~port =
  let tcp = Tcp.connect ~port () in
  let c =
    {
      tcp;
      spans;
      tag = Atomic.make (-1, -1);
      op = -1;
      req = 0;
      first = -1L;
      last = 0L;
      seen = [];
    }
  in
  let reply = hello c in
  let bullet, dir =
    match reply.Message.cap with
    | Some cap when Bytes.length reply.Message.body >= Port.wire_size ->
      (cap.Amoeba_cap.Capability.port, Port.read reply.Message.body 0)
    | Some _ | None -> failwith "malformed hello reply"
  in
  let env = { Ops.call = call c; bullet; dir; root = None } in
  let root =
    if gen.Gen.workload <> "bsd-trace" then None
    else
      let reply =
        call c (Message.request ~port:dir ~command:Amoeba_dir.Dir_proto.cmd_get_root ())
      in
      Some (Ops.cap_of "get_root" (Ops.ok "get_root" reply))
  in
  (c, { env with Ops.root })

type session = { clients : (client * Ops.env * Ops.state) array; stop : unit -> unit }

let close s =
  Array.iter (fun (c, _, _) -> Tcp.close c.tcp) s.clients;
  s.stop ()

(* From starting the server on an empty directory to a populated working
   set whose every CREATE was acknowledged. The connections are opened one
   after the other, so the traced server sees connection 0 first. *)
let setup gen spans ~start =
  let t0 = Spans.now () in
  let server, port, stop = start () in
  let clients =
    Array.init Gen.connections (fun index ->
        let c, env = connect gen spans ~port in
        (c, env, Ops.state gen index))
  in
  Array.iter (fun (_, env, st) -> Ops.populate env st) clients;
  (server, { clients; stop }, Int64.to_float (Int64.sub (Spans.now ()) t0) /. 1e9)

type run = {
  attempted : int;
  failed : int;
  latencies_ms : float array;
  elapsed_s : float;
}

(* Completed ops per second. *)
let rate r = float_of_int (Array.length r.latencies_ms) /. r.elapsed_s

(* Drive every stream from its own thread until [seconds] have passed or
   its ops run out. An op is timed from its first send to its last reply;
   a failed op has no latency. *)
let measure gen s ~seconds =
  let t0 = Spans.now () in
  let deadline = Int64.add t0 (Int64.of_float (seconds *. 1e9)) in
  let drive index (c, env, st) =
    let ops = gen.Gen.streams.(index).Gen.ops in
    let latencies = ref [] and failed = ref 0 and attempted = ref 0 and ended = ref t0 in
    let rec loop i =
      if i < Array.length ops && Spans.now () < deadline then begin
        c.op <- index + (Gen.connections * i);
        c.first <- -1L;
        incr attempted;
        let alive =
          match Ops.exec env st ops.(i) with
          | () ->
            latencies := Int64.to_float (Int64.sub c.last c.first) /. 1e6 :: !latencies;
            if c.spans.Spans.recording then
              Spans.record c.spans
                { Spans.op = c.op; req = -1; name = "op"; start_ns = c.first; end_ns = c.last };
            true
          | exception Ops.Failed msg ->
            Printf.eprintf "%s: op %d failed: %s\n%!" gen.Gen.workload c.op msg;
            incr failed;
            true
          | exception ((Failure _ | Unix.Unix_error _) as e) ->
            Printf.eprintf "%s: connection %d lost: %s\n%!" gen.Gen.workload index
              (Printexc.to_string e);
            incr failed;
            false
        in
        ended := Spans.now ();
        if alive then loop (i + 1)
      end
    in
    loop 0;
    (!attempted, !failed, !latencies, !ended)
  in
  let results = Array.make Gen.connections (0, 0, [], t0) in
  let threads =
    Array.mapi
      (fun i client -> Thread.create (fun () -> results.(i) <- drive i client) ())
      s.clients
  in
  Array.iter Thread.join threads;
  let attempted, failed, latencies, ended =
    Array.fold_left
      (fun (a, f, l, e) (a', f', l', e') -> (a + a', f + f', List.rev_append l' l, max e e'))
      (0, 0, [], t0) results
  in
  {
    attempted;
    failed;
    latencies_ms = Array.of_list latencies;
    elapsed_s = Int64.to_float (Int64.sub ended t0) /. 1e9;
  }

(* ---- the plain run: a real bulletd child ---- *)

let bulletd_args ~dir ~cache_mb =
  [
    "--port"; "0"; "--data"; dir; "--size-mb"; string_of_int Gen.drive_mb; "--cache-mb";
    string_of_int cache_mb;
  ]

type probe = { acked : int; lost : int; probe_failed : int }

(* Durability: 32 more P-FACTOR 2 CREATEs on one connection, each
   acknowledged; then SIGKILL, a restart on the same directory, and a READ
   of every acknowledged file. Lost = acknowledged but unreadable or
   wrong after the restart. *)
let probe_durability gen ~exe ~dir (_, env, _) daemon =
  let failed = ref 0 in
  let acked =
    List.filter_map
      (fun k ->
        let data = Gen.content gen ~id:(Gen.probe_id k) ~size:4096 in
        match Ops.create env data with
        | cap -> Some (cap, data)
        | exception Ops.Failed _ ->
          incr failed;
          None)
      (List.init 32 Fun.id)
  in
  Daemon.stop daemon;
  let restarted = Daemon.spawn exe (bulletd_args ~dir ~cache_mb:gen.Gen.cache_mb) in
  Fun.protect
    ~finally:(fun () -> Daemon.stop restarted)
    (fun () ->
      let c, env = connect gen (Spans.create ()) ~port:restarted.Daemon.port in
      let readable (cap, data) =
        match Ops.read env cap with body -> Bytes.equal body data | exception Ops.Failed _ -> false
      in
      let lost = List.length (List.filter (fun f -> not (readable f)) acked) in
      Tcp.close c.tcp;
      { acked = List.length acked; lost; probe_failed = !failed })

type plain = {
  setups_s : float list;
  run : run;  (** every round's ops, pooled *)
  rates : float list;  (** completed ops per second, one per round *)
  rss_mb : float list;
  probe : probe option;
}

(* [rounds] fresh daemons, one after the other: each is set up (timed),
   then driven for its share of [seconds]. Every set-up is used, and the
   measurement spans several daemons, so a stall of the shared host that
   lands in one round leaves the median round's rate alone. The last
   daemon also takes the durability probe when [probe] is set. *)
let plain gen ~exe ~seconds ~rounds ~probe =
  let spans = Spans.create () in
  let round k =
    let dir = Daemon.fresh_dir () in
    let start () =
      let d = Daemon.spawn exe (bulletd_args ~dir ~cache_mb:gen.Gen.cache_mb) in
      (d, d.Daemon.port, fun () -> Daemon.stop d)
    in
    let daemon, s, setup_s = setup gen spans ~start in
    let run = measure gen s ~seconds:(seconds /. float_of_int rounds) in
    let rss_mb = Daemon.peak_rss_mb daemon in
    let probe =
      if probe && k = rounds then Some (probe_durability gen ~exe ~dir s.clients.(0) daemon) else None
    in
    close s;
    Daemon.release_dir dir;
    (setup_s, run, rss_mb, probe)
  in
  let results = List.init rounds (fun k -> round (k + 1)) in
  let runs = List.map (fun (_, r, _, _) -> r) results in
  {
    setups_s = List.map (fun (t, _, _, _) -> t) results;
    run =
      {
        attempted = List.fold_left (fun n r -> n + r.attempted) 0 runs;
        failed = List.fold_left (fun n r -> n + r.failed) 0 runs;
        latencies_ms = Array.concat (List.map (fun r -> r.latencies_ms) runs);
        elapsed_s = List.fold_left (fun t r -> t +. r.elapsed_s) 0. runs;
      };
    rates = List.map rate runs;
    rss_mb = List.map (fun (_, _, m, _) -> m) results;
    probe = List.find_map (fun (_, _, _, p) -> p) results;
  }

(* ---- the traced run: the replica in this process ---- *)

type traced = {
  t_run : run;
  spans : Spans.span list;
  seen : (Message.t * Message.t) list;
  image_bytes : int;  (** size of one saved drive image *)
}

let traced gen ~seconds =
  let spans = Spans.create () in
  let dir = Daemon.fresh_dir () in
  let tags = ref [||] in
  let threads = Hashtbl.create 4 and lock = Mutex.create () in
  (* Connection threads are created in accept order and connections are
     opened one after the other, so the n-th thread seen serves
     connection n. *)
  let connection () =
    let id = Thread.id (Thread.self ()) in
    Mutex.lock lock;
    let n =
      match Hashtbl.find_opt threads id with
      | Some n -> n
      | None ->
        let n = Hashtbl.length threads in
        Hashtbl.add threads id n;
        n
    in
    Mutex.unlock lock;
    n
  in
  let span name f =
    let conn = connection () in
    if not spans.Spans.recording then f ()
    else begin
      let op, req = Atomic.get !tags.(conn) in
      let start_ns = Spans.now () in
      let finish () = Spans.record spans { Spans.op; req; name; start_ns; end_ns = Spans.now () } in
      match f () with
      | v ->
        finish ();
        v
      | exception e ->
        finish ();
        raise e
    end
  in
  let start () =
    let handler =
      Replica.create ~tracer:{ Replica.span } ~data:dir ~size_mb:Gen.drive_mb ~max_files:2048
        ~cache_mb:gen.Gen.cache_mb ()
    in
    let tcp = Tcp.listen ~port:0 () in
    let (_ : Thread.t) =
      Thread.create
        (fun () -> try Tcp.serve_forever tcp ~handler with Unix.Unix_error _ -> ())
        ()
    in
    ((), Tcp.bound_port tcp, fun () -> Tcp.shutdown tcp)
  in
  let (), s, _ = setup gen spans ~start in
  tags := Array.map (fun (c, _, _) -> c.tag) s.clients;
  spans.Spans.recording <- true;
  let t_run = measure gen s ~seconds in
  spans.Spans.recording <- false;
  close s;
  let image_bytes = (Unix.stat (Filename.concat dir "drive1.img")).Unix.st_size in
  Daemon.release_dir dir;
  let seen = Array.fold_left (fun acc ((c : client), _, _) -> List.rev_append c.seen acc) [] s.clients in
  { t_run; spans = Spans.spans spans; seen; image_bytes }
