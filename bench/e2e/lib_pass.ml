(* The in-process pass: the same op streams against the library itself,
   booted the way bulletd boots it (two mirrored drives, 2048 inodes, the
   workload's cache) on an in-process transport with the paper's network
   model, one client. It yields the paper's virtual-clock delays and the
   library's own host cost per op. *)

module Clock = Amoeba_sim.Clock
module Stats = Amoeba_sim.Stats
module Transport = Amoeba_rpc.Transport
module Message = Amoeba_rpc.Message
module Server = Bullet_core.Server
module Dir = Amoeba_dir.Dir_server
module Dev = Amoeba_disk.Block_device
module Port = Amoeba_cap.Port

type bed = {
  clock : Clock.t;
  transport : Transport.t;
  server : Server.t;
  dirs : Dir.t option;
  drives : Dev.t list;
}

(* How the services are put on the transport: the library's own serve
   functions, or a bench-side wrapper around the bare dispatchers. *)
type services = Library | Wrapped of ([ `Bullet | `Directory ] -> Transport.service -> Transport.service)

let boot (gen : Gen.t) services =
  let clock = Clock.create () in
  let geometry = Amoeba_disk.Geometry.small ~sectors:(Gen.drive_mb * 2048) in
  let drives = List.map (fun id -> Dev.create ~id ~geometry ~clock) [ "drive1"; "drive2" ] in
  let mirror = Amoeba_disk.Mirror.create drives in
  Server.format mirror ~max_files:2048;
  let config = { Server.default_config with Server.cache_bytes = gen.Gen.cache_mb * 1024 * 1024 } in
  let server = fst (Result.get_ok (Server.start ~config mirror)) in
  let transport = Transport.create ~clock in
  (match services with
  | Library -> Bullet_core.Proto.serve server transport
  | Wrapped wrap ->
    Transport.register transport (Server.port server) (wrap `Bullet (Bullet_core.Proto.dispatch server)));
  let dirs =
    if gen.Gen.workload <> "bsd-trace" then None
    else begin
      let dirs = Dir.create ~store:(Bullet_core.Client.connect transport (Server.port server)) () in
      (match services with
      | Library -> Amoeba_dir.Dir_proto.serve dirs transport
      | Wrapped wrap ->
        Transport.register transport (Dir.port dirs) (wrap `Directory (Amoeba_dir.Dir_proto.dispatch dirs)));
      Some dirs
    end
  in
  { clock; transport; server; dirs; drives }

(* What the client's calls measured: per op, virtual time from first send
   to last reply; summed over calls, host time and allocation inside the
   library, and payload bytes moved to and from the Bullet service. *)
type meter = {
  exact_alloc : bool;
      (** empty the minor heap before each call, outside the measured
          window: a minor collection inside a window moves
          [Gc.allocated_bytes] by most of the minor heap's size *)
  mutable first_us : int;
  mutable last_us : int;
  mutable host_ns : int64;
  mutable alloc_bytes : float;
  mutable user_bytes : int;
  mutable created_bytes : int;
  mutable mutations : int;  (** directory enter/replace/remove_name calls *)
  mutable store_ops : int;  (** Bullet transactions those calls issued *)
}

let meter ~exact_alloc =
  {
    exact_alloc;
    first_us = -1;
    last_us = 0;
    host_ns = 0L;
    alloc_bytes = 0.;
    user_bytes = 0;
    created_bytes = 0;
    mutations = 0;
    store_ops = 0;
  }

let is_mutation command =
  let module D = Amoeba_dir.Dir_proto in
  command = D.cmd_enter || command = D.cmd_replace || command = D.cmd_remove_name

let call bed m request =
  let v0 = Clock.now bed.clock in
  if m.first_us < 0 then m.first_us <- v0;
  let transactions () = Stats.count (Transport.stats bed.transport) "transactions" in
  let tx0 = transactions () in
  if m.exact_alloc then Gc.minor ();
  let a0 = Gc.allocated_bytes () in
  let h0 = Monotonic_clock.now () in
  let reply = Transport.trans bed.transport ~model:Amoeba_rpc.Net_model.amoeba request in
  let h1 = Monotonic_clock.now () in
  m.alloc_bytes <- m.alloc_bytes +. (Gc.allocated_bytes () -. a0);
  m.host_ns <- Int64.add m.host_ns (Int64.sub h1 h0);
  m.last_us <- Clock.now bed.clock;
  let port = request.Message.port in
  if Port.equal port (Server.port bed.server) then begin
    m.user_bytes <-
      m.user_bytes + Bytes.length request.Message.body + Bytes.length reply.Message.body;
    let command = request.Message.command in
    if command = Bullet_core.Proto.cmd_create || command = Bullet_core.Proto.cmd_modify then
      m.created_bytes <- m.created_bytes + Bytes.length request.Message.body
  end
  else if is_mutation request.Message.command then begin
    m.mutations <- m.mutations + 1;
    m.store_ops <- m.store_ops + (transactions () - tx0 - 1)
  end;
  reply

type replay = {
  bed : bed;
  meter : meter;
  states : Ops.state array;
  ops : int;
  failed : int;
  sim_us : int array;  (** virtual delay of each op, in issue order *)
}

(* Boot a fresh server, populate it (not measured), then run both streams
   interleaved op by op as one client. [before_ops] runs between the two,
   e.g. to install a tracer; [each] wraps every op. *)
let replay ?(exact_alloc = false) ?(before_ops = ignore) ?(each = fun f -> f ()) gen services =
  let bed = boot gen services in
  let m = meter ~exact_alloc in
  let env =
    {
      Ops.call = call bed m;
      bullet = Server.port bed.server;
      dir = (match bed.dirs with Some d -> Dir.port d | None -> Port.of_int64 0L);
      root = Option.map Dir.root bed.dirs;
    }
  in
  let states = Array.init Gen.connections (Ops.state gen) in
  Array.iter (Ops.populate env) states;
  (* start every replay's ops from the same heap state *)
  Gc.full_major ();
  m.host_ns <- 0L;
  m.alloc_bytes <- 0.;
  m.user_bytes <- 0;
  before_ops bed;
  let streams = gen.Gen.streams in
  let per_stream = Array.length streams.(0).Gen.ops in
  let sim_us = Array.make (per_stream * Gen.connections) 0 in
  let failed = ref 0 in
  for i = 0 to per_stream - 1 do
    for c = 0 to Gen.connections - 1 do
      m.first_us <- -1;
      each (fun () ->
          match Ops.exec env states.(c) streams.(c).Gen.ops.(i) with
          | () -> ()
          | exception Ops.Failed msg ->
            Printf.eprintf "%s: in-process op failed: %s\n%!" gen.Gen.workload msg;
            incr failed);
      sim_us.((i * Gen.connections) + c) <- m.last_us - max 0 m.first_us
    done
  done;
  { bed; meter = m; states; ops = Array.length sim_us; failed = !failed; sim_us }

(* A fixed stretch of stdlib-only work of the library's kinds (per
   iteration a hash-table update, a small allocation and a 1 KB copy in
   cache; every eighth, a 32 KB copy streamed from a 4 MB buffer), timed
   just before and just after each timed replay's ops. Whatever else the
   machine is doing slows the library and this loop alike, so the
   library's rate over this loop's rate moves mainly when the library's
   own cost does. On a shared two-vCPU host the raw rate swings by a third
   from one second to the next; over ten seeds the ratio spreads about
   half as much. *)
let reference_iterations = 20_000

let reference_src = Bytes.make (4 lsl 20) 'r'

let reference_rate () =
  let table = Hashtbl.create 256 and near = Bytes.create 1024 and far = Bytes.create 32768 in
  let t0 = Monotonic_clock.now () in
  for i = 1 to reference_iterations do
    Hashtbl.replace table (i land 255) i;
    ignore (Sys.opaque_identity (Bytes.sub reference_src (i land 2047) 64));
    Bytes.blit reference_src (i land 1023) near 0 1024;
    if i land 7 = 0 then
      Bytes.blit reference_src (i * 32768 land (Bytes.length reference_src - 1)) far 0 32768
  done;
  float_of_int reference_iterations /. (Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. 1e9)

type host = {
  rates : float list;  (** ops per host second inside the library, one per timed replay *)
  per_mref : float list;  (** the same ops per million reference iterations *)
  alloc_per_op : float;
  host_ops : int;
  host_failed : int;
}

(* Replay the identical stream on fresh servers until [seconds] of wall
   time have passed. The first replay gives the virtual-clock metrics and
   warms the process up; the second meters allocation exactly; the rest,
   at least three, are timed. *)
let plain gen ~seconds =
  let deadline = Unix.gettimeofday () +. seconds in
  let first = replay gen Library in
  let exact = replay ~exact_alloc:true gen Library in
  let rec timed h =
    if List.length h.rates >= 3 && Unix.gettimeofday () >= deadline then h
    else begin
      let before = ref 0. in
      let r = replay ~before_ops:(fun _ -> before := reference_rate ()) gen Library in
      let reference = (!before +. reference_rate ()) /. 2. in
      let rate = float_of_int r.ops /. (Int64.to_float r.meter.host_ns /. 1e9) in
      timed
        {
          h with
          rates = rate :: h.rates;
          per_mref = (rate /. reference *. 1e6) :: h.per_mref;
          host_ops = h.host_ops + r.ops;
          host_failed = h.host_failed + r.failed;
        }
    end
  in
  ( first,
    timed
      {
        rates = [];
        per_mref = [];
        alloc_per_op = exact.meter.alloc_bytes /. float_of_int exact.ops;
        host_ops = exact.ops;
        host_failed = exact.failed;
      } )

(* ---- the traced replays ---- *)

let disk_count bed key = List.fold_left (fun n d -> n + Stats.count (Dev.stats d) key) 0 bed.drives

type counters = {
  transactions : int;
  bytes_moved : int;
  accesses : int;
  seeks : int;
  sectors_read : int;
  sectors_written : int;
  hits : int;
  misses : int;
  evicted : int;
}

let counters bed =
  let rpc = Transport.stats bed.transport and srv = Server.stats bed.server in
  {
    transactions = Stats.count rpc "transactions";
    bytes_moved = Stats.count rpc "bytes_sent" + Stats.count rpc "bytes_received";
    accesses = disk_count bed "reads" + disk_count bed "writes";
    seeks = disk_count bed "seeks";
    sectors_read = disk_count bed "sectors_read";
    sectors_written = disk_count bed "sectors_written";
    hits = Stats.count srv "cache_hits";
    misses = Stats.count srv "cache_misses";
    evicted = Server.cache_bytes_evicted bed.server;
  }

type attribution = {
  replay : replay;
  totals : Amoeba_trace.Attrib.totals;  (** virtual time of the ops, by layer *)
  before : counters;  (** at the first op, after population *)
  after : counters;
}

(* One replay with the library tracer on during the ops: each op's spans
   are folded into per-layer virtual time. *)
let attribution gen =
  let totals = ref Amoeba_trace.Attrib.zero in
  let tracer = ref None and before = ref None in
  let before_ops bed =
    let t = Amoeba_trace.Trace.create ~clock:bed.clock () in
    Transport.set_tracer bed.transport (Some t);
    Server.set_tracer bed.server (Some t);
    tracer := Some t;
    before := Some (counters bed)
  in
  let each f =
    let sink = Amoeba_trace.Trace.sink (Option.get !tracer) in
    Amoeba_trace.Sink.clear sink;
    f ();
    totals := Amoeba_trace.Attrib.add !totals (Amoeba_trace.Attrib.of_spans (Amoeba_trace.Sink.spans sink))
  in
  let replay = replay ~before_ops ~each gen Library in
  { replay; totals = !totals; before = Option.get !before; after = counters replay.bed }

type dispatch = {
  bullet_reqs : int;
  bullet_ns : float;
  bullet_alloc : float;
  dir_reqs : int;
  dir_self_ns : float;  (** directory dispatch time minus the Bullet dispatches it made *)
}

(* One untraced replay with the bare dispatchers wrapped, timing and
   metering each request on the host clock. Allocation is exact, so minor
   collections run between client calls and the times exclude them. *)
let dispatch gen =
  let bullet_reqs = ref 0 and bullet_ns = ref 0. and bullet_alloc = ref 0. in
  let dir_reqs = ref 0 and dir_ns = ref 0. and nested_ns = ref 0. and in_dir = ref 0 in
  let measuring = ref false in
  let wrap kind service request =
    if not !measuring then service request
    else begin
      if kind = `Directory then incr in_dir;
      let a0 = Gc.allocated_bytes () in
      let h0 = Monotonic_clock.now () in
      let reply = service request in
      let ns = Int64.to_float (Int64.sub (Monotonic_clock.now ()) h0) in
      (match kind with
      | `Bullet ->
        incr bullet_reqs;
        bullet_ns := !bullet_ns +. ns;
        bullet_alloc := !bullet_alloc +. (Gc.allocated_bytes () -. a0);
        if !in_dir > 0 then nested_ns := !nested_ns +. ns
      | `Directory ->
        decr in_dir;
        incr dir_reqs;
        dir_ns := !dir_ns +. ns);
      reply
    end
  in
  let (_ : replay) =
    replay ~exact_alloc:true ~before_ops:(fun _ -> measuring := true) gen (Wrapped wrap)
  in
  {
    bullet_reqs = !bullet_reqs;
    bullet_ns = !bullet_ns;
    bullet_alloc = !bullet_alloc;
    dir_reqs = !dir_reqs;
    dir_self_ns = !dir_ns -. !nested_ns;
  }
