module Cap = Amoeba_cap.Capability
module Status = Amoeba_rpc.Status
module Clock = Amoeba_sim.Clock
module Stats = Amoeba_sim.Stats
module Trace = Amoeba_trace.Trace
module Sink = Amoeba_trace.Sink
module Dir_client = Amoeba_dir.Dir_client

(* A leased client station: whole-file cache + per-directory leases.

   The fast path serves a repeat read of an immutable file with zero RPCs
   and zero simulated network time: capability checked locally (trusted
   stations hold the server's sealer), bytes copied out of the client
   cache. The server stays authoritative through the lease protocol —
   the station may serve from cache only while it holds an unexpired
   lease on the directory the name was resolved in, and the directory
   server waits out every granted lease before completing an
   epoch-bumping mutation (Dir_server). Safety rests on the lease
   deadline being dated from the *request send* time, which can never be
   later than the server's grant time.

   The station measures lease validity on its own "lease clock": the
   shared simulated clock plus a skew offset that fault plans can move
   (Plan.Lease_clock_skew). A forward step only makes leases look
   shorter (liveness loss); a backward step would stretch them past the
   server's horizon, so any observed backward step drops every lease on
   the floor — the classic clock-step rule for lease managers. *)

type config = { cache_bytes : int }

let default_config = { cache_bytes = 4 * 1024 * 1024 }

(* Deadline safety margin against small drift: 10 ms. *)
let skew_margin_us = 10_000

(* CPU charge for a trusted local check: 50 µs. *)
let local_verify_us = 50

(* Client RAM copy rate for cache hits: 8 MB/s. *)
let copy_bytes_per_sec = 8_000_000

(* Send attempts per lease RPC (timeout retries): 4. *)
let attempts = 4

(* Base backoff between retries, doubling: 50 ms. *)
let backoff_us = 50_000

type dir_lease = {
  mutable epoch : int; (* -1 until the first grant *)
  mutable deadline : int; (* lease-clock µs; serve from cache strictly before *)
  bindings : (string, Cap.t) Hashtbl.t; (* name -> capability, this epoch *)
}

type t = {
  store : Bullet_core.Client.t;
  dirs : Dir_client.t;
  sealer : Amoeba_cap.Sealer.t option;
  clock : Clock.t;
  cache : File_cache.t;
  leases : (string, dir_lease) Hashtbl.t; (* keyed by directory capability *)
  stats : Stats.t;
  mutable skew_us : int;
  mutable tracer : Trace.ctx option;
}

let create ?(config = default_config) ?sealer ~store ~dirs () =
  {
    store;
    dirs;
    sealer;
    clock = Amoeba_rpc.Transport.clock (Bullet_core.Client.transport store);
    cache = File_cache.create ~capacity_bytes:config.cache_bytes;
    leases = Hashtbl.create 16;
    stats = Stats.create "station";
    skew_us = 0;
    tracer = None;
  }

let cache t = t.cache

let stats t = t.stats

let trusted t = Option.is_some t.sealer

let set_tracer t tracer =
  t.tracer <- tracer;
  File_cache.set_tracer t.cache tracer

let skew t = t.skew_us

let lease_now t = Clock.now t.clock + t.skew_us

let drop_leases t = Hashtbl.reset t.leases

let set_skew t us =
  if us < t.skew_us then begin
    (* The lease clock was observed stepping backwards. Every deadline
       was measured on the old, faster clock and could now outlive the
       server's horizon; the only safe response is to forget them all. *)
    Stats.incr t.stats "lease_clock_steps_back";
    drop_leases t
  end;
  t.skew_us <- us

let trace_event t name attrs =
  match t.tracer with
  | None -> ()
  | Some tr -> Trace.event tr ~layer:Sink.Client ~name attrs

(* Dir stubs raise on timeouts (lost revalidation messages under fault
   plans); the station retries with doubling backoff, like the Bullet
   client stubs do. Lease RPCs are idempotent. *)
let rec retrying t attempt f =
  try f ()
  with Status.Error Status.Timeout when attempt < attempts ->
    Stats.incr t.stats "retries";
    Clock.advance t.clock (Amoeba_fault.Backoff.doubling ~base_us:backoff_us ~attempt);
    retrying t (attempt + 1) f

let lease_state t dir =
  let key = Cap.to_string dir in
  match Hashtbl.find_opt t.leases key with
  | Some ls -> ls
  | None ->
    let ls = { epoch = -1; deadline = min_int; bindings = Hashtbl.create 8 } in
    Hashtbl.replace t.leases key ls;
    ls

let lease_valid t ls = ls.epoch >= 0 && lease_now t < ls.deadline

(* Date the lease from [sent_at] — the lease clock *before* the grant
   request went out. The server records its horizon at serve time, which
   is never earlier, so our deadline (minus the safety margin) is always
   inside the server's write-wait window. *)
let arm ls ~epoch ~lease_us ~sent_at =
  ls.epoch <- epoch;
  ls.deadline <- sent_at + lease_us - skew_margin_us

let revoke t ls =
  Stats.incr t.stats "lease_revokes";
  trace_event t "lease.revoke" [];
  Amoeba_sim.Tbl.sorted_iter String.compare
    (fun _name cap -> File_cache.remove t.cache cap)
    ls.bindings;
  Hashtbl.reset ls.bindings

(* One cheap epoch-check RPC when the lease has lapsed: same epoch means
   every binding cached under this directory is still current. *)
let revalidate t dir ls =
  let sent_at = lease_now t in
  let epoch, lease_us = retrying t 1 (fun () -> Dir_client.renew_lease t.dirs dir) in
  if ls.epoch >= 0 && epoch <> ls.epoch then revoke t ls
  else begin
    Stats.incr t.stats "lease_renewals";
    trace_event t "lease.renew" [ ("epoch", Sink.I epoch) ]
  end;
  arm ls ~epoch ~lease_us ~sent_at

let lookup_leased t dir ls name =
  let sent_at = lease_now t in
  let cap, epoch, lease_us = retrying t 1 (fun () -> Dir_client.lookup_lease t.dirs dir name) in
  if ls.epoch >= 0 && epoch <> ls.epoch then revoke t ls;
  arm ls ~epoch ~lease_us ~sent_at;
  Stats.incr t.stats "lease_grants";
  trace_event t "lease.grant" [ ("epoch", Sink.I epoch) ];
  Hashtbl.replace ls.bindings name cap;
  cap

let charge_verify t cap =
  match t.sealer with
  | Some sealer ->
    (* trusted station: decrypt-and-compare locally, a few µs of CPU *)
    Stats.incr t.stats "local_verifies";
    Clock.advance t.clock local_verify_us;
    if not (Amoeba_cap.Sealer.verify_local sealer ~cap) then
      raise (Status.Error Status.Bad_capability)
  | None ->
    (* untrusted station: the check field is opaque; validation is one
       cheap server round trip (SIZE verifies the capability) *)
    Stats.incr t.stats "remote_verifies";
    ignore (retrying t 1 (fun () -> Bullet_core.Client.size t.store cap) : int)

let serve_cached t cap data =
  charge_verify t cap;
  (match t.tracer with
  | None -> Clock.advance t.clock (Bytes.length data * 1_000_000 / copy_bytes_per_sec)
  | Some tr ->
    Trace.begin_span tr ~layer:Sink.Cache ~name:"station.memcpy";
    Clock.advance t.clock (Bytes.length data * 1_000_000 / copy_bytes_per_sec);
    Trace.end_span_attrs tr [ ("bytes", Sink.I (Bytes.length data)) ]);
  Stats.incr t.stats "leased_reads";
  Bytes.copy data

(* The cache keeps the fetched buffer; the caller gets its own copy, so
   writing into a read's result cannot change what later reads serve. *)
let fetch t cap =
  let data = retrying t 1 (fun () -> Bullet_core.Client.read t.store cap) in
  File_cache.insert t.cache cap data;
  Bytes.copy data

let read_body t dir name =
  Stats.incr t.stats "reads";
  let ls = lease_state t dir in
  if (not (lease_valid t ls)) && ls.epoch >= 0 then begin
    Stats.incr t.stats "lease_expiries";
    trace_event t "lease.expire" [];
    revalidate t dir ls
  end;
  let cap =
    match Hashtbl.find_opt ls.bindings name with
    | Some cap when lease_valid t ls -> cap
    | _ -> lookup_leased t dir ls name
  in
  match File_cache.find t.cache cap with
  | Some data ->
    trace_event t "cache.client_hit" [ ("bytes", Sink.I (Bytes.length data)) ];
    serve_cached t cap data
  | None ->
    trace_event t "cache.client_miss" [];
    fetch t cap

let read t ~dir name =
  match t.tracer with
  | None -> read_body t dir name
  | Some tr ->
    Trace.begin_root tr ~xid:0 ~layer:Sink.Client ~name:"leased.read";
    (match read_body t dir name with
    | data ->
      Trace.end_span_attrs tr [ ("bytes", Sink.I (Bytes.length data)) ];
      data
    | exception e ->
      Trace.end_span_attrs tr [ ("raised", Sink.S "raised") ];
      raise e)

let register_metrics t reg =
  let module M = Amoeba_metrics.Metrics in
  (* churn = lease lifecycle events beyond what steady cached reads
     explain; the health evaluator watches its per-interval delta *)
  M.gauge reg "lease.churn" (fun () ->
      let c key = Amoeba_sim.Stats.count t.stats key in
      c "lease_grants" + c "lease_renewals" + c "lease_revokes" + c "lease_expiries"
      + c "lease_clock_steps_back");
  M.gauge reg "lease.skew_us" (fun () -> skew t);
  M.stats_source reg ~prefix:"lease" t.stats;
  File_cache.register_metrics t.cache ~prefix:"client_cache" reg
