module Status = Amoeba_rpc.Status

type config = { cache_bytes : int; max_cached_files : int; alloc_policy : Extent_alloc.policy }

let default_config =
  { cache_bytes = 12 * 1024 * 1024; max_cached_files = 4096; alloc_policy = Extent_alloc.First_fit }

(* Per-request server CPU cost: 1.2 ms. *)
let cpu_request_us = 1_200

(* RAM-to-RAM copy rate of the server CPU: 8 MB/s (16.7 MHz MC68020). *)
let copy_bytes_per_sec = 8_000_000

type t = {
  mirror : Amoeba_disk.Mirror.t;
  clock : Amoeba_sim.Clock.t;
  table : Inode_table.t;
  disk_alloc : Extent_alloc.t;
  cache : Cache.t;
  sealer : Amoeba_cap.Sealer.t;
  prng : Amoeba_sim.Prng.t;
  service_port : Amoeba_cap.Port.t;
  stats : Amoeba_sim.Stats.t;
  metrics : Amoeba_metrics.Metrics.t;
  read_hist : Amoeba_sim.Stats.Hist.t;
  block_size : int;
  (* 2PC participant state, RAM only: a crash forgets both lists, which
     is exactly the failure the coordinator's recovery (and the fsck
     orphan sweep) must — and does — clean up after.  Plain assoc lists:
     a server holds at most a handful of in-flight transactions, and
     list order never reaches persisted bytes. *)
  mutable pending : (int * int) list; (* prepared creates: (txn, obj) *)
  mutable condemned : (int * int) list; (* prepared deletes: (txn, obj) *)
  mutable dead : bool;
  mutable tracer : Amoeba_trace.Trace.ctx option;
}

let format mirror ~max_files =
  let (_ : Layout.descriptor) = Inode_table.format mirror ~max_files in
  ()

let start ?(config = default_config) ?(seed = 0x42554C4C45545FL) mirror =
  match Inode_table.load mirror with
  | Error e -> Error e
  | Ok (table, report) ->
    let desc = Inode_table.descriptor table in
    let data_lo = Layout.data_start desc in
    let disk_alloc =
      Extent_alloc.create ~policy:config.alloc_policy ~start:data_lo
        ~length:desc.Layout.data_size ()
    in
    let block_size = desc.Layout.block_size in
    let blocks_of_bytes n = (n + block_size - 1) / block_size in
    (* Rebuild the disk free list by scanning the inodes (paper §3). *)
    Inode_table.iter_live table (fun _ inode ->
        let blocks = blocks_of_bytes inode.Layout.size_bytes in
        if blocks > 0 then
          Extent_alloc.reserve disk_alloc ~start:inode.Layout.first_block ~length:blocks);
    let prng = Amoeba_sim.Prng.create ~seed in
    let on_evict ~inode ~rnode:_ =
      (* Clear the index field in the inode when LRU replacement drops the
         cached copy; RAM-only, never flushed. *)
      let entry = Inode_table.get table inode in
      Inode_table.set table inode { entry with Layout.index = 0 }
    in
    let cache = Cache.create ~capacity:config.cache_bytes ~max_rnodes:config.max_cached_files ~on_evict in
    let stats = Amoeba_sim.Stats.create "bullet" in
    let server =
      {
        mirror;
        clock = Amoeba_disk.Block_device.clock (Amoeba_disk.Mirror.primary mirror);
        table;
        disk_alloc;
        cache;
        sealer = Amoeba_cap.Sealer.of_passphrase (Printf.sprintf "bullet-%Ld" seed);
        prng;
        service_port = Amoeba_cap.Port.random (Amoeba_sim.Prng.create ~seed:(Int64.add seed 1L));
        stats;
        metrics = Amoeba_metrics.Metrics.create "bullet";
        read_hist = Amoeba_sim.Stats.hist stats "read_us";
        block_size;
        pending = [];
        condemned = [];
        dead = false;
        tracer = None;
      }
    in
    (* The server's live surface: every layer it owns registers into one
       registry, scraped by STD_STATUS and the bulletd exposition. *)
    let module M = Amoeba_metrics.Metrics in
    let reg = server.metrics in
    M.gauge reg "server.live_files" (fun () -> Inode_table.live_count table);
    M.gauge reg "server.free_inodes" (fun () -> Inode_table.free_count table);
    M.gauge reg "server.data_blocks" (fun () ->
        (Inode_table.descriptor table).Layout.data_size);
    M.gauge reg "alloc.free_blocks" (fun () -> Extent_alloc.free_total disk_alloc);
    M.gauge reg "alloc.largest_hole" (fun () -> Extent_alloc.largest_free disk_alloc);
    M.gauge reg "server.txn_pending" (fun () -> List.length server.pending);
    M.gauge reg "server.txn_condemned" (fun () -> List.length server.condemned);
    M.stats_source reg ~prefix:"server" server.stats;
    Cache.register_metrics cache ~prefix:"cache" reg;
    Amoeba_disk.Mirror.register_metrics mirror reg;
    Ok (server, report)

let boot ?config ?seed ~clock ~id ~sectors ~max_files () =
  let geometry = Amoeba_disk.Geometry.small ~sectors in
  let drive n = Amoeba_disk.Block_device.create ~id:(Printf.sprintf "%s-%d" id n) ~geometry ~clock in
  (* drive ids and creation order show in traces: name 1 first *)
  let d1 = drive 1 in
  let d2 = drive 2 in
  let mirror = Amoeba_disk.Mirror.create [ d1; d2 ] in
  format mirror ~max_files;
  match start ?config ?seed mirror with
  | Ok (server, _report) -> server
  | Error e -> failwith (Printf.sprintf "Server.boot %s: fresh image failed to boot: %s" id e)

let port t = t.service_port

let clock t = t.clock

let mirror t = t.mirror

let sealer t = t.sealer

let stats t = t.stats

let metrics t = t.metrics

let set_tracer t tracer =
  t.tracer <- tracer;
  Cache.set_tracer t.cache tracer;
  Extent_alloc.set_tracer t.disk_alloc tracer;
  Amoeba_disk.Mirror.set_tracer t.mirror tracer

let tracer t = t.tracer

let crash t =
  t.dead <- true;
  (* volatile 2PC bookkeeping dies with the RAM; the prepared objects
     themselves are durable on disk and become the recovery's problem *)
  t.pending <- [];
  t.condemned <- [];
  Amoeba_disk.Mirror.crash t.mirror

(* ---- internal helpers ---- *)

let charge_cpu t =
  match t.tracer with
  | None -> Amoeba_sim.Clock.advance t.clock cpu_request_us
  | Some tr ->
    Amoeba_trace.Trace.begin_span tr ~layer:Amoeba_trace.Sink.Cpu ~name:"cpu.request";
    Amoeba_sim.Clock.advance t.clock cpu_request_us;
    Amoeba_trace.Trace.end_span tr

let charge_copy t bytes =
  if bytes > 0 then begin
    match t.tracer with
    | None -> Amoeba_sim.Clock.advance t.clock (bytes * 1_000_000 / copy_bytes_per_sec)
    | Some tr ->
      Amoeba_trace.Trace.begin_span tr ~layer:Amoeba_trace.Sink.Cache ~name:"cache.memcpy";
      Amoeba_sim.Clock.advance t.clock (bytes * 1_000_000 / copy_bytes_per_sec);
      Amoeba_trace.Trace.end_span_attrs tr [ ("bytes", Amoeba_trace.Sink.I bytes) ]
  end

let blocks_of t bytes = (bytes + t.block_size - 1) / t.block_size

let padded t bytes = blocks_of t bytes * t.block_size

let ( let* ) = Result.bind

let guard_alive t = if t.dead then Error Status.Server_failure else Ok ()

(* Capability validation: object number indexes the inode table; the check
   field must decrypt to (rights, inode random); the needed rights must be
   present. *)
let verify t cap ~need =
  let open Amoeba_cap in
  if not (Port.equal cap.Capability.port t.service_port) then Error Status.No_such_object
  else
    let obj = cap.Capability.obj in
    if obj < 1 || obj > Inode_table.max_inode t.table then Error Status.No_such_object
    else
      let inode = Inode_table.get t.table obj in
      if Layout.is_free inode then Error Status.No_such_object
      else if not (Sealer.verify t.sealer ~random:inode.Layout.random ~cap) then
        Error Status.Bad_capability
      else if not (Rights.subset need cap.Capability.rights) then Error Status.Bad_capability
      else Ok (obj, inode)

let default_p t = Amoeba_disk.Mirror.live_count t.mirror

let check_p t = function
  | None -> Ok (default_p t)
  | Some p ->
    if p < 0 || p > List.length (Amoeba_disk.Mirror.drives t.mirror) then Error Status.Bad_request
    else Ok p

(* Write a file's data area through the mirror, padded to whole blocks. *)
let write_file_data t ~sync ~first_block data =
  let len = Bytes.length data in
  if len > 0 then begin
    let buf = Bytes.make (padded t len) '\000' in
    Bytes.blit data 0 buf 0 len;
    Amoeba_disk.Mirror.write t.mirror ~sync ~sector:first_block buf
  end

let create_internal t ~p data =
  let size = Bytes.length data in
  if size > Cache.capacity t.cache then Error Status.No_space
  else
    let* obj = Option.to_result ~none:Status.No_space (Inode_table.alloc t.table) in
    let blocks = blocks_of t size in
    let release_inode () = Inode_table.free t.table obj in
    let* first_block =
      if blocks = 0 then Ok (Layout.data_start (Inode_table.descriptor t.table))
      else
        match Extent_alloc.alloc t.disk_alloc blocks with
        | Some start -> Ok start
        | None ->
          release_inode ();
          Error Status.No_space
    in
    (* The file goes into the RAM cache first; the client's data lands
       there straight off the wire (one copy). *)
    charge_copy t size;
    match Cache.insert t.cache ~inode:obj data with
    | None ->
      if blocks > 0 then Extent_alloc.free t.disk_alloc ~start:first_block ~length:blocks;
      release_inode ();
      Error Status.No_space
    | Some rnode ->
      let random = Amoeba_cap.Sealer.fresh_random t.sealer t.prng in
      let inode = { Layout.random; index = rnode; first_block; size_bytes = size } in
      Inode_table.set t.table obj inode;
      (* Write-through: file data, then the inode block, replied per the
         paranoia factor. *)
      write_file_data t ~sync:p ~first_block data;
      Inode_table.flush t.table ~sync:p obj;
      let rights = Amoeba_cap.Rights.all in
      let check = Amoeba_cap.Sealer.seal t.sealer ~random ~rights in
      Amoeba_sim.Stats.incr t.stats "creates";
      Ok (Amoeba_cap.Capability.v ~port:t.service_port ~obj ~rights ~check)

let create t ?p_factor data =
  let* () = guard_alive t in
  charge_cpu t;
  let* p = check_p t p_factor in
  create_internal t ~p data

let size t cap =
  let* () = guard_alive t in
  charge_cpu t;
  let* _obj, inode = verify t cap ~need:Amoeba_cap.Rights.read in
  Ok inode.Layout.size_bytes

(* Bring a file into the cache, returning its rnode. *)
let ensure_cached t obj inode =
  if inode.Layout.index <> 0 then begin
    Amoeba_sim.Stats.incr t.stats "cache_hits";
    (match t.tracer with
    | None -> ()
    | Some tr ->
      Amoeba_trace.Trace.event tr ~layer:Amoeba_trace.Sink.Cache ~name:"cache.hit"
        [ ("inode", Amoeba_trace.Sink.I obj) ]);
    Ok inode.Layout.index
  end
  else begin
    Amoeba_sim.Stats.incr t.stats "cache_misses";
    (match t.tracer with
    | None -> ()
    | Some tr ->
      Amoeba_trace.Trace.event tr ~layer:Amoeba_trace.Sink.Cache ~name:"cache.miss"
        [
          ("inode", Amoeba_trace.Sink.I obj);
          ("bytes", Amoeba_trace.Sink.I inode.Layout.size_bytes);
        ]);
    let size = inode.Layout.size_bytes in
    match Cache.reserve t.cache ~inode:obj size with
    | None -> Error Status.No_space
    | Some rnode ->
      if size > 0 then begin
        let blocks = blocks_of t size in
        let raw = Amoeba_disk.Mirror.read t.mirror ~sector:inode.Layout.first_block ~count:blocks in
        Cache.blit_in t.cache ~rnode ~pos:0 (Bytes.sub raw 0 size)
      end;
      Inode_table.set t.table obj { inode with Layout.index = rnode };
      Ok rnode
  end

let read t cap =
  let began = Amoeba_sim.Clock.now t.clock in
  let* () = guard_alive t in
  charge_cpu t;
  let* obj, inode = verify t cap ~need:Amoeba_cap.Rights.read in
  let* rnode = ensure_cached t obj inode in
  Amoeba_sim.Stats.incr t.stats "reads";
  let data = Cache.get t.cache ~rnode in
  Amoeba_sim.Stats.Hist.record t.read_hist (Amoeba_sim.Clock.now t.clock - began);
  Ok data

let read_range t cap ~pos ~len =
  let* () = guard_alive t in
  charge_cpu t;
  let* obj, inode = verify t cap ~need:Amoeba_cap.Rights.read in
  if pos < 0 || len < 0 || pos + len > inode.Layout.size_bytes then Error Status.Bad_request
  else
    let* rnode = ensure_cached t obj inode in
    Amoeba_sim.Stats.incr t.stats "reads";
    Ok (Cache.sub t.cache ~rnode ~pos ~len)

(* Free one object — cache, extent, inode — and zero the inode on every
   disk before the reply: "both creation and deletion involve requests
   to two disks". *)
let delete_obj t obj inode =
  if inode.Layout.index <> 0 then Cache.remove t.cache ~rnode:inode.Layout.index;
  let blocks = blocks_of t inode.Layout.size_bytes in
  if blocks > 0 then Extent_alloc.free t.disk_alloc ~start:inode.Layout.first_block ~length:blocks;
  Inode_table.free t.table obj;
  Inode_table.flush t.table ~sync:(Amoeba_disk.Mirror.live_count t.mirror) obj;
  Amoeba_sim.Stats.incr t.stats "deletes"

let is_condemned t obj = List.exists (fun (_, o) -> o = obj) t.condemned

let delete t cap =
  let* () = guard_alive t in
  charge_cpu t;
  let* obj, inode = verify t cap ~need:Amoeba_cap.Rights.delete in
  (* An object condemned by a prepared transaction is spoken for: its
     fate is the coordinator's decision, not an ordinary DELETE's. *)
  if is_condemned t obj then Error Status.Exists
  else begin
    delete_obj t obj inode;
    Ok ()
  end

(* §5: derive a new file from an existing one without shipping the whole
   contents over the wire. The server builds the new contents in RAM and
   runs the normal create path. *)
let derive t ?p_factor cap ~new_size ~build =
  let* () = guard_alive t in
  charge_cpu t;
  let* p = check_p t p_factor in
  let need = Amoeba_cap.Rights.(union read modify) in
  let* obj, inode = verify t cap ~need in
  if new_size > Cache.capacity t.cache then Error Status.No_space
  else
    let* rnode = ensure_cached t obj inode in
    let old_contents = Cache.get t.cache ~rnode in
    let contents = Bytes.make new_size '\000' in
    build ~old_contents ~contents;
    charge_copy t new_size;
    let* new_cap = create_internal t ~p contents in
    Amoeba_sim.Stats.incr t.stats "modifies";
    Ok new_cap

let modify t ?p_factor cap ~pos data =
  if pos < 0 then Error Status.Bad_request
  else
    let splice_len = Bytes.length data in
    let build ~old_contents ~contents =
      let old_len = Bytes.length old_contents in
      Bytes.blit old_contents 0 contents 0 (min old_len (Bytes.length contents));
      Bytes.blit data 0 contents pos splice_len
    in
    match size t cap with
    | Error e -> Error e
    | Ok old_size ->
      if pos > old_size then Error Status.Bad_request
      else derive t ?p_factor cap ~new_size:(max old_size (pos + splice_len)) ~build

let append t ?p_factor cap data =
  match size t cap with
  | Error e -> Error e
  | Ok old_size -> modify t ?p_factor cap ~pos:old_size data

let truncate t ?p_factor cap n =
  if n < 0 then Error Status.Bad_request
  else
    match size t cap with
    | Error e -> Error e
    | Ok old_size ->
      if n > old_size then Error Status.Bad_request
      else
        let build ~old_contents ~contents = Bytes.blit old_contents 0 contents 0 n in
        derive t ?p_factor cap ~new_size:n ~build

let restrict t cap rights =
  let* () = guard_alive t in
  charge_cpu t;
  let* _obj, inode = verify t cap ~need:Amoeba_cap.Rights.none in
  match Amoeba_cap.Sealer.restrict t.sealer ~random:inode.Layout.random ~cap ~rights with
  | None -> Error Status.Bad_capability
  | Some narrowed -> Ok narrowed

(* ---- two-phase commit participant ----

   Prepare makes the outcome durable-capable, not visible: a prepared
   create writes data and inode through to every disk (full sync — a
   prepared vote is a promise, so it gets no P-FACTOR discount) and is
   remembered in the RAM [pending] list; a prepared delete only marks
   the object condemned, still readable.  Commit and abort are
   idempotent and carry the capability, so a rebooted, amnesiac server
   can still act on a re-sent decision: the seal on the inode random
   proves the cap refers to the same incarnation of the object, and an
   already-resolved object simply answers Ok.  What a crash loses — the
   pending list — is exactly what the fsck orphan sweep reconstructs
   from reachability. *)

type txn_kind = Txn_create | Txn_delete

let txn_prepare_create t ~txn data =
  let* () = guard_alive t in
  charge_cpu t;
  (* full sync: every live drive holds the prepared object before the
     yes-vote leaves the server *)
  let* cap = create_internal t ~p:(default_p t) data in
  t.pending <- (txn, cap.Amoeba_cap.Capability.obj) :: t.pending;
  Amoeba_sim.Stats.incr t.stats "txn_prepares";
  Ok cap

let txn_prepare_delete t ~txn cap =
  let* () = guard_alive t in
  charge_cpu t;
  let* obj, _inode = verify t cap ~need:Amoeba_cap.Rights.delete in
  if is_condemned t obj then Error Status.Exists (* claimed by another transaction *)
  else begin
    t.condemned <- (txn, obj) :: t.condemned;
    Amoeba_sim.Stats.incr t.stats "txn_prepares";
    Ok ()
  end

let forget_pending t ~txn obj =
  t.pending <- List.filter (fun (x, o) -> not (x = txn && o = obj)) t.pending

let forget_condemned t ~txn obj =
  t.condemned <- List.filter (fun (x, o) -> not (x = txn && o = obj)) t.condemned

let txn_commit t ~txn ~kind cap =
  let* () = guard_alive t in
  charge_cpu t;
  Amoeba_sim.Stats.incr t.stats "txn_commits";
  let obj = cap.Amoeba_cap.Capability.obj in
  match kind with
  | Txn_create ->
    (* the object is already durable; commit just stops excluding it *)
    forget_pending t ~txn obj;
    Ok ()
  | Txn_delete -> (
    forget_condemned t ~txn obj;
    match verify t cap ~need:Amoeba_cap.Rights.delete with
    | Error _ -> Ok () (* already gone: a re-sent decision *)
    | Ok (obj, inode) ->
      delete_obj t obj inode;
      Ok ())

let txn_abort t ~txn ~kind cap =
  let* () = guard_alive t in
  charge_cpu t;
  Amoeba_sim.Stats.incr t.stats "txn_aborts";
  let obj = cap.Amoeba_cap.Capability.obj in
  match kind with
  | Txn_create -> (
    forget_pending t ~txn obj;
    match verify t cap ~need:Amoeba_cap.Rights.delete with
    | Error _ -> Ok () (* never prepared here, or already swept *)
    | Ok (obj, inode) ->
      delete_obj t obj inode;
      Ok ())
  | Txn_delete ->
    (* lift the condemnation; the object stays live *)
    forget_condemned t ~txn obj;
    Ok ()

let txn_abort_all t ~txn =
  (* presumed abort, addressed by transaction id alone: a recovering
     coordinator that never logged the prepared capabilities can still
     roll this server back.  Unknown transactions answer Ok — after a
     participant reboot the pending list is empty and the orphan sweep
     owns the leftovers. *)
  let* () = guard_alive t in
  charge_cpu t;
  Amoeba_sim.Stats.incr t.stats "txn_aborts";
  let mine = List.filter (fun (x, _) -> x = txn) t.pending in
  List.iter
    (fun (_, obj) ->
      let inode = Inode_table.get t.table obj in
      if not (Layout.is_free inode) then delete_obj t obj inode)
    mine;
  t.pending <- List.filter (fun (x, _) -> not (x = txn)) t.pending;
  t.condemned <- List.filter (fun (x, _) -> not (x = txn)) t.condemned;
  Ok ()

let txn_pending_objs t = List.map snd t.pending

let live_objs t =
  let objs = ref [] in
  Inode_table.iter_live t.table (fun obj _ -> objs := obj :: !objs);
  List.rev !objs

let admin_delete_obj t obj =
  if t.dead || obj < 1 || obj > Inode_table.max_inode t.table then false
  else
    let inode = Inode_table.get t.table obj in
    if Layout.is_free inode then false
    else begin
      delete_obj t obj inode;
      true
    end

let txn_pending_count t = List.length t.pending

let txn_condemned_count t = List.length t.condemned

(* ---- administration ---- *)

let compact_disk t =
  if t.dead then 0
  else begin
    let desc = Inode_table.descriptor t.table in
    let data_lo = Layout.data_start desc in
    let live = ref [] in
    Inode_table.iter_live t.table (fun obj inode ->
        if blocks_of t inode.Layout.size_bytes > 0 then live := (obj, inode) :: !live);
    let by_start =
      List.sort (fun (_, a) (_, b) -> Int.compare a.Layout.first_block b.Layout.first_block) !live
    in
    let moved = ref 0 in
    let next = ref data_lo in
    let relocate (obj, inode) =
      let blocks = blocks_of t inode.Layout.size_bytes in
      if inode.Layout.first_block <> !next then begin
        let data = Amoeba_disk.Mirror.read t.mirror ~sector:inode.Layout.first_block ~count:blocks in
        let sync = Amoeba_disk.Mirror.live_count t.mirror in
        Amoeba_disk.Mirror.write t.mirror ~sync ~sector:!next data;
        Extent_alloc.free t.disk_alloc ~start:inode.Layout.first_block ~length:blocks;
        Extent_alloc.reserve t.disk_alloc ~start:!next ~length:blocks;
        Inode_table.set t.table obj { inode with Layout.first_block = !next };
        Inode_table.flush t.table ~sync obj;
        moved := !moved + blocks
      end;
      next := !next + blocks
    in
    List.iter relocate by_start;
    Amoeba_sim.Stats.incr t.stats "disk_compactions";
    !moved
  end

let compact_cache t =
  if t.dead then 0
  else begin
    let moved = Cache.compact t.cache in
    charge_copy t moved;
    moved
  end

let live_files t = Inode_table.live_count t.table

let free_inodes t = Inode_table.free_count t.table

let data_blocks t = (Inode_table.descriptor t.table).Layout.data_size

let free_blocks t = Extent_alloc.free_total t.disk_alloc

let largest_hole_blocks t = Extent_alloc.largest_free t.disk_alloc

let disk_fragmentation t = Extent_alloc.fragmentation t.disk_alloc

let cache_used t = Cache.used_bytes t.cache

let cache_capacity t = Cache.capacity t.cache

let cache_stats t = Cache.stats t.cache

let cache_bytes_evicted t = Cache.bytes_evicted t.cache
