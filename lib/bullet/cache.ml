module Lru = Amoeba_sim.Lru

type entry = { inode : int; mutable offset : int; length : int }

type t = {
  storage : Bytes.t;
  alloc : Extent_alloc.t;
  files : entry Lru.t; (* slots are the rnode indices *)
  max_rnodes : int;
  on_evict : inode:int -> rnode:int -> unit;
  stats : Amoeba_sim.Stats.t;
  evicted_bytes : int ref; (* the [bytes_evicted] cell of [stats] *)
  mutable used : int;
  mutable tracer : Amoeba_trace.Trace.ctx option;
}

let create ~capacity ~max_rnodes ~on_evict =
  if capacity < 0 then invalid_arg "Cache.create: negative capacity";
  if max_rnodes <= 0 then invalid_arg "Cache.create: need at least one rnode";
  let stats = Amoeba_sim.Stats.create "cache" in
  {
    storage = Bytes.make capacity '\000';
    alloc = Extent_alloc.create ~start:0 ~length:capacity ();
    files = Lru.create max_rnodes;
    max_rnodes;
    on_evict;
    stats;
    evicted_bytes = Amoeba_sim.Stats.counter stats "bytes_evicted";
    used = 0;
    tracer = None;
  }

let set_tracer t tracer = t.tracer <- tracer

let capacity t = Bytes.length t.storage

let used_bytes t = t.used

let resident_files t = Lru.length t.files

let remove t ~rnode =
  let e = Lru.get t.files rnode in
  if e.length > 0 then Extent_alloc.free t.alloc ~start:e.offset ~length:e.length;
  Lru.remove t.files rnode;
  t.used <- t.used - e.length

let evict_one t =
  match Lru.oldest t.files with
  | 0 -> false
  | rnode ->
    let e = Lru.get t.files rnode in
    remove t ~rnode;
    t.on_evict ~inode:e.inode ~rnode;
    Amoeba_sim.Stats.incr t.stats "evictions";
    t.evicted_bytes := !(t.evicted_bytes) + e.length;
    (match t.tracer with
    | None -> ()
    | Some tr ->
      Amoeba_trace.Trace.event tr ~layer:Amoeba_trace.Sink.Cache ~name:"cache.evict"
        [ ("inode", Amoeba_trace.Sink.I e.inode); ("bytes", Amoeba_trace.Sink.I e.length) ]);
    true

(* Allocate [n] bytes and an rnode, evicting LRU files until both succeed
   or the cache is empty and still too small. *)
let make_room t ~inode n =
  let rec go () =
    if Lru.length t.files = t.max_rnodes then if evict_one t then go () else None
    else if n = 0 then Some 0
    else
      match Extent_alloc.alloc t.alloc n with
      | Some offset -> Some offset
      | None -> if evict_one t then go () else None
  in
  match go () with
  | None -> None
  | Some offset ->
    let rnode = Lru.add t.files { inode; offset; length = n } in
    t.used <- t.used + n;
    Amoeba_sim.Stats.incr t.stats "insertions";
    Some rnode

let reserve t ~inode n =
  if n < 0 then invalid_arg "Cache.reserve: negative size";
  if n > capacity t then None else make_room t ~inode n

let insert t ~inode data =
  match reserve t ~inode (Bytes.length data) with
  | None -> None
  | Some rnode ->
    let e = Lru.get t.files rnode in
    Bytes.blit data 0 t.storage e.offset e.length;
    Some rnode

let get t ~rnode =
  let e = Lru.get t.files rnode in
  Lru.touch t.files rnode;
  Bytes.sub t.storage e.offset e.length

let sub t ~rnode ~pos ~len =
  let e = Lru.get t.files rnode in
  if pos < 0 || len < 0 || pos + len > e.length then invalid_arg "Cache.sub: range out of bounds";
  Lru.touch t.files rnode;
  Bytes.sub t.storage (e.offset + pos) len

let fill t ~rnode f =
  let e = Lru.get t.files rnode in
  f t.storage e.offset e.length

let inode_of t ~rnode = (Lru.get t.files rnode).inode

let length_of t ~rnode = (Lru.get t.files rnode).length

let touch t ~rnode = Lru.touch t.files rnode

let compact t =
  (* Collect resident segments in address order and slide each down to the
     end of the previous one. *)
  let segments = ref [] in
  Lru.iter (fun e -> if e.length > 0 then segments := e :: !segments) t.files;
  let ordered = List.sort (fun a b -> Int.compare a.offset b.offset) !segments in
  let moved = ref 0 in
  let next = ref 0 in
  let slide e =
    if e.offset <> !next then begin
      Bytes.blit t.storage e.offset t.storage !next e.length;
      Extent_alloc.free t.alloc ~start:e.offset ~length:e.length;
      Extent_alloc.reserve t.alloc ~start:!next ~length:e.length;
      e.offset <- !next;
      moved := !moved + e.length
    end;
    next := !next + e.length
  in
  List.iter slide ordered;
  Amoeba_sim.Stats.incr t.stats "compactions";
  Amoeba_sim.Stats.add t.stats "bytes_moved" !moved;
  !moved

let stats t = t.stats

let bytes_evicted t = !(t.evicted_bytes)

let register_metrics t ~prefix reg =
  let module M = Amoeba_metrics.Metrics in
  M.gauge reg (prefix ^ ".used_bytes") (fun () -> used_bytes t);
  M.gauge reg (prefix ^ ".capacity_bytes") (fun () -> capacity t);
  M.gauge reg (prefix ^ ".resident_files") (fun () -> resident_files t);
  M.stats_source reg ~prefix t.stats
