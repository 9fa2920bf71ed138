type entry = { inode : int; mutable offset : int; length : int }

type t = {
  storage : Bytes.t;
  alloc : Extent_alloc.t;
  rnodes : entry option array; (* slot 0 unused: rnode indices are 1-based *)
  (* The LRU order: a circular doubly linked list threaded through the
     resident rnode indices, with index 0 as its sentinel. [next.(0)] is
     the least recently used file, [prev.(0)] the most recent. *)
  prev : int array;
  next : int array;
  free_rnodes : int Stack.t;
  on_evict : inode:int -> rnode:int -> unit;
  stats : Amoeba_sim.Stats.t;
  evicted_bytes : int ref; (* the [bytes_evicted] cell of [stats] *)
  mutable resident : int;
  mutable used : int;
  mutable tracer : Amoeba_trace.Trace.ctx option;
}

let create ~capacity ~max_rnodes ~on_evict =
  if capacity < 0 then invalid_arg "Cache.create: negative capacity";
  if max_rnodes <= 0 then invalid_arg "Cache.create: need at least one rnode";
  let free_rnodes = Stack.create () in
  let stats = Amoeba_sim.Stats.create "cache" in
  for i = max_rnodes downto 1 do
    Stack.push i free_rnodes
  done;
  {
    storage = Bytes.make capacity '\000';
    alloc = Extent_alloc.create ~start:0 ~length:capacity ();
    rnodes = Array.make (max_rnodes + 1) None;
    prev = Array.make (max_rnodes + 1) 0;
    next = Array.make (max_rnodes + 1) 0;
    free_rnodes;
    on_evict;
    stats;
    evicted_bytes = Amoeba_sim.Stats.counter stats "bytes_evicted";
    resident = 0;
    used = 0;
    tracer = None;
  }

let set_tracer t tracer = t.tracer <- tracer

let capacity t = Bytes.length t.storage

let used_bytes t = t.used

let resident_files t = t.resident

let unlink t i =
  let p = t.prev.(i) and n = t.next.(i) in
  t.next.(p) <- n;
  t.prev.(n) <- p

let push_newest t i =
  let last = t.prev.(0) in
  t.next.(last) <- i;
  t.prev.(i) <- last;
  t.next.(i) <- 0;
  t.prev.(0) <- i

let entry t rnode =
  if rnode < 1 || rnode >= Array.length t.rnodes then
    invalid_arg (Printf.sprintf "Cache: rnode %d out of range" rnode);
  match t.rnodes.(rnode) with
  | Some e -> e
  | None -> invalid_arg (Printf.sprintf "Cache: rnode %d is free" rnode)

let drop t rnode =
  let e = entry t rnode in
  if e.length > 0 then Extent_alloc.free t.alloc ~start:e.offset ~length:e.length;
  t.rnodes.(rnode) <- None;
  unlink t rnode;
  Stack.push rnode t.free_rnodes;
  t.resident <- t.resident - 1;
  t.used <- t.used - e.length

let evict_one t =
  match t.next.(0) with
  | 0 -> false
  | rnode ->
    let e = entry t rnode in
    drop t rnode;
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
    if Stack.is_empty t.free_rnodes then if evict_one t then go () else None
    else if n = 0 then Some (-1)
    else
      match Extent_alloc.alloc t.alloc n with
      | Some offset -> Some offset
      | None -> if evict_one t then go () else None
  in
  match go () with
  | None -> None
  | Some offset ->
    let rnode = Stack.pop t.free_rnodes in
    let offset = if n = 0 then 0 else offset in
    t.rnodes.(rnode) <- Some { inode; offset; length = n };
    push_newest t rnode;
    t.resident <- t.resident + 1;
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
    let e = entry t rnode in
    Bytes.blit data 0 t.storage e.offset e.length;
    Some rnode

let refresh t rnode =
  unlink t rnode;
  push_newest t rnode

let get t ~rnode =
  let e = entry t rnode in
  refresh t rnode;
  Bytes.sub t.storage e.offset e.length

let sub t ~rnode ~pos ~len =
  let e = entry t rnode in
  if pos < 0 || len < 0 || pos + len > e.length then invalid_arg "Cache.sub: range out of bounds";
  refresh t rnode;
  Bytes.sub t.storage (e.offset + pos) len

let fill t ~rnode f =
  let e = entry t rnode in
  f t.storage e.offset e.length

let inode_of t ~rnode = (entry t rnode).inode

let length_of t ~rnode = (entry t rnode).length

let remove t ~rnode =
  let (_ : entry) = entry t rnode in
  drop t rnode

let touch t ~rnode =
  let (_ : entry) = entry t rnode in
  refresh t rnode

let compact t =
  (* Collect resident segments in address order and slide each down to the
     end of the previous one. *)
  let segments = ref [] in
  Array.iter
    (fun slot -> match slot with Some e when e.length > 0 -> segments := e :: !segments | _ -> ())
    t.rnodes;
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
