module Cap = Amoeba_cap.Capability
module Lru = Amoeba_sim.Lru

(* The client-side whole-file cache. Keys are the printable capability
   form — object number plus sealed check field — so a re-bound name
   (new capability, new check) can never alias an old file's bytes.
   Bullet files are immutable, so entries are never updated in place;
   consistency is entirely the lease layer's problem. *)

type t = {
  capacity : int;
  slots : (string, int) Hashtbl.t; (* key -> its slot in [files] *)
  files : (string * bytes) Lru.t;
  stats : Amoeba_sim.Stats.t;
  evicted_bytes : int ref; (* the [bytes_evicted] cell of [stats] *)
  mutable used : int;
  mutable tracer : Amoeba_trace.Trace.ctx option;
}

let create ~capacity_bytes =
  if capacity_bytes < 0 then invalid_arg "File_cache.create: negative capacity";
  let stats = Amoeba_sim.Stats.create "client-cache" in
  {
    capacity = capacity_bytes;
    slots = Hashtbl.create 64;
    files = Lru.create 64;
    stats;
    evicted_bytes = Amoeba_sim.Stats.counter stats "bytes_evicted";
    used = 0;
    tracer = None;
  }

let set_tracer t tracer = t.tracer <- tracer

let capacity t = t.capacity

let used_bytes t = t.used

let resident_files t = Lru.length t.files

let stats t = t.stats

let find t cap =
  match Hashtbl.find_opt t.slots (Cap.to_string cap) with
  | Some slot ->
    Lru.touch t.files slot;
    Amoeba_sim.Stats.incr t.stats "hits";
    Some (snd (Lru.get t.files slot))
  | None ->
    Amoeba_sim.Stats.incr t.stats "misses";
    None

let drop t slot =
  let key, data = Lru.get t.files slot in
  Hashtbl.remove t.slots key;
  Lru.remove t.files slot;
  t.used <- t.used - Bytes.length data

let remove t cap = Option.iter (drop t) (Hashtbl.find_opt t.slots (Cap.to_string cap))

let evict_one t =
  match Lru.oldest t.files with
  | 0 -> false
  | slot ->
    let len = Bytes.length (snd (Lru.get t.files slot)) in
    drop t slot;
    Amoeba_sim.Stats.incr t.stats "evictions";
    t.evicted_bytes := !(t.evicted_bytes) + len;
    (match t.tracer with
    | None -> ()
    | Some tr ->
      Amoeba_trace.Trace.event tr ~layer:Amoeba_trace.Sink.Cache ~name:"cache.client_evict"
        [ ("bytes", Amoeba_trace.Sink.I len) ]);
    true

(* Eviction stops at an empty cache, where [used] is 0 and the file fits. *)
let insert t cap data =
  let len = Bytes.length data in
  if len > t.capacity then Amoeba_sim.Stats.incr t.stats "oversize_rejects"
  else begin
    remove t cap;
    while t.used + len > t.capacity && evict_one t do
      ()
    done;
    let key = Cap.to_string cap in
    Hashtbl.replace t.slots key (Lru.add t.files (key, data));
    t.used <- t.used + len;
    Amoeba_sim.Stats.incr t.stats "insertions"
  end

let bytes_evicted t = !(t.evicted_bytes)

let register_metrics t ~prefix reg =
  let module M = Amoeba_metrics.Metrics in
  M.gauge reg (prefix ^ ".used_bytes") (fun () -> used_bytes t);
  M.gauge reg (prefix ^ ".capacity_bytes") (fun () -> capacity t);
  M.gauge reg (prefix ^ ".resident_files") (fun () -> resident_files t);
  M.stats_source reg ~prefix t.stats
