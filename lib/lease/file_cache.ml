module Cap = Amoeba_cap.Capability

(* The client-side whole-file cache. Keys are the printable capability
   form — object number plus sealed check field — so a re-bound name
   (new capability, new check) can never alias an old file's bytes.
   Bullet files are immutable, so entries are never updated in place;
   consistency is entirely the lease layer's problem. *)

type entry = { data : bytes; mutable age : int }

type t = {
  capacity : int;
  table : (string, entry) Hashtbl.t;
  stats : Amoeba_sim.Stats.t;
  evicted_bytes : int ref; (* the [bytes_evicted] cell of [stats] *)
  mutable used : int;
  mutable tick : int;
  mutable tracer : Amoeba_trace.Trace.ctx option;
}

let create ~capacity_bytes =
  if capacity_bytes < 0 then invalid_arg "File_cache.create: negative capacity";
  let stats = Amoeba_sim.Stats.create "client-cache" in
  {
    capacity = capacity_bytes;
    table = Hashtbl.create 64;
    stats;
    evicted_bytes = Amoeba_sim.Stats.counter stats "bytes_evicted";
    used = 0;
    tick = 0;
    tracer = None;
  }

let set_tracer t tracer = t.tracer <- tracer

let capacity t = t.capacity

let used_bytes t = t.used

let resident_files t = Hashtbl.length t.table

let stats t = t.stats

let next_age t =
  t.tick <- t.tick + 1;
  t.tick

let find t cap =
  match Hashtbl.find_opt t.table (Cap.to_string cap) with
  | Some e ->
    e.age <- next_age t;
    Amoeba_sim.Stats.incr t.stats "hits";
    Some e.data
  | None ->
    Amoeba_sim.Stats.incr t.stats "misses";
    None

let remove t cap =
  let key = Cap.to_string cap in
  match Hashtbl.find_opt t.table key with
  | None -> ()
  | Some e ->
    Hashtbl.remove t.table key;
    t.used <- t.used - Bytes.length e.data

(* Deterministic LRU victim: the minimum age is unique (ages come from a
   monotonic tick), so the scan order cannot affect the choice; the
   sorted walk keeps even the tie-free scan order reproducible. *)
let lru t =
  let best = ref None in
  Amoeba_sim.Tbl.sorted_iter String.compare
    (fun key e ->
      match !best with
      | Some (_, b) when b.age <= e.age -> ()
      | _ -> best := Some (key, e))
    t.table;
  !best

let evict_one t =
  match lru t with
  | None -> false
  | Some (key, e) ->
    Hashtbl.remove t.table key;
    t.used <- t.used - Bytes.length e.data;
    Amoeba_sim.Stats.incr t.stats "evictions";
    t.evicted_bytes := !(t.evicted_bytes) + Bytes.length e.data;
    (match t.tracer with
    | None -> ()
    | Some tr ->
      Amoeba_trace.Trace.event tr ~layer:Amoeba_trace.Sink.Cache ~name:"cache.client_evict"
        [ ("bytes", Amoeba_trace.Sink.I (Bytes.length e.data)) ]);
    true

let insert t cap data =
  let len = Bytes.length data in
  if len > t.capacity then Amoeba_sim.Stats.incr t.stats "oversize_rejects"
  else begin
    remove t cap;
    let stuck = ref false in
    while t.used + len > t.capacity && not !stuck do
      if not (evict_one t) then stuck := true
    done;
    if t.used + len <= t.capacity then begin
      Hashtbl.replace t.table (Cap.to_string cap) { data; age = next_age t };
      t.used <- t.used + len;
      Amoeba_sim.Stats.incr t.stats "insertions"
    end
  end

let clear t =
  Hashtbl.reset t.table;
  t.used <- 0

let bytes_evicted t = !(t.evicted_bytes)

let register_metrics t ~prefix reg =
  let module M = Amoeba_metrics.Metrics in
  M.gauge reg (prefix ^ ".used_bytes") (fun () -> used_bytes t);
  M.gauge reg (prefix ^ ".capacity_bytes") (fun () -> capacity t);
  M.gauge reg (prefix ^ ".resident_files") (fun () -> resident_files t);
  M.stats_source reg ~prefix t.stats
