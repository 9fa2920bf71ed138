module Lru = Amoeba_sim.Lru

type t = {
  device : Amoeba_disk.Block_device.t;
  capacity : int; (* blocks *)
  slots : (int, int) Hashtbl.t; (* block number -> its slot in [blocks] *)
  blocks : (int * bytes) Lru.t;
  stats : Amoeba_sim.Stats.t;
  sectors_per_block : int;
}

let create ~capacity_bytes ~device =
  let capacity = max 1 (capacity_bytes / Ufs_layout.fs_block_bytes) in
  {
    device;
    capacity;
    slots = Hashtbl.create 512;
    blocks = Lru.create capacity;
    stats = Amoeba_sim.Stats.create "buffer_cache";
    sectors_per_block = Ufs_layout.sectors_per_block (Amoeba_disk.Block_device.geometry device);
  }

let drop t slot =
  Hashtbl.remove t.slots (fst (Lru.get t.blocks slot));
  Lru.remove t.blocks slot

let invalidate t bno = Option.iter (drop t) (Hashtbl.find_opt t.slots bno)

(* A resident [bno] is replaced in place, so only a new block can evict. *)
let install t bno data =
  invalidate t bno;
  if Lru.length t.blocks >= t.capacity then begin
    drop t (Lru.oldest t.blocks);
    Amoeba_sim.Stats.incr t.stats "evictions"
  end;
  Hashtbl.replace t.slots bno (Lru.add t.blocks (bno, data))

let read t bno =
  match Hashtbl.find_opt t.slots bno with
  | Some slot ->
    Lru.touch t.blocks slot;
    Amoeba_sim.Stats.incr t.stats "hits";
    Bytes.copy (snd (Lru.get t.blocks slot))
  | None ->
    Amoeba_sim.Stats.incr t.stats "misses";
    let data =
      Amoeba_disk.Block_device.read t.device ~sector:(bno * t.sectors_per_block)
        ~count:t.sectors_per_block
    in
    install t bno (Bytes.copy data);
    data

let write_through t bno data =
  if Bytes.length data <> Ufs_layout.fs_block_bytes then
    invalid_arg "Buffer_cache.write_through: data must be one fs block";
  install t bno (Bytes.copy data);
  Amoeba_sim.Stats.incr t.stats "writes";
  Amoeba_disk.Block_device.write t.device ~sector:(bno * t.sectors_per_block) data

let flush_matching t predicate =
  List.iter (invalidate t) (List.filter predicate (Amoeba_sim.Tbl.sorted_keys Int.compare t.slots))

let stats t = t.stats
