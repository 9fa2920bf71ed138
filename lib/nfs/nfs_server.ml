module Status = Amoeba_rpc.Status
module L = Ufs_layout

type fhandle = { ino : int; gen : int }

type attr = { size : int; blocks : int; gen : int }

type config = { immediate_files : bool }

let default_config = { immediate_files = false }

(* Buffer cache size: 3 MB, as on the paper's server. *)
let cache_bytes = 3 * 1024 * 1024

(* Per-RPC server CPU (SunOS path): 3 ms. *)
let cpu_request_us = 3_000

(* Extra CPU per block-map traversal level: 400 µs. *)
let indirect_cpu_us = 400

type t = {
  config : config;
  device : Amoeba_disk.Block_device.t;
  clock : Amoeba_sim.Clock.t;
  cache : Buffer_cache.t;
  sb : L.superblock;
  bitmap : Bytes.t; (* RAM copy; one bit per fs block *)
  mutable free_blocks : int;
  mutable free_inos : int list;
  mutable rotor : int;
  prng : Amoeba_sim.Prng.t;
  service_port : Amoeba_cap.Port.t;
  stats : Amoeba_sim.Stats.t;
}

(* Consecutive allocations land this many blocks apart, modelling the
   scattered placement of an aged, shared production disk: consecutive
   file blocks are never physically adjacent, so every block access pays
   a seek — the behaviour the paper contrasts with contiguous files. *)
let scatter_stride = 17

let format device ~max_files =
  let geometry = Amoeba_disk.Block_device.geometry device in
  let sb = L.plan geometry ~max_files in
  let spb = L.sectors_per_block geometry in
  let block = Bytes.make L.fs_block_bytes '\000' in
  L.encode_superblock sb block 0;
  Amoeba_disk.Block_device.poke device ~sector:0 block;
  let zero = Bytes.make L.fs_block_bytes '\000' in
  for b = 1 to L.data_start sb - 1 do
    Amoeba_disk.Block_device.poke device ~sector:(b * spb) zero
  done;
  (* Mark the metadata area allocated in the on-disk bitmap. *)
  let bitmap = Bytes.make (sb.L.bitmap_blocks * L.fs_block_bytes) '\000' in
  for b = 0 to L.data_start sb - 1 do
    let byte = b / 8 and bit = b mod 8 in
    Bytes.set bitmap byte (Char.chr (Char.code (Bytes.get bitmap byte) lor (1 lsl bit)))
  done;
  for i = 0 to sb.L.bitmap_blocks - 1 do
    Amoeba_disk.Block_device.poke device
      ~sector:((L.bitmap_start sb + i) * spb)
      (Bytes.sub bitmap (i * L.fs_block_bytes) L.fs_block_bytes)
  done

let mount ?(config = default_config) device =
  let geometry = Amoeba_disk.Block_device.geometry device in
  let spb = L.sectors_per_block geometry in
  let first = Amoeba_disk.Block_device.read device ~sector:0 ~count:spb in
  match L.decode_superblock first 0 with
  | Error e -> Error e
  | Ok sb ->
    (* Sequential reads of bitmap and inode areas to rebuild RAM state. *)
    let bitmap_raw =
      Amoeba_disk.Block_device.read device ~sector:(L.bitmap_start sb * spb)
        ~count:(sb.L.bitmap_blocks * spb)
    in
    let free_blocks = ref 0 in
    for b = L.data_start sb to sb.L.total_blocks - 1 do
      let byte = b / 8 and bit = b mod 8 in
      if Char.code (Bytes.get bitmap_raw byte) land (1 lsl bit) = 0 then incr free_blocks
    done;
    let inode_raw =
      Amoeba_disk.Block_device.read device ~sector:(L.inode_area_start * spb)
        ~count:(sb.L.inode_blocks * spb)
    in
    let free_inos = ref [] in
    for i = L.max_inode sb downto 1 do
      let inode = L.decode_inode inode_raw (i * L.inode_bytes) in
      if not inode.L.used then free_inos := i :: !free_inos
    done;
    Ok
      {
        config;
        device;
        clock = Amoeba_disk.Block_device.clock device;
        cache = Buffer_cache.create ~capacity_bytes:cache_bytes ~device;
        sb;
        bitmap = bitmap_raw;
        free_blocks = !free_blocks;
        free_inos = !free_inos;
        rotor = L.data_start sb;
        prng = Amoeba_sim.Prng.create ~seed:0x4E46535FL (* "NFS_" *);
        service_port = Amoeba_cap.Port.random (Amoeba_sim.Prng.create ~seed:0x6E667370L);
        stats = Amoeba_sim.Stats.create "nfs";
      }

let port t = t.service_port

let clock t = t.clock

let stats t = t.stats

let cache_stats t = Buffer_cache.stats t.cache

let free_blocks t = t.free_blocks

let live_files t = L.max_inode t.sb - List.length t.free_inos

(* Drop cached *data* blocks but keep metadata (superblock, inodes,
   bitmap, indirect blocks live in the data area though — they go too).
   Models a production server whose cache has turned over under normal
   load: hot metadata survives, file data does not. *)
let age_cache t =
  let data_lo = L.data_start t.sb in
  Buffer_cache.flush_matching t.cache (fun bno -> bno >= data_lo)

let charge_cpu t = Amoeba_sim.Clock.advance t.clock cpu_request_us

let charge_indirect t levels =
  Amoeba_sim.Clock.advance t.clock (levels * indirect_cpu_us)

(* ---- bitmap ---- *)

let bit_get t b = Char.code (Bytes.get t.bitmap (b / 8)) land (1 lsl (b mod 8)) <> 0

let bit_write_through t b =
  (* Persist the bitmap block containing bit [b]. *)
  let bitmap_block = b / 8 / L.fs_block_bytes in
  Buffer_cache.write_through t.cache
    (L.bitmap_start t.sb + bitmap_block)
    (Bytes.sub t.bitmap (bitmap_block * L.fs_block_bytes) L.fs_block_bytes)

let bit_set t b v =
  let byte = b / 8 and bit = b mod 8 in
  let old = Char.code (Bytes.get t.bitmap byte) in
  let updated = if v then old lor (1 lsl bit) else old land lnot (1 lsl bit) in
  Bytes.set t.bitmap byte (Char.chr updated)

let alloc_block t =
  if t.free_blocks = 0 then None
  else begin
    let total = t.sb.L.total_blocks in
    let lo = L.data_start t.sb in
    let span = total - lo in
    let rec probe candidate remaining =
      if remaining = 0 then None
      else if not (bit_get t candidate) then Some candidate
      else probe (lo + ((candidate - lo + 1) mod span)) (remaining - 1)
    in
    match probe t.rotor span with
    | None -> None
    | Some b ->
      bit_set t b true;
      bit_write_through t b;
      t.free_blocks <- t.free_blocks - 1;
      t.rotor <- lo + ((b - lo + scatter_stride) mod span);
      Some b
  end

let free_block t b =
  bit_set t b false;
  t.free_blocks <- t.free_blocks + 1

(* ---- inodes ---- *)

let inode_block_of _t ino = L.inode_area_start + (ino / L.inodes_per_block)

let read_inode t ino =
  let block = Buffer_cache.read t.cache (inode_block_of t ino) in
  L.decode_inode block (ino mod L.inodes_per_block * L.inode_bytes)

let write_inode t ino inode =
  let bno = inode_block_of t ino in
  let block = Buffer_cache.read t.cache bno in
  L.encode_inode inode block (ino mod L.inodes_per_block * L.inode_bytes);
  Buffer_cache.write_through t.cache bno block

let verify t fh =
  if fh.ino < 1 || fh.ino > L.max_inode t.sb then Error Status.No_such_object
  else
    let inode = read_inode t fh.ino in
    if inode.L.used && inode.L.gen = fh.gen then Ok inode else Error Status.No_such_object

(* ---- block map ---- *)

let read_ptr block idx = L.get_u32 block (idx * 4)

let write_ptr block idx v = L.set_u32 block (idx * 4) v

(* Map file block [fbn] to a device block. With [alloc], missing blocks
   (including indirect blocks) are allocated and metadata written through
   synchronously; the possibly-updated inode is returned. *)
let bmap t inode fbn ~alloc =
  let ppb = L.pointers_per_block in
  let zero_block () = Bytes.make L.fs_block_bytes '\000' in
  let alloc_or_fail k =
    match alloc_block t with None -> Error Status.No_space | Some b -> k b
  in
  if fbn < L.direct_pointers then
    let current = inode.L.direct.(fbn) in
    if current <> 0 then Ok (current, inode, false)
    else if not alloc then Ok (0, inode, false)
    else
      alloc_or_fail (fun b ->
          let direct = Array.copy inode.L.direct in
          direct.(fbn) <- b;
          Ok (b, { inode with L.direct }, true))
  else if fbn < L.direct_pointers + ppb then begin
    charge_indirect t 1;
    let idx = fbn - L.direct_pointers in
    let with_indirect indirect_bno inode inode_dirty =
      let block = Buffer_cache.read t.cache indirect_bno in
      let current = read_ptr block idx in
      if current <> 0 then Ok (current, inode, inode_dirty)
      else if not alloc then Ok (0, inode, inode_dirty)
      else
        alloc_or_fail (fun b ->
            write_ptr block idx b;
            Buffer_cache.write_through t.cache indirect_bno block;
            Ok (b, inode, inode_dirty))
    in
    if inode.L.indirect <> 0 then with_indirect inode.L.indirect inode false
    else if not alloc then Ok (0, inode, false)
    else
      alloc_or_fail (fun ib ->
          Buffer_cache.write_through t.cache ib (zero_block ());
          with_indirect ib { inode with L.indirect = ib } true)
  end
  else begin
    charge_indirect t 2;
    let idx = fbn - L.direct_pointers - ppb in
    if idx >= ppb * ppb then Error Status.Bad_request
    else
      let outer_idx = idx / ppb and inner_idx = idx mod ppb in
      let with_inner inner_bno inode inode_dirty =
        let block = Buffer_cache.read t.cache inner_bno in
        let current = read_ptr block inner_idx in
        if current <> 0 then Ok (current, inode, inode_dirty)
        else if not alloc then Ok (0, inode, inode_dirty)
        else
          alloc_or_fail (fun b ->
              write_ptr block inner_idx b;
              Buffer_cache.write_through t.cache inner_bno block;
              Ok (b, inode, inode_dirty))
      in
      let with_outer outer_bno inode inode_dirty =
        let block = Buffer_cache.read t.cache outer_bno in
        let inner = read_ptr block outer_idx in
        if inner <> 0 then with_inner inner inode inode_dirty
        else if not alloc then Ok (0, inode, inode_dirty)
        else
          alloc_or_fail (fun ib ->
              Buffer_cache.write_through t.cache ib (zero_block ());
              write_ptr block outer_idx ib;
              Buffer_cache.write_through t.cache outer_bno block;
              with_inner ib inode inode_dirty)
      in
      if inode.L.double <> 0 then with_outer inode.L.double inode false
      else if not alloc then Ok (0, inode, false)
      else
        alloc_or_fail (fun ob ->
            Buffer_cache.write_through t.cache ob (zero_block ());
            with_outer ob { inode with L.double = ob } true)
  end

(* ---- operations ---- *)

let ( let* ) = Result.bind

let create t =
  charge_cpu t;
  match t.free_inos with
  | [] -> Error Status.No_space
  | ino :: rest ->
    t.free_inos <- rest;
    let gen = Amoeba_sim.Prng.int t.prng 0x3FFFFFFF + 1 in
    let inode = { L.free_inode with L.used = true; gen } in
    write_inode t ino inode;
    Amoeba_sim.Stats.incr t.stats "creates";
    Ok { ino; gen }

let getattr t fh =
  charge_cpu t;
  let* inode = verify t fh in
  let blocks = (inode.L.size_bytes + L.fs_block_bytes - 1) / L.fs_block_bytes in
  Ok { size = inode.L.size_bytes; blocks; gen = inode.L.gen }

(* an immediate file spills to blocks when it outgrows the inode *)
let spill_inline t fh inode =
  match inode.L.inline with
  | None -> Ok inode
  | Some data ->
    let spilled = { inode with L.inline = None; size_bytes = 0 } in
    write_inode t fh.ino spilled;
    if Bytes.length data = 0 then Ok { spilled with L.size_bytes = 0 }
    else begin
      let* bno, spilled, _dirty = bmap t spilled 0 ~alloc:true in
      let block = Bytes.make L.fs_block_bytes '\000' in
      Bytes.blit data 0 block 0 (Bytes.length data);
      Buffer_cache.write_through t.cache bno block;
      Ok { spilled with L.size_bytes = Bytes.length data }
    end

let write t fh ~off data =
  charge_cpu t;
  let* inode = verify t fh in
  let len = Bytes.length data in
  if off < 0 || len = 0 then Error Status.Bad_request
  else if off + len > L.max_file_bytes t.sb then Error Status.No_space
  else if
    t.config.immediate_files
    && off + len <= L.inline_capacity
    && (inode.L.inline <> None || inode.L.size_bytes = 0)
  then begin
    (* immediate file: the data lives in the inode; one synchronous
       metadata write covers everything *)
    Amoeba_sim.Stats.incr t.stats "writes";
    Amoeba_sim.Stats.incr t.stats "immediate_writes";
    let current = match inode.L.inline with Some d -> d | None -> Bytes.create 0 in
    let new_size = max (Bytes.length current) (off + len) in
    let contents = Bytes.make new_size '\000' in
    Bytes.blit current 0 contents 0 (Bytes.length current);
    Bytes.blit data 0 contents off len;
    write_inode t fh.ino { inode with L.inline = Some contents; size_bytes = new_size };
    Ok ()
  end
  else begin
    Amoeba_sim.Stats.incr t.stats "writes";
    let* inode = spill_inline t fh inode in
    let rec put inode pos =
      if pos >= len then Ok inode
      else begin
        let fbn = (off + pos) / L.fs_block_bytes in
        let in_block = (off + pos) mod L.fs_block_bytes in
        let chunk = min (len - pos) (L.fs_block_bytes - in_block) in
        let* bno, inode, _dirty = bmap t inode fbn ~alloc:true in
        let block =
          if chunk = L.fs_block_bytes then Bytes.make L.fs_block_bytes '\000'
          else Buffer_cache.read t.cache bno
        in
        Bytes.blit data pos block in_block chunk;
        (* Synchronous data write: the essence of NFS-era write cost. *)
        Buffer_cache.write_through t.cache bno block;
        put inode (pos + chunk)
      end
    in
    let* inode = put inode 0 in
    let new_size = max inode.L.size_bytes (off + len) in
    (* The inode (size, mtime) is forced to disk on every WRITE RPC. *)
    write_inode t fh.ino { inode with L.size_bytes = new_size };
    Ok ()
  end

let read t fh ~off ~len =
  charge_cpu t;
  let* inode = verify t fh in
  if off < 0 || len < 0 then Error Status.Bad_request
  else
    match inode.L.inline with
    | Some contents ->
      (* served straight from the (metadata-hot) inode: no data block *)
      Amoeba_sim.Stats.incr t.stats "reads";
      Amoeba_sim.Stats.incr t.stats "immediate_reads";
      let len = max 0 (min len (Bytes.length contents - off)) in
      Ok (Bytes.sub contents off len)
    | None ->
  begin
    Amoeba_sim.Stats.incr t.stats "reads";
    let len = max 0 (min len (inode.L.size_bytes - off)) in
    let out = Bytes.make len '\000' in
    let rec get pos =
      if pos >= len then Ok ()
      else begin
        let fbn = (off + pos) / L.fs_block_bytes in
        let in_block = (off + pos) mod L.fs_block_bytes in
        let chunk = min (len - pos) (L.fs_block_bytes - in_block) in
        let* bno, _inode, _dirty = bmap t inode fbn ~alloc:false in
        if bno <> 0 then begin
          let block = Buffer_cache.read t.cache bno in
          Bytes.blit block in_block out pos chunk
        end;
        get (pos + chunk)
      end
    in
    let* () = get 0 in
    Ok out
  end

let remove t fh =
  charge_cpu t;
  let* inode = verify t fh in
  (* Free the data blocks, walking the same structure. *)
  let touched_bitmap_blocks = Hashtbl.create 7 in
  let release b =
    if b <> 0 then begin
      free_block t b;
      Buffer_cache.invalidate t.cache b;
      Hashtbl.replace touched_bitmap_blocks (b / 8 / L.fs_block_bytes) ()
    end
  in
  Array.iter release inode.L.direct;
  let release_indirect ib =
    if ib <> 0 then begin
      let block = Buffer_cache.read t.cache ib in
      for i = 0 to L.pointers_per_block - 1 do
        release (read_ptr block i)
      done;
      release ib
    end
  in
  release_indirect inode.L.indirect;
  if inode.L.double <> 0 then begin
    let outer = Buffer_cache.read t.cache inode.L.double in
    for i = 0 to L.pointers_per_block - 1 do
      release_indirect (read_ptr outer i)
    done;
    release inode.L.double
  end;
  (* One synchronous write per touched bitmap block, then the inode. *)
  let flush_bitmap bitmap_block () =
    Buffer_cache.write_through t.cache
      (L.bitmap_start t.sb + bitmap_block)
      (Bytes.sub t.bitmap (bitmap_block * L.fs_block_bytes) L.fs_block_bytes)
  in
  Amoeba_sim.Tbl.sorted_iter Int.compare flush_bitmap touched_bitmap_blocks;
  write_inode t fh.ino L.free_inode;
  t.free_inos <- fh.ino :: t.free_inos;
  Amoeba_sim.Stats.incr t.stats "removes";
  Ok ()
