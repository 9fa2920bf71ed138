let fs_block_bytes = 8192

let pointers_per_block = fs_block_bytes / 4

let direct_pointers = 12

type inode = {
  used : bool;
  gen : int;
  size_bytes : int;
  direct : int array;
  indirect : int;
  double : int;
  inline : bytes option;
}

let free_inode =
  {
    used = false;
    gen = 0;
    size_bytes = 0;
    direct = Array.make direct_pointers 0;
    indirect = 0;
    double = 0;
    inline = None;
  }

let inode_bytes = 128

(* fixed fields end at 68: used 4 + gen 4 + size 4 + direct 48 +
   indirect 4 + double 4 *)
let inline_offset = 68

let inline_capacity = inode_bytes - inline_offset

let inodes_per_block = fs_block_bytes / inode_bytes

module Codec = Amoeba_sim.Codec

let encode_inode i buf off =
  let used_tag = if not i.used then 0 else match i.inline with None -> 1 | Some _ -> 2 in
  Codec.set_u32 buf off used_tag;
  Codec.set_u32 buf (off + 4) i.gen;
  Codec.set_u32 buf (off + 8) i.size_bytes;
  for d = 0 to direct_pointers - 1 do
    Codec.set_u32 buf (off + 12 + (4 * d)) i.direct.(d)
  done;
  Codec.set_u32 buf (off + 12 + (4 * direct_pointers)) i.indirect;
  Codec.set_u32 buf (off + 16 + (4 * direct_pointers)) i.double;
  match i.inline with
  | None -> ()
  | Some data ->
    if Bytes.length data > inline_capacity then invalid_arg "encode_inode: inline too large";
    Bytes.blit data 0 buf (off + inline_offset) (Bytes.length data)

let decode_inode buf off =
  let used_tag = Codec.get_u32 buf off in
  let size_bytes = Codec.get_u32 buf (off + 8) in
  {
    used = used_tag <> 0;
    gen = Codec.get_u32 buf (off + 4);
    size_bytes;
    direct = Array.init direct_pointers (fun d -> Codec.get_u32 buf (off + 12 + (4 * d)));
    indirect = Codec.get_u32 buf (off + 12 + (4 * direct_pointers));
    double = Codec.get_u32 buf (off + 16 + (4 * direct_pointers));
    inline =
      (if used_tag = 2 && size_bytes <= inline_capacity then
         Some (Bytes.sub buf (off + inline_offset) size_bytes)
       else None);
  }

type superblock = { total_blocks : int; inode_blocks : int; bitmap_blocks : int }

let magic = 0x55465321 (* "UFS!" *)

let encode_superblock s buf off =
  Codec.set_u32 buf off magic;
  Codec.set_u32 buf (off + 4) s.total_blocks;
  Codec.set_u32 buf (off + 8) s.inode_blocks;
  Codec.set_u32 buf (off + 12) s.bitmap_blocks

let decode_superblock buf off =
  if Codec.get_u32 buf off <> magic then Error "bad magic: not a UFS-baseline image"
  else
    let s =
      {
        total_blocks = Codec.get_u32 buf (off + 4);
        inode_blocks = Codec.get_u32 buf (off + 8);
        bitmap_blocks = Codec.get_u32 buf (off + 12);
      }
    in
    if s.total_blocks <= 0 || s.inode_blocks <= 0 || s.bitmap_blocks <= 0 then
      Error "bad superblock sizes"
    else Ok s

let sectors_per_block geometry = fs_block_bytes / geometry.Amoeba_disk.Geometry.sector_bytes

let inode_area_start = 1

let bitmap_start _s = inode_area_start + _s.inode_blocks

let data_start s = inode_area_start + s.inode_blocks + s.bitmap_blocks

let max_inode s = (s.inode_blocks * inodes_per_block) - 1

let plan geometry ~max_files =
  let total_bytes = Amoeba_disk.Geometry.capacity_bytes geometry in
  let total_blocks = total_bytes / fs_block_bytes in
  let inode_blocks = (max_files + 1 + inodes_per_block - 1) / inodes_per_block in
  let bitmap_blocks = (total_blocks + (fs_block_bytes * 8) - 1) / (fs_block_bytes * 8) in
  let s = { total_blocks; inode_blocks; bitmap_blocks } in
  if data_start s >= total_blocks then invalid_arg "Ufs_layout.plan: drive too small";
  s

let max_file_bytes _s =
  (direct_pointers + pointers_per_block + (pointers_per_block * pointers_per_block))
  * fs_block_bytes
