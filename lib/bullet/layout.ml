type inode = { random : int64; index : int; first_block : int; size_bytes : int }

let free_inode = { random = 0L; index = 0; first_block = 0; size_bytes = 0 }

let is_free i = Int64.equal i.random 0L && i.index = 0 && i.first_block = 0 && i.size_bytes = 0

type descriptor = { block_size : int; control_size : int; data_size : int }

let inode_bytes = 16

let inodes_per_block block_size = block_size / inode_bytes

let magic = 0x42554C4C (* "BULL" *)

module Codec = Amoeba_sim.Codec

let encode_inode i buf off =
  Codec.set_u48 buf off i.random;
  Bytes.set_uint16_be buf (off + 6) i.index;
  Codec.set_u32 buf (off + 8) i.first_block;
  Codec.set_u32 buf (off + 12) i.size_bytes

let decode_inode buf off =
  {
    random = Codec.get_u48 buf off;
    index = Bytes.get_uint16_be buf (off + 6);
    first_block = Codec.get_u32 buf (off + 8);
    size_bytes = Codec.get_u32 buf (off + 12);
  }

let encode_descriptor d buf off =
  Codec.set_u32 buf off magic;
  Codec.set_u32 buf (off + 4) d.block_size;
  Codec.set_u32 buf (off + 8) d.control_size;
  Codec.set_u32 buf (off + 12) d.data_size

let decode_descriptor buf off =
  if Codec.get_u32 buf off <> magic then Error "bad magic: not a Bullet image"
  else
    let d =
      {
        block_size = Codec.get_u32 buf (off + 4);
        control_size = Codec.get_u32 buf (off + 8);
        data_size = Codec.get_u32 buf (off + 12);
      }
    in
    if d.block_size <= 0 || d.block_size mod inode_bytes <> 0 then Error "bad block size"
    else if d.control_size <= 0 || d.data_size < 0 then Error "bad section sizes"
    else Ok d

let plan geometry ~max_files =
  let block_size = geometry.Amoeba_disk.Geometry.sector_bytes in
  let per_block = inodes_per_block block_size in
  (* +1 for the descriptor entry. *)
  let control_size = (max_files + 1 + per_block - 1) / per_block in
  let total = geometry.Amoeba_disk.Geometry.sector_count in
  if control_size >= total then invalid_arg "Layout.plan: drive too small for the inode table";
  { block_size; control_size; data_size = total - control_size }

let data_start d = d.control_size

let max_inode d = (d.control_size * inodes_per_block d.block_size) - 1

let inode_block d i =
  if i < 0 || i > max_inode d then invalid_arg (Printf.sprintf "Layout.inode_block: inode %d" i);
  i / inodes_per_block d.block_size
