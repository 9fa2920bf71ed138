(** On-disk format of the block-based baseline server.

    This is the design the paper argues against: files split into fixed
    8 KB blocks scattered over the disk, reached through an inode holding
    twelve direct pointers, a single-indirect and a double-indirect block.
    Layout: superblock (fs block 0), inode area, block bitmap, data
    area. *)

val fs_block_bytes : int
(** 8192 — the block size SunOS 3.5 NFS used on the wire and on disk. *)

val pointers_per_block : int
(** 2048 four-byte block pointers per 8 KB block. *)

val direct_pointers : int
(** 12. *)

type inode = {
  used : bool;
  gen : int;  (** generation number, embedded in file handles *)
  size_bytes : int;
  direct : int array;  (** [direct_pointers] entries; 0 = hole *)
  indirect : int;  (** single-indirect block; 0 = none *)
  double : int;  (** double-indirect block; 0 = none *)
  inline : bytes option;
      (** "immediate file" (Mullender & Tanenbaum 1984, the paper's
          reference [1]): contents of a small file stored in the inode
          itself, saving every data-block access. [Some data] implies
          [size_bytes = Bytes.length data <= inline_capacity] and no
          blocks. *)
}

val inline_capacity : int
(** Spare bytes in the 128-byte inode record (60). *)

val free_inode : inode

val inode_bytes : int
(** 128 — 64 inodes per fs block. *)

val inodes_per_block : int

val encode_inode : inode -> bytes -> int -> unit

val decode_inode : bytes -> int -> inode

type superblock = {
  total_blocks : int;  (** fs blocks on the device *)
  inode_blocks : int;  (** fs blocks of inode area *)
  bitmap_blocks : int;  (** fs blocks of allocation bitmap *)
}

val encode_superblock : superblock -> bytes -> int -> unit

val decode_superblock : bytes -> int -> (superblock, string) result

val plan : Amoeba_disk.Geometry.t -> max_files:int -> superblock
(** Size the metadata areas for a drive. *)

val inode_area_start : int
(** First fs block of the inode area (1). *)

val bitmap_start : superblock -> int

val data_start : superblock -> int

val max_inode : superblock -> int

val sectors_per_block : Amoeba_disk.Geometry.t -> int

val max_file_bytes : superblock -> int
(** Largest representable file (direct + single + double indirect). *)
