(** The block-based baseline file server (SUN NFS stand-in).

    Everything the Bullet paper's comparison measures is here: files are
    scattered 8 KB blocks found through direct/indirect pointers, the
    server keeps a 3 MB write-through buffer cache, data travels one block
    per RPC, and every WRITE is synchronous — data block, inode and (when
    touched) indirect and bitmap blocks are each forced to the single data
    disk before the reply, which is why NFS-era write bandwidth was tens
    of KB/s.

    Handles are NFS-style: inode number + generation; a remove bumps the
    generation so stale handles are detected. *)

type t

type fhandle = { ino : int; gen : int }

type attr = { size : int; blocks : int; gen : int }

type config = {
  immediate_files : bool;
      (** store files that fit in the inode's spare bytes inline — the
          "immediate files" optimisation of the paper's reference [1].
          Off by default: SunOS 3.5 did not have it (it is this research
          group's own earlier idea, benchmarked as ablation ABL3). *)
}

val default_config : config
(** SunOS 3.5: no immediate files. *)

val format : Amoeba_disk.Block_device.t -> max_files:int -> unit

val mount : ?config:config -> Amoeba_disk.Block_device.t -> (t, string) result
(** Reads superblock and bitmap, rebuilds the free list. *)

val port : t -> Amoeba_cap.Port.t

val create : t -> (fhandle, Amoeba_rpc.Status.t) result
(** Allocate an inode and write it through (the creat() RPC). *)

val write : t -> fhandle -> off:int -> bytes -> (unit, Amoeba_rpc.Status.t) result
(** One WRITE RPC: at most crossing a block boundary is handled, every
    touched data/metadata block is written synchronously. *)

val read : t -> fhandle -> off:int -> len:int -> (bytes, Amoeba_rpc.Status.t) result
(** One READ RPC: short reads at end of file; holes read as zeros. *)

val getattr : t -> fhandle -> (attr, Amoeba_rpc.Status.t) result

val remove : t -> fhandle -> (unit, Amoeba_rpc.Status.t) result
(** Free all blocks, bump the generation, zero the inode. *)

val age_cache : t -> unit
(** Drop the buffer cache contents, modelling the "normally loaded"
    production server whose cache has turned over between one test phase
    and the next. Used by the benchmark harness; costs no time. *)

val free_blocks : t -> int

val live_files : t -> int

val stats : t -> Amoeba_sim.Stats.t
