(** The baseline server's block buffer cache.

    An LRU cache of fixed-size fs blocks, like the SunOS buffer cache the
    paper's NFS server ran with (3 MB). Reads of cached blocks cost no
    disk time; writes go through to disk synchronously ("The SUN NFS file
    server uses a write-through cache"). *)

type t

val create : capacity_bytes:int -> device:Amoeba_disk.Block_device.t -> t
(** Capacity is rounded down to whole fs blocks (at least one). *)

val read : t -> int -> bytes
(** [read t bno] returns fs block [bno], from cache or disk. The returned
    buffer is a copy. *)

val write_through : t -> int -> bytes -> unit
(** Install the block in cache, replacing a cached copy in place, and
    write it to disk synchronously. The data must be exactly one fs block. *)

val invalidate : t -> int -> unit
(** Drop a block from cache (file removal). *)

val flush_matching : t -> (int -> bool) -> unit
(** Drop every cached block whose number satisfies the predicate. *)

val stats : t -> Amoeba_sim.Stats.t
(** Counters: [hits], [misses], [writes], [evictions]. *)
