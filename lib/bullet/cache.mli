(** The Bullet server's RAM file cache.

    "All of the server's remaining memory will be used for file caching."
    Files are kept {e contiguous} in cache memory. A separate table of
    {e rnodes} administers cached files: each rnode holds the inode index
    of the file and a pointer (offset) into cache memory. The paper gives
    each rnode an age field for LRU replacement; here the rnodes are the
    slots of an {!Amoeba_sim.Lru}, which finds the least-recently-used
    file in O(1) instead of by a scan, and picks the file the smallest
    age would. It is evicted when cache memory or rnodes run out (paper
    §3). Files are contiguous, so the cache can be compacted by sliding
    segments together. *)

type t

val create :
  capacity:int -> max_rnodes:int -> on_evict:(inode:int -> rnode:int -> unit) -> t
(** A cache of [capacity] bytes and at most [max_rnodes] resident files.
    [on_evict] is called when LRU replacement removes a file, so the owner
    can clear the inode's index field. Rnode indices are 1-based — index 0
    in an inode means "not cached". *)

val set_tracer : t -> Amoeba_trace.Trace.ctx option -> unit
(** Install (or with [None] remove) the tracer; traced caches emit a
    [cache.evict] event per LRU eviction.  The cache's internal RAM
    allocator stays untraced — [alloc.*] events mean disk extents. *)

val capacity : t -> int

val used_bytes : t -> int

val resident_files : t -> int

val insert : t -> inode:int -> bytes -> int option
(** [insert t ~inode data] places a copy of [data] contiguously in cache,
    evicting LRU files as needed, and returns the rnode index; [None] if
    [data] is larger than what eviction can ever free (i.e. cache capacity
    or the rnode table is exhausted even when empty). A zero-length file
    occupies an rnode but no memory. *)

val reserve : t -> inode:int -> int -> int option
(** [reserve t ~inode n] is {!insert} without supplying data: it allocates
    [n] bytes of cache space for the file, evicting as {!insert} does, and
    makes it the most recently used. The caller then loads the file's
    bytes into that space with {!fill}; used when loading from disk. *)

val fill : t -> rnode:int -> (bytes -> int -> int -> 'a) -> 'a
(** [fill t ~rnode f] calls [f buf off len] where [buf.(off) .. buf.(off +
    len - 1)] is the file's extent in cache memory, so a disk read can land
    there without an intermediate buffer. [f] may write only inside that
    range and must not call back into the cache. Does not refresh the
    file's LRU position. Raises [Invalid_argument] on a free rnode. *)

val get : t -> rnode:int -> bytes
(** Copy of the cached file, the reply body; makes the file the most
    recently used. Raises [Invalid_argument] on a free rnode. *)

val sub : t -> rnode:int -> pos:int -> len:int -> bytes
(** Copy of a byte range of the cached file; makes the file the most
    recently used. *)

val inode_of : t -> rnode:int -> int
(** Which inode a resident rnode belongs to. *)

val length_of : t -> rnode:int -> int

val remove : t -> rnode:int -> unit
(** Drop a file from cache (delete path); does not call [on_evict]. *)

val compact : t -> int
(** Slide resident segments to the bottom of cache memory, leaving one
    free hole at the top; returns the number of bytes moved. Rnode
    indices are stable across compaction. *)

val touch : t -> rnode:int -> unit
(** Make a file the most recently used without reading it. *)

val stats : t -> Amoeba_sim.Stats.t
(** Counters: [insertions], [evictions], [compactions], [bytes_moved],
    and [bytes_evicted] (present from creation). *)

val bytes_evicted : t -> int
(** Payload bytes dropped by LRU replacement so far: the
    [bytes_evicted] cell of {!stats}, which live scrapes read too;
    mirrors the client cache's counter of the same name. *)

val register_metrics : t -> prefix:string -> Amoeba_metrics.Metrics.t -> unit
(** Register [<prefix>.used_bytes], [<prefix>.capacity_bytes],
    [<prefix>.resident_files] and every {!stats} counter (so
    [<prefix>.bytes_evicted]) under the prefix. *)
