(** SWEEP1-4 — read bandwidth vs file size, LRU hit rate vs cache size,
    CREATE delay over P-FACTOR x file size, and boot time vs inode-table
    size. *)

type cache_sweep_point = {
  cache_mb : int;
  hit_rate : float;
  mean_read_ms : float;
}

val cache_size_sweep : ?working_set_mb:int -> ?cache_mbs:int list -> unit -> cache_sweep_point list
(** Scan a fixed working set (64 KB files, three passes, LRU) under
    different server cache sizes; the knee sits where the cache stops
    covering the working set — the sizing argument behind "all of the
    server's remaining memory will be used for file caching". *)

val run : unit -> string list
(** Print the section; it writes no files. *)
