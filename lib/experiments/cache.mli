(** CACHE — RAM cache behaviour: hit, miss, cold server and LRU hit rates. *)

type cache_report = {
  hit_us : int;
  miss_us : int;
  cold_us : int;  (** read straight after restart (inode table in RAM, file on disk) *)
  hit_rate_working_set : float;  (** LRU hit rate when the working set fits *)
  hit_rate_thrash : float;  (** and when it exceeds the cache *)
}

val cache_experiment : unit -> cache_report

val run : unit -> string list
(** Print the section; it writes no files. *)
