(** FRAG — external fragmentation and the 3 a.m. compaction. *)

type frag_report = {
  files_written : int;
  disk_utilisation : float;  (** fraction of the data area holding files *)
  fragmentation_before : float;
  largest_hole_before : int;
  compaction_moved_blocks : int;
  compaction_us : int;
  fragmentation_after : float;
}

val fragmentation_experiment : ?churn_ops:int -> ?seed:int64 -> unit -> frag_report
(** Drive a create/delete churn against a small disk until allocation
    pressure shows, then run the 3 a.m. compaction (paper §3's trade-off:
    an 800 MB disk storing ~500 MB of files). *)

val run : unit -> string list
(** Print the section; it writes no files. *)
