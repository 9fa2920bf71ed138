(** TRACE — BSD-style trace replay, Bullet vs NFS end to end. *)

type trace_report = {
  ops : int;
  bullet_total_us : int;
  nfs_total_us : int;
  speedup : float;
  bullet_p50_ms : float;  (** median per-operation latency *)
  bullet_p99_ms : float;
  nfs_p50_ms : float;
  nfs_p99_ms : float;
}

val trace_replay : ?ops:int -> ?mix:Workload.Trace.mix -> unit -> trace_report
(** Replay the same BSD-style trace (1984 size distribution, 75 %
    whole-file reads by default) against both servers end to end. *)

val mix_sweep : ?ops:int -> unit -> (float * float) list
(** [(update_fraction, bullet_speedup)] as the workload shifts from the
    read-dominated BSD mix toward small in-place updates — the regime
    where immutability pays a whole-file copy per update and the
    baseline merely rewrites one block. Honest about where the design
    loses: the speedup falls toward (and can cross) 1 as updates
    dominate, which is exactly why §2 concedes logs and databases to
    other mechanisms. *)

val run : unit -> string list
(** Print the section; it writes no files. *)
