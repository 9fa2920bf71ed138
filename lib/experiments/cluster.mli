(** CLUSTER — a sharded multi-server Bullet with live rebalancing. *)

type cluster_report = {
  cl_scenario : Common.metrics_scenario;
      (** health over the cluster gauges — healthy -> rebalancing -> healthy *)
  cl_objects : int;
  cl_live_servers : int;
  cl_join_delta : int;  (** dirty shards right after the two joins *)
  cl_join_expected : int;  (** ring-computed delta — must match exactly *)
  cl_untouched : int;  (** keys whose shard the whole episode never disturbed *)
  cl_untouched_moved : int;  (** of those, holders changed — must be 0 *)
  cl_kill_fired : bool;  (** the scripted [shard_kill] fired while rebalancing *)
  cl_polled_reads : int;  (** foreground reads issued during the episode *)
  cl_unreadable : int;  (** reads that failed or returned wrong bytes — must be 0 *)
  cl_fallthroughs : int;
  cl_read_repairs : int;
  cl_migrated : int;  (** objects copied by the rebalancer *)
  cl_under_peak : int;  (** worst under-replication seen after the kill *)
  cl_under_final : int;  (** must be 0 after the heal *)
  cl_spread : int * int;  (** min/max live copies per key at the end — must be (R, R) *)
  cl_checkpoint : string;  (** canonical cluster-directory dump *)
  cl_checkpoint_parses : bool;
  cl_double_run_identical : bool;  (** second full run, byte-identical checkpoint *)
  cl_status_has_gauges : bool;  (** STD_STATUS carries the [cluster.*] surface *)
}

val cluster_experiment : unit -> cluster_report
(** The sharded-cluster tentpole, end to end.  Three servers in two
    regions carry 48 objects at R = 2; two more servers join and the
    membership change must mark {e exactly} the ring-delta shards
    (computed independently off {!Amoeba_cluster.Ring.owners} and
    compared shard for shard).  Two joins can replace {e both} members
    of a group — one join alone always keeps an old owner — so some
    reads are forced to fall through to a live holder and read-repair
    off the measured path.  The rebalancer drains the backlog in
    bounded batches charged on the virtual clock while foreground reads
    keep flowing — every read must return the right bytes throughout —
    and a [shard_kill] scripted through the fault-plan DSL fells one of
    the original servers mid-migration, leaving four servers live.  At the end: zero under-replicated keys, exactly
    R live copies of every object, shards outside the deltas never
    moved, and the health evaluator (watching [cluster.shards_remaining]
    off the same registry STD_STATUS serves) walked exactly
    healthy -> rebalancing -> healthy.  The whole episode runs twice
    and the canonical checkpoints must be byte-identical.  Raises
    [Failure] if any invariant is violated. *)

val run : unit -> string list
(** Print the section and the rebalance bench; returns the contents of
    [BENCH_cluster.json] and [BENCH_cluster_dump.txt]. *)
