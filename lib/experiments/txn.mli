(** TXN — atomic multi-object operations, every 2PC edge fault-planned. *)

type txn_fault = {
  tf_plan : string;
  tf_scenario : string;  (** which of the three scenarios the plan was driven against *)
  tf_expected : string;  (** the outcome the plan must resolve to *)
  tf_outcome : string;  (** the post-recovery outcome: ["committed"] or ["aborted"] *)
  tf_crashed : bool;  (** a crash directive actually fired mid-protocol *)
  tf_in_doubt_before : int;  (** WAL in-doubt count when recovery starts *)
  tf_resolved_commits : int;
  tf_resolved_aborts : int;
  tf_atomic : bool;  (** visible state matches the outcome everywhere — never mixed *)
  tf_orphans : int;  (** fsck orphans on the file server after recovery — must be 0 *)
  tf_pending : int;  (** prepared residue anywhere after recovery — must be 0 *)
  tf_dumps_equal : bool;  (** both pairs byte-identical across replicas *)
  tf_stable : bool;  (** a second recovery pass finds nothing to do *)
}

type txn_report = {
  tx_quiet : (string * string) list;  (** scenario name, outcome of the unfaulted run *)
  tx_quiet_wal : int;  (** WAL records after the three quiet commits *)
  tx_quiet_clean : bool;  (** quiet runs atomic, residue-free, orphan-free *)
  tx_faults : txn_fault list;
  tx_health : (int * string) list;  (** health transitions of the stuck-coordinator run *)
  tx_stuck_label : string;  (** the state while the coordinator stayed dead *)
  tx_status_has_gauges : bool;  (** STD_STATUS carries the [txn.*] surface *)
}

val txn_experiment : unit -> txn_report
(** The atomic-commitment tentpole, end to end.  Three multi-object
    scenarios — create-and-bind, a rename spanning two directory pairs,
    replace-with-delete — run through the {!Amoeba_txn.Txn} coordinator
    against a Bullet file server and two replicated directory pairs.
    After the quiet baseline (all three commit, no residue), every
    protocol edge gets a named fault plan scripted through the plan DSL:
    the five [txn_crash] points (coordinator before/after prepare, after
    the commit record, between decision legs; participant primary after
    prepare) and [txn_drop]/[txn_dup] on each of the four message legs.
    Each faulted run is resolved by {!Amoeba_txn.Txn.recover} and must
    end committed-everywhere or aborted-everywhere — exactly as the plan
    pins it — with zero fsck orphans, zero prepared residue, both pairs'
    replica dumps byte-identical, and a second recovery pass finding
    nothing.  A separate stuck-coordinator run asserts the metrics
    surface: the [txn.in_doubt] gauge flips the health state to
    [txn_stuck] after two doubtful scrapes and hysteresis walks it back
    to healthy once recovery drains the WAL.  Raises [Failure] if any
    invariant is violated. *)

val txn_dump : txn_report -> string
(** Deterministic text dump — one line per quiet run, fault plan and
    health transition. *)

val run : unit -> string list
(** Print the section; returns the contents of [BENCH_txn.json] and
    [BENCH_txn_dump.txt]. *)
