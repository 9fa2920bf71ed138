(** METRICS — live health over scripted fault plans.

    Three scripted fault plans run against live registries with a
    virtual-clock scraper and the {!Amoeba_metrics.Health} evaluator
    folding every snapshot:

    - {b drive-rejoin}: a mirror drive fails at 2 s and rejoins fully
      dirty at 4 s under a read-plus-create workload.  The transition
      sequence must be exactly healthy -> degraded (positive backlog) ->
      healthy, and the p99 read-latency SLO must burn through its window
      while the resync drains.
    - {b overload-storm}: a twice-saturated shedding scheduler.  The
      interval shed rate must flip the state to overloaded, and the
      response-p99, goodput-floor and shed-budget alerts must all fire.
    - {b lease-skew}: the lease clock jumps forward then steps back
      under the plan DSL.  The churn counter must read lease_churning —
      never degraded or overloaded — and the warm-hit SLO stays quiet.

    Also exercises the STD_STATUS surface off the drive-rejoin server:
    the binary snapshot must decode and re-encode byte-identically. *)

type metrics_report = {
  mx_scenarios : Common.metrics_scenario list;
  mx_status_metrics : int;  (** samples in the STD_STATUS snapshot *)
  mx_status_bytes : int;  (** its binary encoding *)
  mx_roundtrip_ok : bool;  (** encode -> decode -> encode is byte-identical *)
}

val metrics_experiment : unit -> metrics_report
(** Raises [Failure] if any transition sequence or alert edge deviates.
    [bullet_top --replay] renders the result. *)

val metrics_overload_storm : unit -> Common.metrics_scenario * Amoeba_sched.Sched.report

val run : unit -> string list
(** Print the section; returns the contents of [BENCH_metrics.json] and
    [BENCH_metrics_dump.txt], every scraped snapshot in text exposition
    form. *)
