(** Health states and SLO burn-rate alerts folded from metric snapshots.

    The evaluator is a deterministic state machine over a snapshot
    stream, driven by one ordered table of rules. Each {!observe}
    compares counters against the previous snapshot (rates are
    per-interval deltas, so cumulative counters work unchanged) and
    gauges against thresholds, checks every rule, picks the first in
    table order that has held long enough, and applies hysteresis on the
    way back to healthy so a single quiet interval cannot flap the
    state. The METRICS experiment asserts the exact transition sequence
    under scripted fault plans — there is no tolerance window, the
    sequence is part of the repo's byte-stable surface. *)

type state = {
  rule : string;  (** the rule that holds, or ["healthy"] *)
  value : int option;  (** the rule's reading at entry, if it reports one *)
}

val healthy : state
(** [{ rule = "healthy"; value = None }]. *)

val state_label : state -> string
(** [rule], or [rule:value] when the rule reports a value — for reports
    and dumps. *)

(** {2 The rule table}

    The evaluator reads the standard Bullet metric names. In precedence
    order — planned data movement never masks an incident:
    + [overloaded:<pct>] when [sched.sheds] grows by at least 10% of
      [sched.offered] over one interval (both cumulative counters); the
      value is the percentage shed.
    + [degraded:<backlog>] while the [mirror.sync_state] gauge is
      non-zero (a drive is off or catching up); the value is the
      [mirror.sectors_remaining] gauge.
    + [txn_stuck:<n>] once the [txn.in_doubt] gauge has been non-zero
      for 2 consecutive snapshots — one snapshot of doubt is just a
      decision leg in flight.
    + [lease_churning] when the cumulative [lease.churn] counter grows
      by at least 3 in one interval.
    + [rebalancing:<n>] once the [cluster.shards_remaining] gauge has
      been non-zero for 2 consecutive snapshots, so a membership blip
      the next step drains never shows.

    A gap in a rule's run resets its streak. While the rule is
    unchanged its entry value stands. Back to healthy after 2
    consecutive snapshots on which no rule enters. *)

type t

val create : unit -> t
(** A fresh evaluator, healthy. *)

val state : t -> state

val observe : t -> Metrics.snapshot -> state
(** Fold one snapshot; returns the (possibly new) state. Missing
    metrics read as zero, so one evaluator works against any registry.
    The first snapshot is a baseline: every counter delta on it is 0. *)

val transitions : t -> (int * state) list
(** Every state change as [(at_us, new_state)], oldest first, including
    the initial healthy state at the first observed snapshot. *)

(** {2 SLO alerts} *)

module Slo : sig
  (** Burn-rate alerting: an objective is violated or met per snapshot;
      the burn rate is the percentage of violating snapshots over a
      sliding window, and an alert fires/clears with distinct enter and
      exit thresholds (hysteresis). *)

  type objective =
    | P99_below of { metric : string; limit : int }
        (** the histogram's p99 must stay under [limit] *)
    | Delta_at_least of { metric : string; floor : int }
        (** the counter must advance by at least [floor] per interval —
            a goodput floor.  The first observed snapshot is a baseline
            and never counts as a violation. *)

  type alert = {
    al_name : string;
    objective : objective;
    window : int;  (** snapshots considered *)
    enter_pct : int;  (** fire at this burn rate *)
    exit_pct : int;  (** clear at or under this burn rate *)
  }

  type t

  val create : alert list -> t
  (** Raises [Invalid_argument] on duplicate alert names, a non-positive
      window, or [exit_pct >= enter_pct]. *)

  val observe : t -> Metrics.snapshot -> unit

  val firing : t -> string list
  (** Names of currently-firing alerts, sorted. *)

  val transitions : t -> (int * string * bool) list
  (** Every fire ([true]) / clear ([false]) edge, oldest first. *)
end
