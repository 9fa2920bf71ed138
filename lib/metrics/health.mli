(** Health states and SLO burn-rate alerts folded from metric snapshots.

    The evaluator is a deterministic state machine over a snapshot
    stream: each {!observe} compares counters against the previous
    snapshot (rates are per-interval deltas, so cumulative counters work
    unchanged) and gauges against thresholds, picks the worst matching
    condition, and applies hysteresis on the way back to [Healthy] so a
    single quiet interval cannot flap the state.  The METRICS experiment
    asserts the exact transition sequence under scripted fault plans —
    there is no tolerance window, the sequence is part of the repo's
    byte-stable surface. *)

type state =
  | Healthy
  | Degraded of { resync_backlog : int }
      (** a mirror drive is offline or resyncing; the payload is the
          dirty-sector backlog at entry *)
  | Overloaded of { shed_rate : int }
      (** admission control is rejecting work; payload is the percentage
          of offered attempts shed in the entry interval *)
  | Lease_churning
      (** lease grants/renewals/expiries are spiking — clients are
          re-establishing state faster than steady reads explain *)
  | Txn_stuck of { in_doubt : int }
      (** in-doubt 2PC transactions are not draining — a coordinator
          died mid-decision and has not recovered; payload is the
          in-doubt gauge at entry *)
  | Rebalancing of { shards_remaining : int }
      (** the cluster is migrating shards after a membership change;
          payload is the dirty-shard backlog at entry. Planned data
          movement, so every incident state outranks it. *)

val state_label : state -> string
(** ["healthy"], ["degraded:<backlog>"], ["overloaded:<pct>"],
    ["lease_churning"], ["txn_stuck:<n>"], ["rebalancing:<n>"] — for
    reports and dumps. *)

val same_kind : state -> state -> bool
(** Constructor equality, ignoring payloads. *)

(** {2 Wiring and thresholds}

    The evaluator reads the standard Bullet metric names, with fixed
    thresholds:
    - [Degraded] while the [mirror.sync_state] gauge is non-zero (a
      drive is off or catching up); the payload is the
      [mirror.sectors_remaining] gauge.
    - [Overloaded] when [sched.sheds] grows by at least 10% of
      [sched.offered] over one interval (both cumulative counters).
    - [Lease_churning] when the cumulative [lease.churn] counter grows
      by at least 3 in one interval.
    - [Txn_stuck] once the [txn.in_doubt] gauge has been non-zero for 2
      consecutive snapshots — one snapshot of doubt is just a decision
      leg in flight.
    - [Rebalancing] once the [cluster.shards_remaining] gauge has been
      non-zero for 2 consecutive snapshots — entry hysteresis, so a
      membership blip the next step drains never shows.
    - Back to [Healthy] after 2 consecutive clean snapshots. *)

type t

val create : unit -> t
(** A fresh evaluator in [Healthy]. *)

val state : t -> state

val observe : t -> Metrics.snapshot -> state
(** Fold one snapshot; returns the (possibly new) state.  Missing
    metrics read as zero, so one evaluator works against any registry.
    Precedence when several conditions hold: [Overloaded] over
    [Degraded] over [Txn_stuck] over [Lease_churning] over
    [Rebalancing] — planned data movement never masks an incident. *)

val transitions : t -> (int * state) list
(** Every state change as [(at_us, new_state)], oldest first, including
    the initial [Healthy] at the first observed snapshot. *)

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

  val burn_rate : t -> string -> int
  (** Current burn percentage for the named alert (0 if unknown). *)

  val transitions : t -> (int * string * bool) list
  (** Every fire ([true]) / clear ([false]) edge, oldest first. *)
end
