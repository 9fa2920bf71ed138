(** Deterministic multi-station concurrent-server runtime with
    admission control.

    The paper's Bullet server is a multithreaded Amoeba service: one
    request's disk transfer overlaps another request's CPU and wire
    time.  This module models that concurrency as a closed queueing
    network of {e stations} — CPU, one per mirrored drive arm, the
    Ethernet — each a FIFO (or round-robin, approximating the processor
    sharing a threaded CPU gives) or a pure delay.  A request is a
    {e profile}: the ordered [(station, µs)] segments measured from the
    real server by trace attribution, so concurrency results stay pinned
    to implementation costs rather than free parameters.

    N closed-loop clients cycle think → request → response.  An
    admission layer in front of the stations bounds concurrent requests
    and applies an overload policy; combined with the client-side
    retry/backoff from {!Amoeba_fault.Backoff} it reproduces retry-storm
    metastability ([Block] + retries) and its fixes ([Shed],
    [Deadline]).

    Everything runs on an integer-µs virtual clock driven by
    {!Amoeba_sim.Event_queue}; two runs of the same configuration are
    byte-identical, including the emitted trace spans. *)

type discipline =
  | Fifo  (** serve one job to completion at a time *)
  | Round_robin of int
      (** processor sharing, approximated deterministically by
          round-robin slices of the given quantum (µs, positive) *)
  | Delay
      (** infinite-server station: jobs elapse without queueing (the
          under-utilised Ethernet, client-side wire time) *)

type station = { st_name : string; st_layer : Amoeba_trace.Sink.layer; st_discipline : discipline }

val station : ?layer:Amoeba_trace.Sink.layer -> string -> discipline -> station
(** [layer] defaults to [Server]; it tags this station's serve spans so
    sched traces attribute through the existing toolchain. *)

type profile = {
  pr_name : string;  (** operation class, e.g. ["read4k"] *)
  pr_segments : (int * int) list;
      (** ordered [(station index, duration µs)] demands; client [c]'s
          k-th request (1-based) runs profile [(c + k - 1) mod n], so
          every client cycles through the whole mix *)
}

type policy =
  | Block  (** queue every arrival until admitted, however long it waits *)
  | Shed  (** reject arrivals outright while the server is full *)
  | Deadline of int
      (** queue arrivals but drop any that waited longer than this (µs)
          at dispatch time *)

type overload = {
  accept_limit : int;  (** max concurrently admitted requests; [<= 0] = unbounded *)
  policy : policy;
  retry : Amoeba_fault.Backoff.policy option;
      (** client behaviour on rejection or timeout; [timeout_us] must be
          positive when present (the client's patience per attempt) *)
}

val no_overload : overload
(** Unbounded admission, no client timeouts — pure queueing. *)

type config = {
  stations : station list;
  profiles : profile list;
  clients : int;
  think_us : int;
  requests_per_client : int;  (** requests each client resolves (ok or failed) *)
  overload : overload;
}

type station_report = {
  sr_name : string;
  busy_us : int;  (** total service time charged; for [Delay] stations this
                      is occupancy and may exceed the simulated span *)
  utilisation : float;  (** [busy_us / simulated_us] *)
  max_queue : int;  (** high-water mark of jobs waiting (excluding in service) *)
}

type report = {
  simulated_us : int;
  offered : int;  (** attempts submitted, retries included *)
  completed : int;  (** requests whose reply reached a still-waiting client *)
  failed : int;  (** requests that exhausted their retry budget *)
  shed_count : int;
  deadline_misses : int;
  abandoned : int;  (** attempts the client gave up on (timeout) *)
  retried : int;
  late : int;  (** completions after the client had stopped waiting — work
                   the server wasted *)
  max_accept_queue : int;
  throughput_per_sec : float;  (** goodput: [completed] over the span *)
  mean_response_ms : float;  (** successful requests, first submit to reply *)
  p50_response_ms : float;
  p95_response_ms : float;
  p99_response_ms : float;
  station_reports : station_report list;
}

val run :
  ?sink:Amoeba_trace.Sink.t ->
  ?metrics:Amoeba_metrics.Metrics.t ->
  ?observer:(int -> unit) ->
  config ->
  report
(** Deterministic discrete-event run.  With [metrics], the run's tallies
    are registered as live instruments — [sched.offered], [sched.sheds],
    [sched.deadline_misses], [sched.completed], [sched.failed],
    [sched.abandoned], [sched.retried], [sched.late] counters, a
    [sched.response_us] histogram, and [sched.accept_queue] /
    [sched.admitted] gauges — so a scrape taken mid-run reads the same
    cells the final report is built from.  [observer] is called with the
    virtual time after every handled event: the hook a metrics scraper
    (or any other sampler) polls from.  With [sink], every attempt emits
    a [sched.attempt] root span (trace id = request serial) with
    [sched.accept] / [sched.wait.<station>] / [sched.serve.<station>]
    children and zero-length [sched.shed] / [sched.deadline_miss] /
    [sched.abandon] markers, all on the virtual clock.  Clients start
    thinking at time 0 with the closed loop's historical per-client skew
    of [(c mod 7)] µs.  Raises [Invalid_argument] on a malformed
    configuration. *)

(** {2 Analytics}

    All means are uniform over the profile list, matching the round-robin
    client-to-profile assignment. *)

val serial_response_us : config -> float
(** Mean zero-contention response time over the profile mix. *)

val bottleneck_demand_us : config -> float
(** Largest mean per-request demand over the queueing (non-[Delay])
    stations — the reciprocal of the concurrent-capacity limit. *)

val saturation_clients : config -> float
(** The analytic knee [(think + serial response) / bottleneck demand]:
    the client population beyond which the bottleneck station saturates.
    Degenerates to the closed loop's [(think + wire + service) / service]
    for a single-FIFO-plus-wire configuration. *)

val serial_throughput_per_sec : config -> float
(** What a one-request-at-a-time server would peak at ([1e6 / serial
    response]) — the baseline concurrent overlap must beat. *)
