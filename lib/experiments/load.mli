(** LOAD — multi-station concurrency and overload control.

    Demand profiles are measured by tracing the real Bullet and NFS
    servers once per operation class and converting the attribution
    sweep into per-station segments (the sums are asserted to match the
    traced time exactly); the scheduler then sweeps client counts over a
    CPU + wire + drive-arm station network, and drives the Bullet
    configuration at twice its measured saturation population under
    [Block]/[Shed]/[Deadline] with retrying clients. *)

type load_profile = {
  lpr_class : string;  (** operation class, e.g. ["read64k"] *)
  lpr_segments : (string * int) list;
      (** scheduler demand: (station name, µs) in request order; sums to
          [lpr_traced_us] exactly *)
  lpr_traced_us : int;  (** attributed end-to-end time of the traced op *)
}

type load_point = {
  lp_clients : int;
  lp_throughput : float;
  lp_mean_ms : float;
  lp_p50_ms : float;
  lp_p95_ms : float;
  lp_p99_ms : float;
  lp_util : (string * float) list;  (** per-station utilisation *)
}

type overload_point = {
  ov_policy : string;  (** ["block"], ["shed"] or ["deadline"] *)
  ov_goodput : float;  (** completions that reached a waiting client, per second *)
  ov_p99_ms : float;
  ov_offered : int;
  ov_completed : int;
  ov_failed : int;
  ov_shed : int;
  ov_deadline_misses : int;
  ov_abandoned : int;
  ov_retried : int;
  ov_late : int;  (** completions the server wasted on departed clients *)
}

type server_load = {
  sl_name : string;
  sl_profiles : load_profile list;
  sl_knee : float;  (** analytic saturation population *)
  sl_serial_cap_per_sec : float;  (** one-request-at-a-time throughput bound *)
  sl_knee_throughput : float;  (** measured at [ceil sl_knee] clients *)
  sl_points : load_point list;
}

type load_report = {
  lr_bullet : server_load;
  lr_nfs : server_load;
  lr_overload_clients : int;
      (** 2x the measured saturation population (smallest swept client
          count within 5% of peak) *)
  lr_peak_goodput : float;  (** best throughput over the plain sweep *)
  lr_overload : overload_point list;
}

val load_experiment :
  ?client_counts:int list -> ?think_ms:int -> ?requests_per_client:int -> unit -> load_report
(** Raises [Failure] if any acceptance invariant is violated: knee
    throughput must beat the serial bound, shedding must hold goodput
    within 10% of peak, and blocking must collapse below it. *)

val load_sched_trace : unit -> Amoeba_trace.Sink.t * Amoeba_sched.Sched.report
(** A small overloaded deterministic run with [sched.*] spans collected
    in the returned sink — the trace [bullet_trace --sched] renders. *)

(** {1 Shared with the LEASE section} *)

val load_profile_of_spans :
  cls:string -> disk:[ `Arm of int | `Alternate ] -> Amoeba_trace.Sink.span list ->
  Amoeba_sched.Sched.profile * load_profile
(** One traced operation as a scheduler profile; [disk] picks the drive
    arm its disk time queues on. *)

val bullet_load_profiles :
  unit -> (Amoeba_sched.Sched.profile * load_profile) * (Amoeba_sched.Sched.profile * load_profile)
          * (Amoeba_sched.Sched.profile * load_profile)
(** The traced hot-read, cold-read and create classes of the Bullet server. *)

val bullet_mix : Amoeba_sched.Sched.profile * Amoeba_sched.Sched.profile * Amoeba_sched.Sched.profile -> Amoeba_sched.Sched.profile list
(** The Bullet client mix, cold reads spread over both arms. *)

val load_config :
  arms:int -> profiles:Amoeba_sched.Sched.profile list -> clients:int -> think_us:int ->
  requests_per_client:int -> overload:Amoeba_sched.Sched.overload -> Amoeba_sched.Sched.config

val knee_point : Amoeba_sched.Sched.config -> float * float
(** The analytic saturation population and the throughput measured at
    [ceil] of it. *)

val profile_json : load_profile -> string
val print_profile : string -> load_profile -> unit

val run : unit -> string list
(** Print the section; returns the contents of [BENCH_load.json]. *)
