(* Health + SLO evaluation over snapshot streams. Pure folds — no clock
   reads, no randomness — so the transition lists asserted by the
   METRICS experiment are exactly reproducible. *)

type state =
  | Healthy
  | Degraded of { resync_backlog : int }
  | Overloaded of { shed_rate : int }
  | Lease_churning
  | Txn_stuck of { in_doubt : int }
  | Rebalancing of { shards_remaining : int }

let state_label = function
  | Healthy -> "healthy"
  | Degraded { resync_backlog } -> Printf.sprintf "degraded:%d" resync_backlog
  | Overloaded { shed_rate } -> Printf.sprintf "overloaded:%d" shed_rate
  | Lease_churning -> "lease_churning"
  | Txn_stuck { in_doubt } -> Printf.sprintf "txn_stuck:%d" in_doubt
  | Rebalancing { shards_remaining } -> Printf.sprintf "rebalancing:%d" shards_remaining

let same_kind a b =
  match (a, b) with
  | Healthy, Healthy -> true
  | Degraded _, Degraded _ -> true
  | Overloaded _, Overloaded _ -> true
  | Lease_churning, Lease_churning -> true
  | Txn_stuck _, Txn_stuck _ -> true
  | Rebalancing _, Rebalancing _ -> true
  | (Healthy | Degraded _ | Overloaded _ | Lease_churning | Txn_stuck _ | Rebalancing _), _ ->
    false

(* The thresholds health.mli documents. *)
let shed_rate_pct = 10

let churn_per_interval = 3

let stuck_after = 2

let rebal_after = 2

let exit_after = 2

type t = {
  mutable cur : state;
  mutable clean_streak : int;
  mutable doubt_streak : int;
  mutable rebal_streak : int;
  mutable prev : Metrics.snapshot option;
  mutable transitions_rev : (int * state) list;
}

let create () =
  {
    cur = Healthy;
    clean_streak = 0;
    doubt_streak = 0;
    rebal_streak = 0;
    prev = None;
    transitions_rev = [];
  }

let state t = t.cur

let metric snap key =
  match Metrics.find snap key with None -> 0 | Some v -> Metrics.value_int v

let observe t snap =
  let delta key =
    metric snap key - (match t.prev with None -> 0 | Some p -> metric p key)
  in
  (match t.prev with
  | None -> t.transitions_rev <- [ (snap.Metrics.at_us, t.cur) ]
  | Some _ -> ());
  let shed_d = delta "sched.sheds" in
  let offered_d = delta "sched.offered" in
  let churn_d = delta "lease.churn" in
  let sync = metric snap "mirror.sync_state" in
  let in_doubt = metric snap "txn.in_doubt" in
  let in_rebal = metric snap "cluster.shards_remaining" in
  (* an in-doubt transaction is normal for one scrape (a decision leg in
     flight); one that PERSISTS is a coordinator that died mid-decision *)
  t.doubt_streak <- (if in_doubt > 0 then t.doubt_streak + 1 else 0);
  (* entry hysteresis for rebalancing too: one snapshot of dirty shards
     is a membership blip the very next step may drain — a BACKLOG that
     persists is a migration in progress *)
  t.rebal_streak <- (if in_rebal > 0 then t.rebal_streak + 1 else 0);
  let candidate =
    if shed_d > 0 && offered_d > 0 && shed_d * 100 >= shed_rate_pct * offered_d then
      Overloaded { shed_rate = shed_d * 100 / offered_d }
    else if sync <> 0 then Degraded { resync_backlog = metric snap "mirror.sectors_remaining" }
    else if t.doubt_streak >= stuck_after then Txn_stuck { in_doubt }
    else if churn_d >= churn_per_interval then Lease_churning
    else if t.rebal_streak >= rebal_after then Rebalancing { shards_remaining = in_rebal }
    else Healthy
  in
  let goto s =
    t.cur <- s;
    t.transitions_rev <- (snap.Metrics.at_us, s) :: t.transitions_rev
  in
  (match candidate with
  | Healthy ->
    (match t.cur with
    | Healthy -> ()
    | Degraded _ | Overloaded _ | Lease_churning | Txn_stuck _ | Rebalancing _ ->
      (* hysteresis: one quiet interval is not recovery *)
      t.clean_streak <- t.clean_streak + 1;
      if t.clean_streak >= exit_after then begin
        t.clean_streak <- 0;
        goto Healthy
      end)
  | Degraded _ | Overloaded _ | Lease_churning | Txn_stuck _ | Rebalancing _ ->
    t.clean_streak <- 0;
    (* entering a bad state is immediate; while the kind is unchanged the
       entry payload stands, so the transition list stays a sequence of
       edges rather than a per-snapshot log *)
    if not (same_kind t.cur candidate) then goto candidate);
  t.prev <- Some snap;
  t.cur

let transitions t = List.rev t.transitions_rev

module Slo = struct
  type objective =
    | P99_below of { metric : string; limit : int }
    | Delta_at_least of { metric : string; floor : int }

  type alert = {
    al_name : string;
    objective : objective;
    window : int;
    enter_pct : int;
    exit_pct : int;
  }

  type alert_state = {
    alert : alert;
    mutable violations : bool list;  (* newest first, at most [window] long *)
    mutable is_firing : bool;
  }

  type t = {
    alerts : alert_state list;
    mutable prev : Metrics.snapshot option;
    mutable edges_rev : (int * string * bool) list;
  }

  let create alerts =
    let seen = ref [] in
    List.iter
      (fun a ->
        if List.exists (String.equal a.al_name) !seen then
          invalid_arg ("Health.Slo.create: duplicate alert " ^ a.al_name);
        seen := a.al_name :: !seen;
        if a.window <= 0 then invalid_arg "Health.Slo.create: window must be positive";
        if a.exit_pct >= a.enter_pct then
          invalid_arg "Health.Slo.create: exit_pct must be below enter_pct")
      alerts;
    {
      alerts = List.map (fun alert -> { alert; violations = []; is_firing = false }) alerts;
      prev = None;
      edges_rev = [];
    }

  let p99_of snap key =
    match Metrics.find snap key with
    | Some (Metrics.Hist { p99; _ }) -> p99
    | Some (Metrics.Counter n) | Some (Metrics.Gauge n) -> n
    | None -> 0

  let burn st =
    match st.violations with
    | [] -> 0
    | vs ->
      let viol = List.length (List.filter Fun.id vs) in
      viol * 100 / List.length vs

  let observe t snap =
    List.iter
      (fun st ->
        let a = st.alert in
        let violated =
          match a.objective with
          | P99_below { metric = key; limit } -> p99_of snap key > limit
          | Delta_at_least { metric = key; floor } -> (
            (* a delta needs two snapshots: the first observation is a
               baseline, not a violation *)
            match t.prev with
            | None -> false
            | Some p -> metric snap key - metric p key < floor)
        in
        st.violations <-
          violated :: List.filteri (fun i _ -> i < a.window - 1) st.violations;
        let rate = burn st in
        if (not st.is_firing) && rate >= a.enter_pct then begin
          st.is_firing <- true;
          t.edges_rev <- (snap.Metrics.at_us, a.al_name, true) :: t.edges_rev
        end
        else if st.is_firing && rate <= a.exit_pct then begin
          st.is_firing <- false;
          t.edges_rev <- (snap.Metrics.at_us, a.al_name, false) :: t.edges_rev
        end)
      t.alerts;
    t.prev <- Some snap

  let firing t =
    List.sort String.compare
      (List.filter_map
         (fun st -> if st.is_firing then Some st.alert.al_name else None)
         t.alerts)

  let burn_rate t key =
    match List.find_opt (fun st -> String.equal st.alert.al_name key) t.alerts with
    | None -> 0
    | Some st -> burn st

  let transitions t = List.rev t.edges_rev
end
