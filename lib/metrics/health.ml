(* Health + SLO evaluation over snapshot streams. Pure folds — no clock
   reads, no randomness — so the transition lists asserted by the
   METRICS experiment are exactly reproducible. *)

type state = { rule : string; value : int option }

let healthy = { rule = "healthy"; value = None }

let state_label = function
  | { rule; value = None } -> rule
  | { rule; value = Some v } -> Printf.sprintf "%s:%d" rule v

(* The thresholds health.mli documents. *)
let shed_rate_pct = 10

let churn_per_interval = 3

let exit_after = 2

let hit rule value = Some { rule; value }

(* The rule table, in precedence order: each rule is [(enter_after,
   check)], and [check] holds on one snapshot. A rule enters once it has
   held for [enter_after] consecutive snapshots. The gauge reader is
   bound as [level]: a bare [gauge "name"] reads as a registration to
   amoeba-vet's metric inventory. *)
let rules =
  [|
    ( 1,
      fun ~delta ~gauge:_ ->
        let shed = delta "sched.sheds" and offered = delta "sched.offered" in
        if shed > 0 && offered > 0 && shed * 100 >= shed_rate_pct * offered then
          hit "overloaded" (Some (shed * 100 / offered))
        else None );
    ( 1,
      fun ~delta:_ ~gauge:level ->
        if level "mirror.sync_state" <> 0 then
          hit "degraded" (Some (level "mirror.sectors_remaining"))
        else None );
    (* an in-doubt transaction is normal for one scrape (a decision leg in
       flight); one that PERSISTS is a coordinator that died mid-decision *)
    ( 2,
      fun ~delta:_ ~gauge:level ->
        let n = level "txn.in_doubt" in
        if n > 0 then hit "txn_stuck" (Some n) else None );
    ( 1,
      fun ~delta ~gauge:_ ->
        if delta "lease.churn" >= churn_per_interval then hit "lease_churning" None else None
    );
    (* one snapshot of dirty shards is a membership blip the very next
       step may drain — a BACKLOG that persists is a migration in
       progress *)
    ( 2,
      fun ~delta:_ ~gauge:level ->
        let n = level "cluster.shards_remaining" in
        if n > 0 then hit "rebalancing" (Some n) else None );
  |]

type t = {
  mutable cur : state;
  mutable clean_streak : int;
  streaks : int array; (* consecutive snapshots each rule has held, by table index *)
  mutable prev : Metrics.snapshot option;
  mutable transitions_rev : (int * state) list;
}

let create () =
  {
    cur = healthy;
    clean_streak = 0;
    streaks = Array.make (Array.length rules) 0;
    prev = None;
    transitions_rev = [];
  }

let state t = t.cur

let metric snap key =
  match Metrics.find snap key with None -> 0 | Some v -> Metrics.value_int v

let observe t snap =
  (* the first snapshot is a baseline: counts since boot are not one
     interval's worth *)
  let delta key =
    match t.prev with None -> 0 | Some p -> metric snap key - metric p key
  in
  let gauge = metric snap in
  if Option.is_none t.prev then t.transitions_rev <- [ (snap.Metrics.at_us, t.cur) ];
  (* every rule is checked on every snapshot so each streak stays
     current; the first in table order that has held long enough wins *)
  let candidate = ref None in
  Array.iteri
    (fun i (enter_after, check) ->
      match check ~delta ~gauge with
      | None -> t.streaks.(i) <- 0
      | Some s ->
        t.streaks.(i) <- t.streaks.(i) + 1;
        if Option.is_none !candidate && t.streaks.(i) >= enter_after then candidate := Some s)
    rules;
  let goto s =
    t.cur <- s;
    t.transitions_rev <- (snap.Metrics.at_us, s) :: t.transitions_rev
  in
  (match !candidate with
  | None ->
    if not (String.equal t.cur.rule healthy.rule) then begin
      (* hysteresis: one quiet interval is not recovery *)
      t.clean_streak <- t.clean_streak + 1;
      if t.clean_streak >= exit_after then begin
        t.clean_streak <- 0;
        goto healthy
      end
    end
  | Some s ->
    t.clean_streak <- 0;
    (* entering a bad state is immediate; while the rule is unchanged the
       entry value stands, so the transition list stays a sequence of
       edges rather than a per-snapshot log *)
    if not (String.equal t.cur.rule s.rule) then goto s);
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

  let transitions t = List.rev t.edges_rev
end
