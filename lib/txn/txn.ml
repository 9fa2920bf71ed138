module Cap = Amoeba_cap.Capability
module Port = Amoeba_cap.Port
module Status = Amoeba_rpc.Status
module Plan = Amoeba_fault.Plan

exception Crashed of Plan.txn_edge

type outcome = Committed | Aborted

let outcome_name = function Committed -> "committed" | Aborted -> "aborted"

type t = {
  wal : Wal.t;
  bullets : Bullet_core.Client.t list;
  dirs : Amoeba_dir.Dir_client.t list;
  injector : Amoeba_fault.Injector.t option;
  stats : Amoeba_sim.Stats.t;
  mutable next_txn : int;
}

(* In-doubt is not a separate cell that could drift: it is read off the
   WAL — transactions begun but not yet resolved ([Done]). *)
let in_doubt_count t =
  match Wal.records t.wal with
  | Error _ -> 0
  | Ok records ->
    let begun = Hashtbl.create 8 in
    let resolved = Hashtbl.create 8 in
    List.iter
      (function
        | Wal.Begin txn -> Hashtbl.replace begun txn ()
        | Wal.Done txn -> Hashtbl.replace resolved txn ()
        | Wal.Prepared _ | Wal.Commit _ -> ())
      records;
    Hashtbl.fold (fun txn () acc -> if Hashtbl.mem resolved txn then acc else acc + 1) begun 0

let create ?injector ?metrics ~bullets ~dirs () =
  let t =
    {
      wal = Wal.create ();
      bullets;
      dirs;
      injector;
      stats = Amoeba_sim.Stats.create "txn";
      next_txn = 1;
    }
  in
  (* the outcome counters scrape as 0 before the first transaction *)
  List.iter
    (fun key -> ignore (Amoeba_sim.Stats.counter t.stats key : int ref))
    [ "prepared"; "committed"; "aborted" ];
  (match metrics with
  | None -> ()
  | Some registry ->
    Amoeba_metrics.Metrics.stats_source registry ~prefix:"txn" t.stats;
    Amoeba_metrics.Metrics.gauge registry "txn.in_doubt" (fun () -> in_doubt_count t));
  t

let wal t = t.wal

let point t edge =
  match t.injector with None -> () | Some inj -> Amoeba_fault.Injector.txn_point inj edge

let bullet_for t port =
  List.find_opt (fun c -> Port.equal (Bullet_core.Client.port c) port) t.bullets

let dir_for t port = List.find_opt (fun c -> Port.equal (Amoeba_dir.Dir_client.port c) port) t.dirs

let commit_action t ~txn = function
  | Wal.Bullet_create cap -> (
    match bullet_for t cap.Cap.port with
    | None -> Error Status.No_such_object
    | Some c -> Bullet_core.Client.txn_commit c ~txn ~kind:Bullet_core.Server.Txn_create cap)
  | Wal.Bullet_delete cap -> (
    match bullet_for t cap.Cap.port with
    | None -> Error Status.No_such_object
    | Some c -> Bullet_core.Client.txn_commit c ~txn ~kind:Bullet_core.Server.Txn_delete cap)
  | Wal.Dir_intent { dir; name; op } -> (
    match dir_for t dir.Cap.port with
    | None -> Error Status.No_such_object
    | Some c -> Amoeba_dir.Dir_client.txn_commit c ~txn dir name op)

let abort_action t ~txn = function
  | Wal.Bullet_create cap -> (
    match bullet_for t cap.Cap.port with
    | None -> Error Status.No_such_object
    | Some c -> Bullet_core.Client.txn_abort c ~txn ~kind:Bullet_core.Server.Txn_create cap)
  | Wal.Bullet_delete cap -> (
    match bullet_for t cap.Cap.port with
    | None -> Error Status.No_such_object
    | Some c -> Bullet_core.Client.txn_abort c ~txn ~kind:Bullet_core.Server.Txn_delete cap)
  | Wal.Dir_intent _ -> Ok () (* directories roll back by id, sent below *)

(* Roll back everywhere. Cap-form aborts for the logged Bullet actions
   work even against a rebooted server that lost its pending table; the
   by-id aborts to every registered participant cover prepares whose
   replies were lost before the coordinator could log them (presumed
   abort: unknown transactions answer Ok). *)
let abort_txn t txn actions =
  Amoeba_sim.Stats.incr t.stats "aborted";
  let ok = ref true in
  let note = function Ok () -> () | Error Status.Timeout -> ok := false | Error _ -> () in
  List.iter (fun a -> note (abort_action t ~txn a)) actions;
  List.iter (fun c -> note (Bullet_core.Client.txn_abort_all c ~txn)) t.bullets;
  List.iter (fun c -> note (Amoeba_dir.Dir_client.txn_abort c ~txn)) t.dirs;
  if !ok then Wal.append t.wal (Wal.Done txn)
  else Amoeba_sim.Stats.incr t.stats "unresolved_aborts";
  Aborted

(* Decide commit: the commit record is the decision point — once it is
   logged the transaction commits no matter what, recovery re-sending
   any decision a crash or lost message withheld. *)
let commit_txn t txn actions =
  Wal.append t.wal (Wal.Commit txn);
  Amoeba_sim.Stats.incr t.stats "committed";
  point t Plan.Coord_after_commit_record;
  let ok = ref true in
  let first = ref true in
  List.iter
    (fun a ->
      if not !first then point t Plan.Coord_mid_decision;
      first := false;
      match commit_action t ~txn a with Ok () -> () | Error _ -> ok := false)
    actions;
  if !ok then Wal.append t.wal (Wal.Done txn)
  else Amoeba_sim.Stats.incr t.stats "unresolved_commits";
  Committed

let log_prepared t txn action =
  Amoeba_sim.Stats.incr t.stats "prepared";
  Wal.append t.wal (Wal.Prepared (txn, action))

let begin_txn t =
  let txn = t.next_txn in
  t.next_txn <- txn + 1;
  Amoeba_sim.Stats.incr t.stats "txns";
  Wal.append t.wal (Wal.Begin txn);
  txn

(* ---- scenarios ---- *)

let create_and_bind t ~bullet ~dir ~dir_cap ~name data =
  let txn = begin_txn t in
  point t Plan.Coord_before_prepare;
  match Bullet_core.Client.txn_prepare_create bullet ~txn data with
  | Error _ -> (abort_txn t txn [], None)
  | Ok cap -> (
    let a1 = Wal.Bullet_create cap in
    log_prepared t txn a1;
    let op = Amoeba_dir.Dir_server.Txn_enter cap in
    match Amoeba_dir.Dir_client.txn_prepare dir ~txn dir_cap name op with
    | Error _ -> (abort_txn t txn [ a1 ], None)
    | Ok () ->
      let a2 = Wal.Dir_intent { dir = dir_cap; name; op } in
      log_prepared t txn a2;
      point t Plan.Participant_after_prepare;
      point t Plan.Coord_after_prepare;
      (commit_txn t txn [ a1; a2 ], Some cap))

let rename t ~from:(from_client, from_dir, from_name) ~into:(to_client, to_dir, to_name) =
  let target =
    match Amoeba_dir.Dir_client.lookup from_client from_dir from_name with
    | cap -> Some cap
    | exception Status.Error _ -> None
  in
  match target with
  | None -> Aborted
  | Some target -> (
    let txn = begin_txn t in
    point t Plan.Coord_before_prepare;
    match Amoeba_dir.Dir_client.txn_prepare from_client ~txn from_dir from_name
            Amoeba_dir.Dir_server.Txn_remove
    with
    | Error _ -> abort_txn t txn []
    | Ok () -> (
      let a1 =
        Wal.Dir_intent
          { dir = from_dir; name = from_name; op = Amoeba_dir.Dir_server.Txn_remove }
      in
      log_prepared t txn a1;
      let op = Amoeba_dir.Dir_server.Txn_enter target in
      match Amoeba_dir.Dir_client.txn_prepare to_client ~txn to_dir to_name op with
      | Error _ -> abort_txn t txn [ a1 ]
      | Ok () ->
        let a2 = Wal.Dir_intent { dir = to_dir; name = to_name; op } in
        log_prepared t txn a2;
        point t Plan.Participant_after_prepare;
        point t Plan.Coord_after_prepare;
        commit_txn t txn [ a1; a2 ]))

let replace_with_delete t ~bullet ~dir ~dir_cap ~name data =
  let old =
    match Amoeba_dir.Dir_client.lookup dir dir_cap name with
    | cap -> Some cap
    | exception Status.Error _ -> None
  in
  match old with
  | None -> (Aborted, None)
  | Some old_cap -> (
    let txn = begin_txn t in
    point t Plan.Coord_before_prepare;
    match Bullet_core.Client.txn_prepare_create bullet ~txn data with
    | Error _ -> (abort_txn t txn [], None)
    | Ok fresh -> (
      let a1 = Wal.Bullet_create fresh in
      log_prepared t txn a1;
      match Bullet_core.Client.txn_prepare_delete bullet ~txn old_cap with
      | Error _ -> (abort_txn t txn [ a1 ], None)
      | Ok () -> (
        let a2 = Wal.Bullet_delete old_cap in
        log_prepared t txn a2;
        let op = Amoeba_dir.Dir_server.Txn_replace fresh in
        match Amoeba_dir.Dir_client.txn_prepare dir ~txn dir_cap name op with
        | Error _ -> (abort_txn t txn [ a1; a2 ], None)
        | Ok () ->
          let a3 = Wal.Dir_intent { dir = dir_cap; name; op } in
          log_prepared t txn a3;
          point t Plan.Participant_after_prepare;
          point t Plan.Coord_after_prepare;
          (commit_txn t txn [ a1; a2; a3 ], Some fresh))))

(* ---- recovery ---- *)

type recovery = { resolved_commits : int; resolved_aborts : int }

let recover t =
  match Wal.records t.wal with
  | Error e -> failwith e (* a corrupt WAL is a bug, not a protocol state *)
  | Ok records ->
    let tbl = Hashtbl.create 8 in
    let order = ref [] in
    List.iter
      (function
        | Wal.Begin txn ->
          if not (Hashtbl.mem tbl txn) then begin
            Hashtbl.replace tbl txn (ref false, ref false, ref []);
            order := txn :: !order
          end
        | Wal.Prepared (txn, a) -> (
          match Hashtbl.find_opt tbl txn with
          | Some (_, _, ps) -> ps := a :: !ps
          | None -> ())
        | Wal.Commit txn -> (
          match Hashtbl.find_opt tbl txn with Some (c, _, _) -> c := true | None -> ())
        | Wal.Done txn -> (
          match Hashtbl.find_opt tbl txn with Some (_, d, _) -> d := true | None -> ()))
      records;
    let commits = ref 0 in
    let aborts = ref 0 in
    List.iter
      (fun txn ->
        let committed, done_, prepared = Hashtbl.find tbl txn in
        if not !done_ then begin
          let actions = List.rev !prepared in
          if !committed then begin
            (* commit record without Done: re-send every decision;
               participants answer Ok to ones they already applied *)
            incr commits;
            Amoeba_sim.Stats.incr t.stats "recovered_commits";
            let ok = ref true in
            List.iter
              (fun a ->
                match commit_action t ~txn a with Ok () -> () | Error _ -> ok := false)
              actions;
            if !ok then Wal.append t.wal (Wal.Done txn)
          end
          else begin
            (* begun without a commit record: presumed abort *)
            incr aborts;
            Amoeba_sim.Stats.incr t.stats "recovered_aborts";
            let (_ : outcome) = abort_txn t txn actions in
            ()
          end
        end)
      (List.rev !order);
    { resolved_commits = !commits; resolved_aborts = !aborts }
