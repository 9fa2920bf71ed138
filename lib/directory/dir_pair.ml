module Message = Amoeba_rpc.Message
module Status = Amoeba_rpc.Status
module Cap = Amoeba_cap.Capability

type t = {
  mutable primary : Dir_server.t;
  backup : Dir_server.t;
  primary_store : Bullet_core.Client.t;
  backup_store : Bullet_core.Client.t;
  config : Dir_server.config;
  seed : int64;
  mutable primary_up : bool;
}

let create ?(config = Dir_server.default_config) ?(seed = 0x50414952L) ~primary_store ~backup_store
    () =
  (* same seed: both replicas are the same deterministic state machine,
     so they mint identical ports, object numbers and seals *)
  let primary = Dir_server.create ~config ~seed ~store:primary_store () in
  let backup = Dir_server.create ~config ~seed ~store:backup_store () in
  { primary; backup; primary_store; backup_store; config; seed; primary_up = true }

let port t = Dir_server.port t.backup

let root t = Dir_server.root t.backup

let primary_alive t = t.primary_up

let fail_primary t = t.primary_up <- false

let heal_primary t =
  if not t.primary_up then begin
    (* rebuild the primary replica from the backup's state: checkpoint on
       the backup's store, restore reading from there but persisting to
       the primary's store from now on *)
    match Dir_server.checkpoint t.backup with
    | Error _ -> ()
    | Ok checkpoint -> (
      match
        Dir_server.restore ~config:t.config ~seed:t.seed ~from:t.backup_store
          ~store:t.primary_store checkpoint
      with
      | Ok revived ->
        (* re-persist every directory onto the primary's store so the
           replica is self-contained again *)
        Dir_server.repersist revived;
        t.primary <- revived;
        t.primary_up <- true
      | Error _ -> ())
  end

(* The commands that change no replica state. Every other command goes
   to both replicas, so one added later replicates unless it is listed
   here. Lease grants are not reads: both replicas must record every
   promise (the lease horizon), or a fail-over could let the survivor
   mutate before a lease granted by its peer has drained. *)
let read_only command =
  command = Dir_proto.cmd_lookup || command = Dir_proto.cmd_list
  || command = Dir_proto.cmd_versions || command = Dir_proto.cmd_resolve
  || command = Dir_proto.cmd_get_root

let dispatch t request =
  let serving = if t.primary_up then t.primary else t.backup in
  if read_only request.Message.command then Dir_proto.dispatch serving request
  else begin
    (* deterministic replicas: both replies agree; serve the primary's *)
    let reply_backup = Dir_proto.dispatch t.backup request in
    if t.primary_up then Dir_proto.dispatch t.primary request else reply_backup
  end

(* At-most-once execution for xid-stamped requests, as the Bullet serve
   loop does: an injected duplicate of a 2PC leg (or a client retry whose
   reply was lost) gets the remembered reply instead of running twice.
   Ordinary directory operations carry xid = 0 and bypass the cache. *)
let serve t transport =
  Amoeba_rpc.Transport.register transport (port t) (Amoeba_rpc.Transport.dedup (dispatch t))

let primary t = t.primary

let backup t = t.backup

(* One replica's directory state as (path, capability) lines: the
   root, then each binding in listing order, a directory's own line
   before its contents. Two replicas that converged give equal lines —
   same names, same object numbers, same seals. *)
let replica_lines server =
  let service = Dir_server.port server in
  let rec walk path cap acc =
    let acc = (path, cap) :: acc in
    if not (Amoeba_cap.Port.equal cap.Cap.port service) then acc
    else
      match Dir_server.list server cap with
      | Error _ -> acc
      | Ok rows ->
        List.fold_left (fun acc (name, child) -> walk (path ^ "/" ^ name) child acc) acc rows
  in
  List.rev (walk "" (Dir_server.root server) [])

let render lines =
  String.concat "" (List.map (fun (path, cap) -> path ^ " " ^ Cap.to_string cap ^ "\n") lines)

let replica_dumps t = (render (replica_lines t.primary), render (replica_lines t.backup))

let divergence t =
  let rec first_difference = function
    | [], [] -> None
    | (path, _) :: _, [] | [], (path, _) :: _ -> Some path
    | (path, a) :: rest_a, (path_b, b) :: rest_b ->
      if path = path_b && Cap.equal a b then first_difference (rest_a, rest_b) else Some path
  in
  first_difference (replica_lines t.primary, replica_lines t.backup)
