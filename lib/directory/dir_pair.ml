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

let mutating command =
  command = Dir_proto.cmd_make_dir || command = Dir_proto.cmd_enter
  || command = Dir_proto.cmd_replace || command = Dir_proto.cmd_remove_name
  || command = Dir_proto.cmd_delete_dir

(* Every 2PC leg mutates replica state (intents, applied decisions, the
   committed bindings themselves): all of them go to both replicas. *)
let txn_command command =
  command = Dir_proto.cmd_txn_prepare || command = Dir_proto.cmd_txn_commit
  || command = Dir_proto.cmd_txn_abort

(* Lease grants mutate replica state too (the lease horizon): both
   replicas must record every promise, or a fail-over could let the
   survivor mutate before a lease granted by its peer has drained. *)
let lease_granting command =
  command = Dir_proto.cmd_lookup_lease || command = Dir_proto.cmd_renew_lease

let dispatch t request =
  let command = request.Message.command in
  if command = Dir_proto.cmd_checkpoint then
    (* checkpointing is per-replica persistence, not replicated state *)
    Dir_proto.dispatch (if t.primary_up then t.primary else t.backup) request
  else if mutating command || lease_granting command || txn_command command then begin
    let reply_backup = Dir_proto.dispatch t.backup request in
    if t.primary_up then begin
      let reply_primary = Dir_proto.dispatch t.primary request in
      (* deterministic replicas: both replies agree; serve the primary's *)
      reply_primary
    end
    else reply_backup
  end
  else Dir_proto.dispatch (if t.primary_up then t.primary else t.backup) request

(* At-most-once execution for xid-stamped requests, as the Bullet serve
   loop does: an injected duplicate of a 2PC leg (or a client retry whose
   reply was lost) gets the remembered reply instead of running twice.
   Ordinary directory operations carry xid = 0 and bypass the cache. *)
let serve t transport =
  Amoeba_rpc.Transport.register transport (port t) (Amoeba_rpc.Transport.dedup (dispatch t))

(* recursive comparison of the two replicas' name spaces *)
let primary t = t.primary

let backup t = t.backup

(* A canonical, byte-comparable rendering of one replica's directory
   state: every path with its capability, in listing order. Two replicas
   that converged produce identical strings — same names, same object
   numbers, same seals. *)
let dump_replica server =
  let service = Dir_server.port server in
  let buf = Buffer.create 256 in
  let rec walk path cap =
    Buffer.add_string buf path;
    Buffer.add_char buf ' ';
    Buffer.add_string buf (Cap.to_string cap);
    Buffer.add_char buf '\n';
    match Dir_server.list server cap with
    | Error _ -> ()
    | Ok rows ->
      List.iter
        (fun (name, child) ->
          let child_path = path ^ "/" ^ name in
          if Amoeba_cap.Port.equal child.Cap.port service then walk child_path child
          else begin
            Buffer.add_string buf child_path;
            Buffer.add_char buf ' ';
            Buffer.add_string buf (Cap.to_string child);
            Buffer.add_char buf '\n'
          end)
        rows
  in
  walk "" (Dir_server.root server);
  Buffer.contents buf

let replica_dumps t = (dump_replica t.primary, dump_replica t.backup)

let divergence t =
  let service = port t in
  let rec compare_dir path cap_a cap_b =
    match (Dir_server.list t.primary cap_a, Dir_server.list t.backup cap_b) with
    | Error _, Error _ -> None
    | Error _, Ok _ | Ok _, Error _ -> Some path
    | Ok rows_a, Ok rows_b ->
      if List.map fst rows_a <> List.map fst rows_b then Some path
      else
        let check_row acc (name, cap_a') =
          match acc with
          | Some _ -> acc
          | None -> (
            let cap_b' = List.assoc name rows_b in
            let child = path ^ "/" ^ name in
            (* directory entries recurse; leaf capabilities must agree *)
            if Amoeba_cap.Port.equal cap_a'.Cap.port service then
              compare_dir child cap_a' cap_b'
            else if Cap.equal cap_a' cap_b' then None
            else Some child)
        in
        List.fold_left check_row None rows_a
  in
  compare_dir "" (Dir_server.root t.primary) (Dir_server.root t.backup)
