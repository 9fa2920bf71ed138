module Message = Amoeba_rpc.Message
module Status = Amoeba_rpc.Status
module Cap = Amoeba_cap.Capability

type t = {
  transport : Amoeba_rpc.Transport.t;
  model : Amoeba_rpc.Net_model.t;
  link : Amoeba_rpc.Link.t option;
  service : Amoeba_cap.Port.t;
}

let connect ?(model = Amoeba_rpc.Net_model.amoeba) ?link transport service =
  { transport; model; link; service }

let port t = t.service

let checked t request =
  let reply = Amoeba_rpc.Transport.trans ?link:t.link t.transport ~model:t.model request in
  Status.check reply.Message.status;
  reply

let cap_of reply =
  match reply.Message.cap with
  | Some cap -> cap
  | None -> raise (Status.Error Status.Server_failure)

let body_name name = Bytes.of_string name

let named_cap = Dir_proto.encode_named_cap

let get_root t =
  cap_of (checked t (Message.request ~port:t.service ~command:Dir_proto.cmd_get_root ()))

let make_dir t =
  cap_of (checked t (Message.request ~port:t.service ~command:Dir_proto.cmd_make_dir ()))

let lookup t dir name =
  cap_of
    (checked t
       (Message.request ~port:t.service ~command:Dir_proto.cmd_lookup ~cap:dir
          ~body:(body_name name) ()))

let lookup_lease t dir name =
  let reply =
    checked t
      (Message.request ~port:t.service ~command:Dir_proto.cmd_lookup_lease ~cap:dir
         ~body:(body_name name) ())
  in
  (cap_of reply, reply.Message.arg0, reply.Message.arg1)

let renew_lease t dir =
  let reply =
    checked t (Message.request ~port:t.service ~command:Dir_proto.cmd_renew_lease ~cap:dir ())
  in
  (reply.Message.arg0, reply.Message.arg1)

let enter t dir name target =
  let (_ : Message.t) =
    checked t
      (Message.request ~port:t.service ~command:Dir_proto.cmd_enter ~cap:dir
         ~body:(named_cap target name) ())
  in
  ()

let replace t dir name target =
  let reply =
    checked t
      (Message.request ~port:t.service ~command:Dir_proto.cmd_replace ~cap:dir
         ~body:(named_cap target name) ())
  in
  if reply.Message.arg0 = 1 then reply.Message.cap else None

let remove_name t dir name =
  let (_ : Message.t) =
    checked t
      (Message.request ~port:t.service ~command:Dir_proto.cmd_remove_name ~cap:dir
         ~body:(body_name name) ())
  in
  ()

let list t dir =
  let reply = checked t (Message.request ~port:t.service ~command:Dir_proto.cmd_list ~cap:dir ()) in
  Dir_proto.decode_listing reply.Message.body

let versions t dir name =
  let reply =
    checked t
      (Message.request ~port:t.service ~command:Dir_proto.cmd_versions ~cap:dir
         ~body:(body_name name) ())
  in
  Dir_proto.decode_caps reply.Message.body

(* ---- two-phase commit legs ----

   Result-typed, not raising: a vote of no and a decision timeout are
   ordinary protocol outcomes the coordinator branches on. Each leg
   carries a fresh xid so the pair's dedup cache absorbs an injected
   duplicate; the counter only needs uniqueness within this service's
   cache window. *)

let xid_counter = ref 0

let fresh_xid () =
  incr xid_counter;
  !xid_counter

let txn_result reply =
  match reply.Message.status with Status.Ok -> Ok () | s -> Error s

let txn_leg t ~command ~txn dir body =
  txn_result
    (Amoeba_rpc.Transport.trans ?link:t.link t.transport ~model:t.model
       (Message.request ~port:t.service ~command ~cap:dir ~arg0:txn ~xid:(fresh_xid ()) ~body ()))

let txn_prepare t ~txn dir name op =
  txn_leg t ~command:Dir_proto.cmd_txn_prepare ~txn dir (Dir_proto.encode_txn_intent op name)

let txn_commit t ~txn dir name op =
  txn_leg t ~command:Dir_proto.cmd_txn_commit ~txn dir (Dir_proto.encode_txn_intent op name)

let txn_abort t ~txn =
  txn_result
    (Amoeba_rpc.Transport.trans ?link:t.link t.transport ~model:t.model
       (Message.request ~port:t.service ~command:Dir_proto.cmd_txn_abort ~arg0:txn
          ~xid:(fresh_xid ()) ()))

let components path = List.filter (fun c -> c <> "") (String.split_on_char '/' path)

let resolve t dir path =
  cap_of
    (checked t
       (Message.request ~port:t.service ~command:Dir_proto.cmd_resolve ~cap:dir
          ~body:(body_name path) ()))

let resolve_stepwise t dir path = List.fold_left (lookup t) dir (components path)

let mkdir_path t dir path =
  let step parent name =
    match lookup t parent name with
    | found -> found
    | exception Status.Error Status.Not_found ->
      let fresh = make_dir t in
      enter t parent name fresh;
      fresh
  in
  List.fold_left step dir (components path)
