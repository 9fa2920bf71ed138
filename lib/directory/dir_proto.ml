module Message = Amoeba_rpc.Message
module Status = Amoeba_rpc.Status
module Cap = Amoeba_cap.Capability
module R = Amoeba_sim.Codec.Reader

let cmd_make_dir = 1

let cmd_lookup = 2

let cmd_enter = 3

let cmd_replace = 4

let cmd_remove_name = 5

let cmd_list = 6

let cmd_versions = 8

let cmd_get_root = 11

let cmd_resolve = 12

let cmd_lookup_lease = 13

let cmd_renew_lease = 14

(* Two-phase commit: 25..27 — and the Bullet service's 20..22 — are
   disjoint from every other command number in the system, so the fault
   injector can classify a message's 2PC leg (prepare vs decision) from
   the command alone. *)
let cmd_txn_prepare = 25

let cmd_txn_commit = 26

let cmd_txn_abort = 27

let encode_listing rows =
  let buf = Buffer.create 128 in
  let add_row (name, cap) =
    Buffer.add_uint16_be buf (String.length name);
    Buffer.add_string buf name;
    Buffer.add_bytes buf (Cap.to_bytes cap)
  in
  List.iter add_row rows;
  Buffer.to_bytes buf

let decode_listing data =
  let r = R.of_bytes data in
  let rec go acc =
    if R.at_end r then List.rev acc
    else
      let name = R.string r (R.u16 r) in
      go ((name, Cap.of_reader r) :: acc)
  in
  go []

let encode_caps caps =
  let buf = Bytes.create (List.length caps * Cap.wire_size) in
  List.iteri (fun i cap -> Cap.write cap buf (i * Cap.wire_size)) caps;
  buf

let decode_caps data =
  let count = Bytes.length data / Cap.wire_size in
  let rec go i acc = if i < 0 then acc else go (i - 1) (Cap.read data (i * Cap.wire_size) :: acc) in
  go (count - 1) []

(* Body layout for enter/replace: target capability followed by the name. *)
let encode_named_cap cap name =
  let buf = Bytes.create (Cap.wire_size + String.length name) in
  Cap.write cap buf 0;
  Bytes.blit_string name 0 buf Cap.wire_size (String.length name);
  buf

let decode_named_cap body =
  if Bytes.length body < Cap.wire_size then None
  else
    let cap = Cap.read body 0 in
    let name = Bytes.sub_string body Cap.wire_size (Bytes.length body - Cap.wire_size) in
    Some (cap, name)

(* Body layout for txn prepare/commit: the intent op, then the name as
   the rest of the body. *)
let encode_txn_intent op name =
  let buf = Buffer.create 32 in
  Dir_server.add_intent_op buf op;
  Buffer.add_string buf name;
  Buffer.to_bytes buf

let decode_txn_intent body =
  let r = R.of_bytes body in
  match Dir_server.read_intent_op r with
  | Ok op -> Some (op, R.string r (Bytes.length body - r.R.pos))
  | Error _ | (exception Amoeba_sim.Codec.Truncated) -> None

let name_of request = Bytes.to_string request.Message.body

let dispatch server request =
  let command = request.Message.command in
  let ok_unit () = Message.reply ~status:Status.Ok () in
  if command = cmd_make_dir then Message.reply ~status:Status.Ok ~cap:(Dir_server.make_dir server) ()
  else if command = cmd_get_root then Message.reply ~status:Status.Ok ~cap:(Dir_server.root server) ()
  else if command = cmd_lookup then
    Message.with_cap request (fun cap ->
        Message.reply_of_result
          ~encode:(fun found -> Message.reply ~status:Status.Ok ~cap:found ())
          (Dir_server.lookup server cap (name_of request)))
  else if command = cmd_enter then
    Message.with_cap request (fun cap ->
        match decode_named_cap request.Message.body with
        | None -> Message.error Status.Bad_request
        | Some (target, name) ->
          Message.reply_of_result ~encode:ok_unit (Dir_server.enter server cap name target))
  else if command = cmd_replace then
    Message.with_cap request (fun cap ->
        match decode_named_cap request.Message.body with
        | None -> Message.error Status.Bad_request
        | Some (target, name) ->
          Message.reply_of_result
            ~encode:(fun previous ->
              match previous with
              | Some old -> Message.reply ~status:Status.Ok ~arg0:1 ~cap:old ()
              | None -> Message.reply ~status:Status.Ok ~arg0:0 ())
            (Dir_server.replace server cap name target))
  else if command = cmd_remove_name then
    Message.with_cap request (fun cap ->
        Message.reply_of_result ~encode:ok_unit
          (Dir_server.remove_name server cap (name_of request)))
  else if command = cmd_list then
    Message.with_cap request (fun cap ->
        Message.reply_of_result
          ~encode:(fun rows -> Message.reply ~status:Status.Ok ~body:(encode_listing rows) ())
          (Dir_server.list server cap))
  else if command = cmd_versions then
    Message.with_cap request (fun cap ->
        Message.reply_of_result
          ~encode:(fun caps -> Message.reply ~status:Status.Ok ~body:(encode_caps caps) ())
          (Dir_server.versions server cap (name_of request)))
  else if command = cmd_resolve then
    Message.with_cap request (fun cap ->
        Message.reply_of_result
          ~encode:(fun found -> Message.reply ~status:Status.Ok ~cap:found ())
          (Dir_server.resolve server cap (name_of request)))
  else if command = cmd_lookup_lease then
    Message.with_cap request (fun cap ->
        Message.reply_of_result
          ~encode:(fun (found, epoch, lease_us) ->
            Message.reply ~status:Status.Ok ~cap:found ~arg0:epoch ~arg1:lease_us ())
          (Dir_server.lookup_lease server cap (name_of request)))
  else if command = cmd_renew_lease then
    Message.with_cap request (fun cap ->
        Message.reply_of_result
          ~encode:(fun (epoch, lease_us) ->
            Message.reply ~status:Status.Ok ~arg0:epoch ~arg1:lease_us ())
          (Dir_server.renew_lease server cap))
  else if command = cmd_txn_prepare then
    Message.with_cap request (fun cap ->
        match decode_txn_intent request.Message.body with
        | None -> Message.error Status.Bad_request
        | Some (op, name) ->
          Message.reply_of_result ~encode:ok_unit
            (Dir_server.txn_prepare server ~txn:request.Message.arg0 cap name op))
  else if command = cmd_txn_commit then
    Message.with_cap request (fun cap ->
        match decode_txn_intent request.Message.body with
        | None -> Message.error Status.Bad_request
        | Some (op, name) ->
          Message.reply_of_result ~encode:ok_unit
            (Dir_server.txn_commit server ~txn:request.Message.arg0 cap name op))
  else if command = cmd_txn_abort then
    Message.reply_of_result ~encode:ok_unit (Dir_server.txn_abort server ~txn:request.Message.arg0)
  else Message.error Status.Bad_request

let serve server transport =
  Amoeba_rpc.Transport.register transport (Dir_server.port server) (dispatch server)
