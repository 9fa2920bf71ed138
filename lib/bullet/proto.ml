module Message = Amoeba_rpc.Message
module Status = Amoeba_rpc.Status

let cmd_create = 1

let cmd_size = 2

let cmd_read = 3

let cmd_delete = 4

let cmd_read_range = 5

let cmd_modify = 6

let cmd_append = 7

let cmd_truncate = 8

let cmd_restrict = 9

let cmd_stat = 10

let cmd_std_status = 11

(* Two-phase commit. 20..22 — and the directory service's 25..27 — are
   disjoint from every other command number in the system, so the fault
   injector can classify a message's 2PC leg (prepare vs decision) from
   the command alone. *)
let cmd_txn_prepare = 20

let cmd_txn_commit = 21

let cmd_txn_abort = 22

let command_name command =
  if command = cmd_create then "create"
  else if command = cmd_size then "size"
  else if command = cmd_read then "read"
  else if command = cmd_delete then "delete"
  else if command = cmd_read_range then "read_range"
  else if command = cmd_modify then "modify"
  else if command = cmd_append then "append"
  else if command = cmd_truncate then "truncate"
  else if command = cmd_restrict then "restrict"
  else if command = cmd_stat then "stat"
  else if command = cmd_std_status then "std_status"
  else if command = cmd_txn_prepare then "txn_prepare"
  else if command = cmd_txn_commit then "txn_commit"
  else if command = cmd_txn_abort then "txn_abort"
  else Printf.sprintf "cmd%d" command

(* txn_kind on the wire: arg1 of every txn command *)
let encode_txn_kind = function Server.Txn_create -> 0 | Server.Txn_delete -> 1

let decode_txn_kind = function
  | 0 -> Some Server.Txn_create
  | 1 -> Some Server.Txn_delete
  | _ -> None

type stat = {
  live_files : int;
  free_blocks : int;
  data_blocks : int;
  cache_used : int;
  cache_capacity : int;
}

(* stat reply body: five big-endian u32s *)
let encode_stat server =
  let buf = Bytes.create 20 in
  let set off v =
    for i = 0 to 3 do
      Bytes.set buf (off + i) (Char.chr ((v lsr (8 * (3 - i))) land 0xff))
    done
  in
  set 0 (Server.live_files server);
  set 4 (Server.free_blocks server);
  set 8 (Server.data_blocks server);
  set 12 (Server.cache_used server);
  set 16 (Server.cache_capacity server);
  buf

let decode_stat body =
  let get off =
    let v = ref 0 in
    for i = 0 to 3 do
      v := (!v lsl 8) lor Char.code (Bytes.get body (off + i))
    done;
    !v
  in
  {
    live_files = get 0;
    free_blocks = get 4;
    data_blocks = get 8;
    cache_used = get 12;
    cache_capacity = get 16;
  }

let status_snapshot server =
  Amoeba_metrics.Metrics.scrape (Server.metrics server)
    ~at_us:(Amoeba_sim.Clock.now (Server.clock server))

(* STD_STATUS reply body: the server's metrics snapshot, binary form.
   The request's arg0 selects the representation (0 binary, 1 the text
   exposition) so one command serves both the ctl tool and a curl-ish
   scrape over the daemon's TCP carrier. *)
let encode_status server = Amoeba_metrics.Metrics.encode_snapshot (status_snapshot server)

let decode_status body = Amoeba_metrics.Metrics.decode_snapshot body

let reply_of_result ~encode = function
  | Ok v -> encode v
  | Error status -> Message.error status

let reply_cap cap = Message.reply ~status:Status.Ok ~cap ()

let with_cap request k =
  match request.Message.cap with
  | None -> Message.error Status.Bad_request
  | Some cap -> k cap

let dispatch server request =
  let command = request.Message.command in
  if command = cmd_create then
    let p_factor = request.Message.arg0 in
    reply_of_result ~encode:reply_cap (Server.create server ~p_factor request.Message.body)
  else if command = cmd_size then
    with_cap request (fun cap ->
        reply_of_result
          ~encode:(fun n -> Message.reply ~status:Status.Ok ~arg0:n ())
          (Server.size server cap))
  else if command = cmd_read then
    with_cap request (fun cap ->
        reply_of_result
          ~encode:(fun body -> Message.reply ~status:Status.Ok ~body ())
          (Server.read server cap))
  else if command = cmd_delete then
    with_cap request (fun cap ->
        reply_of_result
          ~encode:(fun () -> Message.reply ~status:Status.Ok ())
          (Server.delete server cap))
  else if command = cmd_read_range then
    with_cap request (fun cap ->
        reply_of_result
          ~encode:(fun body -> Message.reply ~status:Status.Ok ~body ())
          (Server.read_range server cap ~pos:request.Message.arg0 ~len:request.Message.arg1))
  else if command = cmd_modify then
    with_cap request (fun cap ->
        reply_of_result ~encode:reply_cap
          (Server.modify server ~p_factor:request.Message.arg0 cap ~pos:request.Message.arg1 request.Message.body))
  else if command = cmd_append then
    with_cap request (fun cap ->
        reply_of_result ~encode:reply_cap
          (Server.append server ~p_factor:request.Message.arg0 cap request.Message.body))
  else if command = cmd_truncate then
    with_cap request (fun cap ->
        reply_of_result ~encode:reply_cap
          (Server.truncate server ~p_factor:request.Message.arg0 cap request.Message.arg1))
  else if command = cmd_restrict then
    with_cap request (fun cap ->
        reply_of_result ~encode:reply_cap
          (Server.restrict server cap (Amoeba_cap.Rights.of_int request.Message.arg0)))
  else if command = cmd_stat then
    Message.reply ~status:Status.Ok ~body:(encode_stat server) ()
  else if command = cmd_std_status then
    if request.Message.arg0 = 1 then
      Message.reply ~status:Status.Ok
        ~body:(Bytes.of_string (Amoeba_metrics.Metrics.to_text (status_snapshot server)))
        ()
    else Message.reply ~status:Status.Ok ~body:(encode_status server) ()
  else if command = cmd_txn_prepare then
    let txn = request.Message.arg0 in
    (match decode_txn_kind request.Message.arg1 with
    | Some Server.Txn_create ->
      reply_of_result ~encode:reply_cap (Server.txn_prepare_create server ~txn request.Message.body)
    | Some Server.Txn_delete ->
      with_cap request (fun cap ->
          reply_of_result
            ~encode:(fun () -> Message.reply ~status:Status.Ok ())
            (Server.txn_prepare_delete server ~txn cap))
    | None -> Message.error Status.Bad_request)
  else if command = cmd_txn_commit then
    let txn = request.Message.arg0 in
    (match decode_txn_kind request.Message.arg1 with
    | Some kind ->
      with_cap request (fun cap ->
          reply_of_result
            ~encode:(fun () -> Message.reply ~status:Status.Ok ())
            (Server.txn_commit server ~txn ~kind cap))
    | None -> Message.error Status.Bad_request)
  else if command = cmd_txn_abort then
    let txn = request.Message.arg0 in
    (match request.Message.cap with
    | None ->
      (* no capability: presumed abort of the whole transaction *)
      reply_of_result
        ~encode:(fun () -> Message.reply ~status:Status.Ok ())
        (Server.txn_abort_all server ~txn)
    | Some cap -> (
      match decode_txn_kind request.Message.arg1 with
      | Some kind ->
        reply_of_result
          ~encode:(fun () -> Message.reply ~status:Status.Ok ())
          (Server.txn_abort server ~txn ~kind cap)
      | None -> Message.error Status.Bad_request))
  else Message.error Status.Bad_request

let serve server transport =
  let on_hit request =
    match Amoeba_rpc.Transport.tracer transport with
    | None -> ()
    | Some tr ->
      (* No raw xid (process-global counter): the enclosing trace id
         already identifies the deduplicated transaction. *)
      Amoeba_trace.Trace.event tr ~layer:Amoeba_trace.Sink.Server ~name:"serve.dedup_hit"
        [ ("cmd", Amoeba_trace.Sink.I request.Message.command) ]
  in
  let handler = Amoeba_rpc.Transport.dedup ~on_hit (dispatch server) in
  let service request =
    match Amoeba_rpc.Transport.tracer transport with
    | None -> handler request
    | Some tr ->
      Amoeba_trace.Trace.in_span tr ~layer:Amoeba_trace.Sink.Server
        ~name:("serve." ^ command_name request.Message.command)
        (fun () -> handler request)
  in
  Amoeba_rpc.Transport.register transport (Server.port server) service
