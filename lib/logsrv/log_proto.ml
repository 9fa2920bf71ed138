module Message = Amoeba_rpc.Message
module Status = Amoeba_rpc.Status

let cmd_create_log = 1

let cmd_append = 2

let cmd_sync = 3

let cmd_length = 4

let cmd_durable_length = 5

let cmd_read = 6

let cmd_compact = 7

let cmd_delete = 8

let dispatch server request =
  let command = request.Message.command in
  let ok_unit () = Message.reply ~status:Status.Ok () in
  let ok_int n = Message.reply ~status:Status.Ok ~arg0:n () in
  if command = cmd_create_log then
    Message.reply ~status:Status.Ok ~cap:(Log_store.create_log server) ()
  else if command = cmd_append then
    Message.with_cap request (fun cap ->
        Message.reply_of_result ~encode:ok_int (Log_store.append server cap request.Message.body))
  else if command = cmd_sync then
    Message.with_cap request (fun cap ->
        Message.reply_of_result ~encode:ok_unit (Log_store.sync server cap))
  else if command = cmd_length then
    Message.with_cap request (fun cap ->
        Message.reply_of_result ~encode:ok_int (Log_store.length server cap))
  else if command = cmd_durable_length then
    Message.with_cap request (fun cap ->
        Message.reply_of_result ~encode:ok_int (Log_store.durable_length server cap))
  else if command = cmd_read then
    Message.with_cap request (fun cap ->
        Message.reply_of_result
          ~encode:(fun body -> Message.reply ~status:Status.Ok ~body ())
          (Log_store.read_log server cap))
  else if command = cmd_compact then
    Message.with_cap request (fun cap ->
        Message.reply_of_result ~encode:ok_unit (Log_store.compact_log server cap))
  else if command = cmd_delete then
    Message.with_cap request (fun cap ->
        Message.reply_of_result ~encode:ok_unit (Log_store.delete_log server cap))
  else Message.error Status.Bad_request

let serve server transport =
  Amoeba_rpc.Transport.register transport (Log_store.port server) (dispatch server)

(* ---- client ---- *)

type client = {
  transport : Amoeba_rpc.Transport.t;
  model : Amoeba_rpc.Net_model.t;
  service : Amoeba_cap.Port.t;
}

let connect transport service =
  let model = Amoeba_rpc.Net_model.amoeba in
  { transport; model; service }

let checked t request =
  let reply = Amoeba_rpc.Transport.trans t.transport ~model:t.model request in
  Status.check reply.Message.status;
  reply

let create_log t =
  let reply = checked t (Message.request ~port:t.service ~command:cmd_create_log ()) in
  match reply.Message.cap with
  | Some cap -> cap
  | None -> raise (Status.Error Status.Server_failure)

let append t cap data =
  (checked t (Message.request ~port:t.service ~command:cmd_append ~cap ~body:data ())).Message.arg0

let sync t cap =
  let (_ : Message.t) = checked t (Message.request ~port:t.service ~command:cmd_sync ~cap ()) in
  ()

let length t cap =
  (checked t (Message.request ~port:t.service ~command:cmd_length ~cap ())).Message.arg0

let durable_length t cap =
  (checked t (Message.request ~port:t.service ~command:cmd_durable_length ~cap ())).Message.arg0

let read_log t cap =
  (checked t (Message.request ~port:t.service ~command:cmd_read ~cap ())).Message.body

let compact_log t cap =
  let (_ : Message.t) = checked t (Message.request ~port:t.service ~command:cmd_compact ~cap ()) in
  ()

let delete_log t cap =
  let (_ : Message.t) = checked t (Message.request ~port:t.service ~command:cmd_delete ~cap ()) in
  ()
