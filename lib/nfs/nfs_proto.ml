module Message = Amoeba_rpc.Message
module Status = Amoeba_rpc.Status

let cmd_create = 1

let cmd_write = 2

let cmd_read = 3

let cmd_getattr = 4

let cmd_remove = 5

let fh_to_cap port fh =
  Amoeba_cap.Capability.v ~port ~obj:fh.Nfs_server.ino ~rights:Amoeba_cap.Rights.all
    ~check:(Int64.of_int fh.Nfs_server.gen)

let fh_of_cap cap =
  { Nfs_server.ino = cap.Amoeba_cap.Capability.obj; gen = Int64.to_int cap.Amoeba_cap.Capability.check }

let dispatch server request =
  let command = request.Message.command in
  if command = cmd_create then
    Message.reply_of_result
      ~encode:(fun fh ->
        Message.reply ~status:Status.Ok ~cap:(fh_to_cap (Nfs_server.port server) fh) ())
      (Nfs_server.create server)
  else if command = cmd_write then
    Message.with_cap request (fun cap ->
        Message.reply_of_result
          ~encode:(fun () -> Message.reply ~status:Status.Ok ())
          (Nfs_server.write server (fh_of_cap cap) ~off:request.Message.arg0 request.Message.body))
  else if command = cmd_read then
    Message.with_cap request (fun cap ->
        Message.reply_of_result
          ~encode:(fun body -> Message.reply ~status:Status.Ok ~body ())
          (Nfs_server.read server (fh_of_cap cap) ~off:request.Message.arg0
             ~len:request.Message.arg1))
  else if command = cmd_getattr then
    Message.with_cap request (fun cap ->
        Message.reply_of_result
          ~encode:(fun attr -> Message.reply ~status:Status.Ok ~arg0:attr.Nfs_server.size ())
          (Nfs_server.getattr server (fh_of_cap cap)))
  else if command = cmd_remove then
    Message.with_cap request (fun cap ->
        Message.reply_of_result
          ~encode:(fun () -> Message.reply ~status:Status.Ok ())
          (Nfs_server.remove server (fh_of_cap cap)))
  else Message.error Status.Bad_request

let serve server transport =
  Amoeba_rpc.Transport.register transport (Nfs_server.port server) (dispatch server)
