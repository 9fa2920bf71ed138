module Message = Amoeba_rpc.Message
module Status = Amoeba_rpc.Status

type t = {
  transport : Amoeba_rpc.Transport.t;
  model : Amoeba_rpc.Net_model.t;
  service : Amoeba_cap.Port.t;
}

let connect transport service =
  let model = Amoeba_rpc.Net_model.sunos_nfs in
  { transport; model; service }

let block_bytes = Ufs_layout.fs_block_bytes

let checked t request =
  let reply = Amoeba_rpc.Transport.trans t.transport ~model:t.model request in
  Status.check reply.Message.status;
  reply

let create t =
  let reply = checked t (Message.request ~port:t.service ~command:Nfs_proto.cmd_create ()) in
  match reply.Message.cap with
  | Some cap -> Nfs_proto.fh_of_cap cap
  | None -> raise (Status.Error Status.Server_failure)

let fh_cap t fh = Nfs_proto.fh_to_cap t.service fh

let write_at t fh ~off data =
  if Bytes.length data > block_bytes then invalid_arg "Nfs_client.write_at: over one block";
  let (_ : Message.t) =
    checked t
      (Message.request ~port:t.service ~command:Nfs_proto.cmd_write ~cap:(fh_cap t fh) ~arg0:off
         ~body:data ())
  in
  ()

let read_at t fh ~off ~len =
  if len > block_bytes then invalid_arg "Nfs_client.read_at: over one block";
  let reply =
    checked t
      (Message.request ~port:t.service ~command:Nfs_proto.cmd_read ~cap:(fh_cap t fh) ~arg0:off
         ~arg1:len ())
  in
  reply.Message.body

let write_file t fh data =
  let len = Bytes.length data in
  let rec put off =
    if off < len then begin
      let chunk = min block_bytes (len - off) in
      write_at t fh ~off (Bytes.sub data off chunk);
      put (off + chunk)
    end
  in
  put 0

let read_file t fh ~size =
  let out = Bytes.make size '\000' in
  let rec get off =
    if off < size then begin
      let chunk = min block_bytes (size - off) in
      let piece = read_at t fh ~off ~len:chunk in
      Bytes.blit piece 0 out off (Bytes.length piece);
      get (off + chunk)
    end
  in
  get 0;
  out

let getattr_size t fh =
  let reply =
    checked t (Message.request ~port:t.service ~command:Nfs_proto.cmd_getattr ~cap:(fh_cap t fh) ())
  in
  reply.Message.arg0

let remove t fh =
  let (_ : Message.t) =
    checked t (Message.request ~port:t.service ~command:Nfs_proto.cmd_remove ~cap:(fh_cap t fh) ())
  in
  ()
