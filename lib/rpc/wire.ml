let max_frame_bytes = 64 * 1024 * 1024

module Codec = Amoeba_sim.Codec

(* payload layout:
   port 6 | command 4 | status 4 | cap-flag 1 | cap 20 | arg0 8 | arg1 8 | xid 8 | body *)
let fixed_bytes = 6 + 4 + 4 + 1 + Amoeba_cap.Capability.wire_size + 8 + 8 + 8

let encode (m : Message.t) =
  let body_len = Bytes.length m.Message.body in
  let frame = Bytes.make (4 + fixed_bytes + body_len) '\000' in
  Codec.set_u32 frame 0 (fixed_bytes + body_len);
  Amoeba_cap.Port.write m.Message.port frame 4;
  Codec.set_u32 frame 10 m.Message.command;
  Codec.set_u32 frame 14 (Status.to_int m.Message.status);
  (match m.Message.cap with
  | Some cap ->
    Bytes.set frame 18 '\001';
    Amoeba_cap.Capability.write cap frame 19
  | None -> ());
  Bytes.set_int64_be frame (19 + Amoeba_cap.Capability.wire_size) (Int64.of_int m.Message.arg0);
  Bytes.set_int64_be frame (27 + Amoeba_cap.Capability.wire_size) (Int64.of_int m.Message.arg1);
  Bytes.set_int64_be frame (35 + Amoeba_cap.Capability.wire_size) (Int64.of_int m.Message.xid);
  Bytes.blit m.Message.body 0 frame (4 + fixed_bytes) body_len;
  frame

let decode payload =
  if Bytes.length payload < fixed_bytes then Error "frame too short"
  else begin
    let port = Amoeba_cap.Port.read payload 0 in
    let command = Codec.get_u32 payload 6 in
    let status = Status.of_int (Codec.get_u32 payload 10) in
    let cap =
      if Bytes.get payload 14 = '\001' then Some (Amoeba_cap.Capability.read payload 15) else None
    in
    let arg0 = Int64.to_int (Bytes.get_int64_be payload (15 + Amoeba_cap.Capability.wire_size)) in
    let arg1 = Int64.to_int (Bytes.get_int64_be payload (23 + Amoeba_cap.Capability.wire_size)) in
    let xid = Int64.to_int (Bytes.get_int64_be payload (31 + Amoeba_cap.Capability.wire_size)) in
    let body_off = fixed_bytes in
    let body = Bytes.sub payload body_off (Bytes.length payload - body_off) in
    Ok { Message.port; command; status; cap; arg0; arg1; xid; body }
  end

let really_read fd buf off len =
  let rec go off remaining =
    if remaining > 0 then begin
      let n = Unix.read fd buf off remaining in
      if n = 0 then raise End_of_file;
      go (off + n) (remaining - n)
    end
  in
  go off len

let read_frame fd =
  let header = Bytes.create 4 in
  match really_read fd header 0 4 with
  | exception End_of_file -> Error "connection closed"
  | () ->
    let len = Codec.get_u32 header 0 in
    if len < fixed_bytes || len > max_frame_bytes then Error "bad frame length"
    else begin
      let payload = Bytes.create len in
      match really_read fd payload 0 len with
      | exception End_of_file -> Error "connection closed mid-frame"
      | () -> Ok payload
    end

let write_frame fd m =
  let frame = encode m in
  let rec go off remaining =
    if remaining > 0 then begin
      let n = Unix.write fd frame off remaining in
      go (off + n) (remaining - n)
    end
  in
  go 0 (Bytes.length frame)
