type t = {
  port : Amoeba_cap.Port.t;
  command : int;
  status : Status.t;
  cap : Amoeba_cap.Capability.t option;
  arg0 : int;
  arg1 : int;
  xid : int;
  body : bytes;
}

let null_port = Amoeba_cap.Port.of_int64 0L

let empty_body = Bytes.create 0

let request ~port ~command ?cap ?(arg0 = 0) ?(arg1 = 0) ?(xid = 0) ?(body = empty_body) () =
  { port; command; status = Status.Ok; cap; arg0; arg1; xid; body }

let reply ~status ?cap ?(arg0 = 0) ?(arg1 = 0) ?(body = empty_body) () =
  { port = null_port; command = 0; status; cap; arg0; arg1; xid = 0; body }

let error status = reply ~status ()

let reply_of_result ~encode = function Ok v -> encode v | Error status -> error status

let with_cap request k =
  match request.cap with None -> error Status.Bad_request | Some cap -> k cap

(* port 6 + command/status 4 + capability 20 + two args 8 + size 4; the
   transaction id rides in the header's matching field, which this
   per-message cost already counts (real Amoeba RPC matches replies to
   open transactions the same way). *)
let header_bytes = 42

let wire_bytes t = header_bytes + Bytes.length t.body
