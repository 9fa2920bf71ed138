module Cap = Amoeba_cap.Capability
module Codec = Amoeba_sim.Codec
module R = Codec.Reader

(* The coordinator's write-ahead log. Records are kept ENCODED — every
   append runs the wire codec and recovery decodes the bytes back — so
   the durability story is honest: what survives a coordinator crash is
   exactly what the codec can round-trip, and the fuzz tests hammer that
   codec directly. *)

type action =
  | Bullet_create of Cap.t
  | Bullet_delete of Cap.t
  | Dir_intent of { dir : Cap.t; name : string; op : Amoeba_dir.Dir_server.intent_op }

type record =
  | Begin of int
  | Prepared of int * action
  | Commit of int
  | Done of int

(* ---- wire codec ---- *)

let add_cap buf cap = Buffer.add_bytes buf (Cap.to_bytes cap)

let encode_action buf = function
  | Bullet_create cap ->
    Buffer.add_char buf '\000';
    add_cap buf cap
  | Bullet_delete cap ->
    Buffer.add_char buf '\001';
    add_cap buf cap
  | Dir_intent { dir; name; op } ->
    Buffer.add_char buf '\002';
    add_cap buf dir;
    Amoeba_dir.Dir_server.add_intent_op buf op;
    Buffer.add_uint16_be buf (String.length name);
    Buffer.add_string buf name

let decode_action r =
  match R.u8 r with
  | 0 -> Ok (Bullet_create (Cap.of_reader r))
  | 1 -> Ok (Bullet_delete (Cap.of_reader r))
  | 2 ->
    let dir = Cap.of_reader r in
    Amoeba_dir.Dir_server.read_intent_op r
    |> Result.map_error (Printf.sprintf "wal: unknown intent op tag %d")
    |> Result.map (fun op -> Dir_intent { dir; name = R.string r (R.u16 r); op })
  | n -> Error (Printf.sprintf "wal: unknown action tag %d" n)

let encode_record record =
  let buf = Buffer.create 32 in
  (match record with
  | Begin txn ->
    Buffer.add_char buf '\000';
    Codec.add_u32 buf txn
  | Prepared (txn, action) ->
    Buffer.add_char buf '\001';
    Codec.add_u32 buf txn;
    encode_action buf action
  | Commit txn ->
    Buffer.add_char buf '\002';
    Codec.add_u32 buf txn
  | Done txn ->
    Buffer.add_char buf '\003';
    Codec.add_u32 buf txn);
  Buffer.to_bytes buf

let decode_record data =
  let r = R.of_bytes data in
  let finish record = if R.at_end r then Ok record else Error "wal: trailing bytes" in
  match
    match R.u8 r with
    | 0 -> Ok (Begin (R.u32 r))
    | 1 ->
      let txn = R.u32 r in
      Result.map (fun action -> Prepared (txn, action)) (decode_action r)
    | 2 -> Ok (Commit (R.u32 r))
    | 3 -> Ok (Done (R.u32 r))
    | n -> Error (Printf.sprintf "wal: unknown record tag %d" n)
  with
  | Ok record -> finish record
  | Error _ as e -> e
  | exception Codec.Truncated -> Error "wal: truncated record"

(* ---- the log ---- *)

type t = { mutable log : bytes list (* encoded records, oldest first, reversed *) }

let create () = { log = [] }

let append t record = t.log <- encode_record record :: t.log

let length t = List.length t.log

let records t =
  List.fold_left
    (fun acc data -> Result.bind acc (fun rs -> Result.map (fun r -> r :: rs) (decode_record data)))
    (Ok []) (List.rev t.log)
  |> Result.map List.rev
