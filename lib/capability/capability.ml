type t = { port : Port.t; obj : int; rights : Rights.t; check : int64 }

let v ~port ~obj ~rights ~check =
  if obj < 0 then invalid_arg "Capability.v: negative object number";
  { port; obj; rights; check }

let equal a b =
  Port.equal a.port b.port && a.obj = b.obj
  && Rights.equal a.rights b.rights
  && Int64.equal a.check b.check

let wire_size = Port.wire_size + 4 + 2 + 8

let write t buf off =
  Port.write t.port buf off;
  Amoeba_sim.Codec.set_u32 buf (off + 6) t.obj;
  Bytes.set_uint16_be buf (off + 10) (Rights.to_int t.rights);
  Bytes.set_int64_be buf (off + 12) t.check

let read buf off =
  {
    port = Port.read buf off;
    obj = Amoeba_sim.Codec.get_u32 buf (off + 6);
    rights = Rights.of_int (Bytes.get_uint8 buf (off + 11));
    check = Bytes.get_int64_be buf (off + 12);
  }

let of_reader r = read r.Amoeba_sim.Codec.Reader.data (Amoeba_sim.Codec.Reader.take r wire_size)

let to_bytes t =
  let buf = Bytes.create wire_size in
  write t buf 0;
  buf

let of_bytes buf =
  if Bytes.length buf <> wire_size then invalid_arg "Capability.of_bytes: bad length";
  read buf 0

let to_string t =
  Printf.sprintf "%s:%x:%02x:%Lx" (Port.to_string t.port) t.obj (Rights.to_int t.rights) t.check

let of_string s =
  match String.split_on_char ':' s with
  | [ port; obj; rights; check ] -> (
    match
      ( int_of_string_opt ("0x" ^ obj),
        int_of_string_opt ("0x" ^ rights),
        Int64.of_string_opt ("0x" ^ check) )
    with
    | Some obj, Some rights, Some check ->
      { port = Port.of_string port; obj; rights = Rights.of_int rights; check }
    | _ -> invalid_arg "Capability.of_string: malformed fields")
  | _ -> invalid_arg "Capability.of_string: want port:obj:rights:check"
