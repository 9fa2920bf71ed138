let get_u32 b off = Int32.to_int (Bytes.get_int32_be b off) land 0xFFFF_FFFF

let set_u32 b off v = Bytes.set_int32_be b off (Int32.of_int v)

let add_u32 buf v = Buffer.add_int32_be buf (Int32.of_int v)

let get_u48 b off =
  Int64.logor
    (Int64.shift_left (Int64.of_int (Bytes.get_uint16_be b off)) 32)
    (Int64.of_int (get_u32 b (off + 2)))

let set_u48 b off v =
  Bytes.set_uint16_be b off (Int64.to_int (Int64.shift_right_logical v 32) land 0xFFFF);
  set_u32 b (off + 2) (Int64.to_int v)

exception Truncated

module Reader = struct
  type t = { data : bytes; mutable pos : int }

  let of_bytes data = { data; pos = 0 }

  let take r n =
    if n < 0 || n > Bytes.length r.data - r.pos then raise Truncated;
    let off = r.pos in
    r.pos <- off + n;
    off

  let u8 r = Bytes.get_uint8 r.data (take r 1)

  let u16 r = Bytes.get_uint16_be r.data (take r 2)

  let u32 r = get_u32 r.data (take r 4)

  let i64 r = Bytes.get_int64_be r.data (take r 8)

  let string r n = Bytes.sub_string r.data (take r n) n

  let at_end r = r.pos = Bytes.length r.data
end
