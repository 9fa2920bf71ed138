type t = int64 (* invariant: top 16 bits zero *)

let mask48 = 0xFFFF_FFFF_FFFFL

let of_int64 v = Int64.logand v mask48

let random prng = of_int64 (Amoeba_sim.Prng.next_int64 prng)

let equal = Int64.equal

let hash t = Int64.to_int t land max_int

let to_string t = Printf.sprintf "%012Lx" t

let of_string s =
  if String.length s <> 12 then invalid_arg "Port.of_string: want 12 hex digits";
  match Int64.of_string_opt ("0x" ^ s) with
  | Some v -> of_int64 v
  | None -> invalid_arg "Port.of_string: malformed hex"

let pp ppf t = Format.pp_print_string ppf (to_string t)

let wire_size = 6

let write t buf off = Amoeba_sim.Codec.set_u48 buf off t

let read = Amoeba_sim.Codec.get_u48
