type key = { k0 : int; k1 : int; k2 : int; k3 : int } (* each 32 bits *)

let mask32 = 0xFFFF_FFFF

let delta = 0x9E3779B9

let rounds = 32

(* FNV-1a over the string, folded into four 32-bit words. *)
let key_of_string s =
  let fnv seed =
    let h = ref (0x811C9DC5 lxor seed) in
    String.iter
      (fun c ->
        h := (!h lxor Char.code c) land mask32;
        h := !h * 0x01000193 land mask32)
      s;
    !h
  in
  { k0 = fnv 0; k1 = fnv 1; k2 = fnv 2; k3 = fnv 3 }

let key_word key = function
  | 0 -> key.k0
  | 1 -> key.k1
  | 2 -> key.k2
  | _ -> key.k3

let split block =
  let hi = Int64.to_int (Int64.shift_right_logical block 32) land mask32 in
  let lo = Int64.to_int block land mask32 in
  (hi, lo)

let join hi lo =
  Int64.logor (Int64.shift_left (Int64.of_int (hi land mask32)) 32) (Int64.of_int (lo land mask32))

let encrypt key block =
  let v0 = ref (fst (split block)) and v1 = ref (snd (split block)) in
  let sum = ref 0 in
  for _ = 1 to rounds do
    let mix = (((!v1 lsl 4) lxor (!v1 lsr 5)) + !v1) land mask32 in
    v0 := (!v0 + (mix lxor ((!sum + key_word key (!sum land 3)) land mask32))) land mask32;
    sum := (!sum + delta) land mask32;
    let mix = (((!v0 lsl 4) lxor (!v0 lsr 5)) + !v0) land mask32 in
    v1 := (!v1 + (mix lxor ((!sum + key_word key ((!sum lsr 11) land 3)) land mask32))) land mask32
  done;
  join !v0 !v1

let decrypt key block =
  let v0 = ref (fst (split block)) and v1 = ref (snd (split block)) in
  let sum = ref (delta * rounds land mask32) in
  for _ = 1 to rounds do
    let mix = (((!v0 lsl 4) lxor (!v0 lsr 5)) + !v0) land mask32 in
    v1 := (!v1 - (mix lxor ((!sum + key_word key ((!sum lsr 11) land 3)) land mask32))) land mask32;
    sum := (!sum - delta) land mask32;
    let mix = (((!v1 lsl 4) lxor (!v1 lsr 5)) + !v1) land mask32 in
    v0 := (!v0 - (mix lxor ((!sum + key_word key (!sum land 3)) land mask32))) land mask32
  done;
  join !v0 !v1

let one_way_key = key_of_string "amoeba-one-way-function"

(* Davies-Meyer: H(x) = E_k(x) xor x, not invertible even with the key. *)
let one_way x = Int64.logxor (encrypt one_way_key x) x
