module Prng = Amoeba_sim.Prng

(* Points are sorted by (unsigned position, member, vnode index): the
   two trailing components only break exact 64-bit collisions, but that
   tie-break is what keeps the walk order a pure function of the member
   set. *)
type point = { pos : int64; member : string; index : int }

type t = {
  members : string list; (* sorted *)
  points : point array; (* sorted *)
}

(* points each member contributes to the circle *)
let vnodes = 64

let compare_point a b =
  match Int64.unsigned_compare a.pos b.pos with
  | 0 -> (
    match String.compare a.member b.member with
    | 0 -> Int.compare a.index b.index
    | c -> c)
  | c -> c

(* FNV-1a alone has no trailing-byte avalanche — "a#1" and "a#2" land a
   fixed FNV-prime stride apart, which would pile every similarly-named
   key on one arc — so positions push the name-derived seed through one
   SplitMix64 step, mixing every bit while staying compiler-stable. *)
let position_of s = Prng.next_int64 (Prng.of_name s)

let empty = { members = []; points = [||] }

let mem t name = List.exists (String.equal name) t.members

let members t = t.members

let size t = List.length t.members

let rebuild members =
  let point member index =
    { pos = position_of (Printf.sprintf "%s#%d" member index); member; index }
  in
  let points =
    Array.of_list (List.concat_map (fun m -> List.init vnodes (point m)) members)
  in
  Array.sort compare_point points;
  { members; points }

let add t name =
  if name = "" then invalid_arg "Ring.add: empty member name";
  if mem t name then invalid_arg (Printf.sprintf "Ring.add: member %s exists" name);
  rebuild (List.sort String.compare (name :: t.members))

let remove t name =
  if not (mem t name) then invalid_arg (Printf.sprintf "Ring.remove: unknown member %s" name);
  rebuild (List.filter (fun m -> not (String.equal m name)) t.members)

(* First point at or clockwise-after the key's position (wrapping). *)
let successor t pos =
  let n = Array.length t.points in
  let rec search lo hi =
    (* invariant: answer is in [lo, hi], where hi = n means "wraps to 0" *)
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if Int64.unsigned_compare t.points.(mid).pos pos >= 0 then search lo mid
      else search (mid + 1) hi
  in
  let i = search 0 n in
  if i >= n then 0 else i

let owners t ~r key =
  if r <= 0 then invalid_arg "Ring.owners: r must be positive";
  let n = Array.length t.points in
  if n = 0 then []
  else begin
    let want = min r (size t) in
    let start = successor t (position_of key) in
    let rec walk i picked =
      if List.length picked >= want then List.rev picked
      else
        let m = t.points.((start + i) mod n).member in
        walk (i + 1) (if List.exists (String.equal m) picked then picked else m :: picked)
    in
    walk 0 []
  end

let moved ~before ~after ~r keys =
  List.filter (fun k -> owners before ~r k <> owners after ~r k) keys
