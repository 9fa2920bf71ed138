(* A slot in use sits on a circular doubly linked list threaded through
   [prev]/[next], with slot 0 as its sentinel: [next.(0)] is the oldest
   value, [prev.(0)] the newest. Free slots are chained through [next]
   from [free], so the last slot freed is the next one handed out. *)

type 'a t = {
  mutable values : 'a option array;
  mutable prev : int array;
  mutable next : int array;
  mutable free : int; (* head of the free chain; 0 when none is free *)
  mutable length : int;
}

(* Append [n] slots to an empty free chain, chained in ascending order. *)
let grow t n =
  let first = Array.length t.values in
  t.values <- Array.append t.values (Array.make n None);
  t.prev <- Array.append t.prev (Array.make n 0);
  t.next <- Array.append t.next (Array.init n (fun i -> if i = n - 1 then 0 else first + i + 1));
  t.free <- first

let create n =
  if n < 1 then invalid_arg "Lru.create: need at least one slot";
  let t = { values = [| None |]; prev = [| 0 |]; next = [| 0 |]; free = 0; length = 0 } in
  grow t n;
  t

let get t s =
  match if s < 1 || s >= Array.length t.values then None else t.values.(s) with
  | Some v -> v
  | None -> invalid_arg (Printf.sprintf "Lru: slot %d is not in use" s)

let unlink t s =
  let (_ : 'a) = get t s in
  t.next.(t.prev.(s)) <- t.next.(s);
  t.prev.(t.next.(s)) <- t.prev.(s)

let push_newest t s =
  let last = t.prev.(0) in
  t.next.(last) <- s;
  t.prev.(s) <- last;
  t.next.(s) <- 0;
  t.prev.(0) <- s

let add t v =
  if t.free = 0 then grow t (Array.length t.values - 1);
  let s = t.free in
  t.free <- t.next.(s);
  t.values.(s) <- Some v;
  push_newest t s;
  t.length <- t.length + 1;
  s

let touch t s =
  unlink t s;
  push_newest t s

let remove t s =
  unlink t s;
  t.values.(s) <- None;
  t.next.(s) <- t.free;
  t.free <- s;
  t.length <- t.length - 1

let oldest t = t.next.(0)

let length t = t.length

let iter f t =
  let rec go s = if s <> 0 then (Option.iter f t.values.(s); go t.next.(s)) in
  go t.next.(0)
