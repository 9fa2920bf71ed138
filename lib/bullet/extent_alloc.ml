type policy = First_fit | Best_fit

type extent = { start : int; length : int }

type t = {
  pol : policy;
  range_start : int;
  range_length : int;
  mutable free_list : extent list; (* sorted by start, non-adjacent *)
  mutable tracer : Amoeba_trace.Trace.ctx option;
}

let create ?(policy = First_fit) ~start ~length () =
  if length < 0 then invalid_arg "Extent_alloc.create: negative length";
  {
    pol = policy;
    range_start = start;
    range_length = length;
    free_list = (if length = 0 then [] else [ { start; length } ]);
    tracer = None;
  }

let set_tracer t tracer = t.tracer <- tracer

let take_from t chosen n =
  let replace e =
    if e.start <> chosen.start then [ e ]
    else if e.length = n then []
    else [ { start = e.start + n; length = e.length - n } ]
  in
  t.free_list <- List.concat_map replace t.free_list;
  (match t.tracer with
  | None -> ()
  | Some tr ->
    Amoeba_trace.Trace.event tr ~layer:Amoeba_trace.Sink.Alloc ~name:"alloc.take"
      [ ("start", Amoeba_trace.Sink.I chosen.start); ("blocks", Amoeba_trace.Sink.I n) ]);
  Some chosen.start

let alloc t n =
  if n <= 0 then invalid_arg "Extent_alloc.alloc: size must be positive";
  let candidates = List.filter (fun e -> e.length >= n) t.free_list in
  match (t.pol, candidates) with
  | _, [] -> None
  | First_fit, first :: _ -> take_from t first n
  | Best_fit, first :: rest ->
    let tighter best e = if e.length < best.length then e else best in
    take_from t (List.fold_left tighter first rest) n

let in_range t ~start ~length =
  start >= t.range_start && start + length <= t.range_start + t.range_length

let overlaps a b = a.start < b.start + b.length && b.start < a.start + a.length

let insert_free t ex =
  let rec go = function
    | [] -> [ ex ]
    | e :: rest ->
      if overlaps ex e then invalid_arg "Extent_alloc: extent overlaps free space"
      else if ex.start + ex.length = e.start then { start = ex.start; length = ex.length + e.length } :: rest
      else if e.start + e.length = ex.start then go_merge e rest
      else if ex.start < e.start then ex :: e :: rest
      else e :: go rest
  and go_merge e rest =
    let merged = { start = e.start; length = e.length + ex.length } in
    match rest with
    | next :: tail when merged.start + merged.length = next.start ->
      { merged with length = merged.length + next.length } :: tail
    | _ -> merged :: rest
  in
  t.free_list <- go t.free_list

let free t ~start ~length =
  if length <= 0 then invalid_arg "Extent_alloc.free: size must be positive";
  if not (in_range t ~start ~length) then invalid_arg "Extent_alloc.free: outside managed range";
  (match t.tracer with
  | None -> ()
  | Some tr ->
    Amoeba_trace.Trace.event tr ~layer:Amoeba_trace.Sink.Alloc ~name:"alloc.free"
      [ ("start", Amoeba_trace.Sink.I start); ("blocks", Amoeba_trace.Sink.I length) ]);
  insert_free t { start; length }

let reserve t ~start ~length =
  if length <= 0 then invalid_arg "Extent_alloc.reserve: size must be positive";
  if not (in_range t ~start ~length) then invalid_arg "Extent_alloc.reserve: outside managed range";
  let target = { start; length } in
  let rec go = function
    | [] -> invalid_arg "Extent_alloc.reserve: extent not free"
    | e :: rest ->
      if e.start <= start && start + length <= e.start + e.length then begin
        let before =
          if start > e.start then [ { start = e.start; length = start - e.start } ] else []
        in
        let after_start = start + length in
        let after =
          if after_start < e.start + e.length then
            [ { start = after_start; length = e.start + e.length - after_start } ]
          else []
        in
        before @ after @ rest
      end
      else if overlaps target e then invalid_arg "Extent_alloc.reserve: extent partially allocated"
      else e :: go rest
  in
  t.free_list <- go t.free_list

let free_total t = List.fold_left (fun acc e -> acc + e.length) 0 t.free_list

let used_total t = t.range_length - free_total t

let largest_free t = List.fold_left (fun acc e -> max acc e.length) 0 t.free_list

let fragment_count t = List.length t.free_list

let fragmentation t =
  let total = free_total t in
  if total = 0 then 0. else 1. -. (float_of_int (largest_free t) /. float_of_int total)

let iter_free t f = List.iter (fun e -> f ~start:e.start ~length:e.length) t.free_list
