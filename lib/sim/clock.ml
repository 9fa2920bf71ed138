type t = { mutable now_us : int }

let create () = { now_us = 0 }

let now clock = clock.now_us

let advance clock us =
  if us < 0 then invalid_arg "Clock.advance: negative duration";
  clock.now_us <- clock.now_us + us

let advance_to clock t = if t > clock.now_us then clock.now_us <- t

let reset clock = clock.now_us <- 0

let parallel clock fs =
  let start = clock.now_us in
  let run_from_start f =
    clock.now_us <- start;
    let result = f () in
    let finish = clock.now_us in
    (result, finish)
  in
  let results = List.map run_from_start fs in
  let latest = List.fold_left (fun acc (_, t) -> max acc t) start results in
  clock.now_us <- latest;
  List.map fst results

let unobserved clock f =
  let start = clock.now_us in
  let finish () = clock.now_us <- start in
  match f () with
  | result ->
    finish ();
    result
  | exception e ->
    finish ();
    raise e

let elapsed clock f =
  let start = clock.now_us in
  let result = f () in
  (result, clock.now_us - start)

let to_ms us = float_of_int us /. 1000.
