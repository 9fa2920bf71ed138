(* tiny private xorshift for reservoir sampling, so Stats does not need
   a Prng instance threaded in *)
module Rng = struct
  type t = { mutable state : int }

  let default_seed = 0x9E3779B9

  let create ?(seed = default_seed) () =
    (* xorshift has a fixed point at 0; land max_int keeps the state in
       the positive range [next] expects *)
    let seed = seed land max_int in
    { state = (if seed = 0 then default_seed else seed) }

  let next t bound =
    let x = t.state in
    let x = x lxor (x lsl 13) in
    let x = x lxor (x lsr 7) in
    let x = x lxor (x lsl 17) in
    t.state <- x land max_int;
    t.state mod bound
end

(* Fixed-bucket log2 histograms: exact bucket counts (no sampling), cheap
   to merge, and integer-only on the record path so a hot loop can record
   without boxing a float.  Bucket 0 holds values <= 0; bucket k holds
   [2^(k-1), 2^k).  Designed for microsecond latencies: 62 buckets cover
   the whole positive int range. *)
module Hist = struct
  let bucket_count = 63

  type t = {
    counts : int array;
    mutable h_count : int;
    mutable h_sum : int;
    mutable h_min : int;
    mutable h_max : int;
  }

  let create () =
    { counts = Array.make bucket_count 0; h_count = 0; h_sum = 0; h_min = max_int; h_max = min_int }

  let bucket_of v =
    if v <= 0 then 0
    else begin
      let k = ref 0 in
      while v lsr !k <> 0 do
        Stdlib.incr k
      done;
      min !k (bucket_count - 1)
    end

  let record t v =
    let b = t.counts.(bucket_of v) in
    t.counts.(bucket_of v) <- b + 1;
    t.h_count <- t.h_count + 1;
    t.h_sum <- t.h_sum + v;
    if v < t.h_min then t.h_min <- v;
    if v > t.h_max then t.h_max <- v

  let count t = t.h_count
  let sum t = t.h_sum
  let min_value t = if t.h_count = 0 then 0 else t.h_min
  let max_value t = if t.h_count = 0 then 0 else t.h_max
  let mean t = if t.h_count = 0 then 0. else float_of_int t.h_sum /. float_of_int t.h_count

  let merge ~into src =
    Array.iteri (fun i n -> into.counts.(i) <- into.counts.(i) + n) src.counts;
    into.h_count <- into.h_count + src.h_count;
    into.h_sum <- into.h_sum + src.h_sum;
    if src.h_count > 0 then begin
      if src.h_min < into.h_min then into.h_min <- src.h_min;
      if src.h_max > into.h_max then into.h_max <- src.h_max
    end

  (* Nearest-rank over the buckets, mirroring [percentile]'s convention on
     the reservoir: 0-based rank q*(n-1).  The answer is the upper bound
     of the bucket holding that rank, clamped to the observed [min, max] —
     exact for the extremes, within a factor of two in between. *)
  let percentile t q =
    if t.h_count = 0 then 0
    else begin
      let q = Float.max 0. (Float.min 1. q) in
      let rank = int_of_float (q *. float_of_int (t.h_count - 1)) in
      let bucket = ref 0 in
      let seen = ref 0 in
      (try
         for i = 0 to bucket_count - 1 do
           seen := !seen + t.counts.(i);
           if !seen > rank then begin
             bucket := i;
             raise Exit
           end
         done
       with Exit -> ());
      let upper = if !bucket = 0 then 0 else (1 lsl !bucket) - 1 in
      Stdlib.max t.h_min (Stdlib.min upper t.h_max)
    end

  let buckets t =
    let out = ref [] in
    for i = bucket_count - 1 downto 0 do
      if t.counts.(i) > 0 then begin
        let lo = if i = 0 then min_int else 1 lsl (i - 1) in
        let hi = if i = 0 then 0 else (1 lsl i) - 1 in
        out := (lo, hi, t.counts.(i)) :: !out
      end
    done;
    !out
end

type series = {
  mutable s_count : int;
  mutable s_sum : float;
  mutable s_min : float;
  mutable s_max : float;
  mutable samples : float array; (* reservoir, grows to [reservoir_cap] *)
  mutable sample_count : int; (* live entries in [samples] *)
}

type t = {
  label : string;
  counts : (string, int ref) Hashtbl.t;
  series_table : (string, series) Hashtbl.t;
  hist_table : (string, Hist.t) Hashtbl.t;
  reservoir_rng : Rng.t;
}

type summary = {
  count : int;
  sum : float;
  min : float;
  max : float;
  mean : float;
}

let reservoir_cap = 65_536

let create ?seed label =
  {
    label;
    counts = Hashtbl.create 16;
    series_table = Hashtbl.create 16;
    hist_table = Hashtbl.create 16;
    reservoir_rng = Rng.create ?seed ();
  }

let counter t key =
  match Hashtbl.find_opt t.counts key with
  | Some cell -> cell
  | None ->
    let cell = ref 0 in
    Hashtbl.add t.counts key cell;
    cell

let incr t key = Stdlib.incr (counter t key)

let add t key n =
  let cell = counter t key in
  cell := !cell + n

let count t key = match Hashtbl.find_opt t.counts key with Some c -> !c | None -> 0

let series t key =
  match Hashtbl.find_opt t.series_table key with
  | Some s -> s
  | None ->
    let s =
      {
        s_count = 0;
        s_sum = 0.;
        s_min = infinity;
        s_max = neg_infinity;
        samples = Array.make 64 0.;
        sample_count = 0;
      }
    in
    Hashtbl.add t.series_table key s;
    s

let observe t key v =
  let s = series t key in
  s.s_count <- s.s_count + 1;
  s.s_sum <- s.s_sum +. v;
  if v < s.s_min then s.s_min <- v;
  if v > s.s_max then s.s_max <- v;
  if s.sample_count < reservoir_cap then begin
    if s.sample_count = Array.length s.samples then begin
      let bigger = Array.make (min reservoir_cap (2 * Array.length s.samples)) 0. in
      Array.blit s.samples 0 bigger 0 s.sample_count;
      s.samples <- bigger
    end;
    s.samples.(s.sample_count) <- v;
    s.sample_count <- s.sample_count + 1
  end
  else begin
    (* reservoir sampling: replace a random slot with probability cap/n *)
    let slot = Rng.next t.reservoir_rng s.s_count in
    if slot < reservoir_cap then s.samples.(slot) <- v
  end

let summary t key =
  match Hashtbl.find_opt t.series_table key with
  | None -> { count = 0; sum = 0.; min = 0.; max = 0.; mean = 0. }
  | Some { s_count = 0; _ } -> { count = 0; sum = 0.; min = 0.; max = 0.; mean = 0. }
  | Some s ->
    {
      count = s.s_count;
      sum = s.s_sum;
      min = s.s_min;
      max = s.s_max;
      mean = s.s_sum /. float_of_int s.s_count;
    }

let percentile t key q =
  match Hashtbl.find_opt t.series_table key with
  | None -> 0.
  | Some s when s.sample_count = 0 -> 0.
  | Some s ->
    let sorted = Array.sub s.samples 0 s.sample_count in
    Array.sort Float.compare sorted;
    let q = Float.max 0. (Float.min 1. q) in
    let rank = int_of_float (q *. float_of_int (s.sample_count - 1)) in
    sorted.(rank)

let hist t key =
  match Hashtbl.find_opt t.hist_table key with
  | Some h -> h
  | None ->
    let h = Hist.create () in
    Hashtbl.add t.hist_table key h;
    h

let record t key v = Hist.record (hist t key) v

let hists t =
  Hashtbl.fold (fun key h acc -> (key, h) :: acc) t.hist_table []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let reset t =
  Hashtbl.reset t.counts;
  Hashtbl.reset t.series_table;
  Hashtbl.reset t.hist_table

let counters t =
  Hashtbl.fold (fun key cell acc -> (key, !cell) :: acc) t.counts []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
