(* Seeded workload generation. The seed is the only input: it fixes every
   file size, every file's bytes and every operation of both client
   streams, so one seed replays the identical request sequence on either
   carrier. *)

module Prng = Amoeba_sim.Prng
module Trace = Workload.Trace

type op =
  | Read of int  (** SIZE + READ of one slot, the paper's read protocol *)
  | Churn of { slot : int; size : int }
      (** CREATE (P-FACTOR 2) a fresh file for the slot, then DELETE the
          file it replaces *)
  | Bsd of Trace.op  (** one trace op, interpreted through the root directory *)

type stream = {
  init : int array;  (** sizes of the files created during set-up, in slot order *)
  ops : op array;
}

type t = {
  workload : string;
  cache_mb : int;  (** the server's RAM cache *)
  streams : stream array;  (** one per client connection *)
  pool : bytes;  (** file contents are slices of this seeded buffer *)
}

let workloads = [ "read-fits"; "read-thrash"; "create-delete"; "bsd-trace" ]

let connections = 2

(* Both carriers run on mirrored 16 MB drives. Every workload fits, and
   bulletd saves both whole images every 16 request frames: with its
   default 64 MB drives a save writes 128 MB, the TCP pass completes a
   quarter of the ops, and its tail percentile rests on too few. *)
let drive_mb = 16

(* Operations per client stream; the TCP pass stops early when its time
   is up, the in-process pass always replays all of them. The trace gets
   four times as many: its random mix of op kinds and victims needs them
   for its virtual-clock metrics to settle within a few percent. *)
let ops_per_stream = function "bsd-trace" -> 8192 | _ -> 2048

(* The trace's files stop at the distribution's 99th percentile: with the
   500 KB tail, reads of the two or three largest files swung the bytes
   moved per op by 25% from seed to seed. *)
let max_bsd_size = 64 * 1024

let pool_bytes = 2 * 1024 * 1024

let shuffle prng a =
  for i = Array.length a - 1 downto 1 do
    let j = Prng.int prng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

(* Inverse CDF of Workload.Sizes: log-uniform between its knots. *)
let quantile u =
  let rec go = function
    | (p0, s0) :: ((p1, s1) :: rest as tail) ->
      if u <= p1 || rest = [] then
        let frac = if p1 = p0 then 0. else (u -. p0) /. (p1 -. p0) in
        exp (log (float_of_int s0) +. (frac *. (log (float_of_int s1) -. log (float_of_int s0))))
      else go tail
    | [ _ ] | [] -> 1024.
  in
  go Workload.Sizes.quantiles

(* [n] sizes from the paper's 1984 UNIX distribution, one from the middle
   of each of [n] equal-probability strata, scaled by a seeded factor in
   [0.99, 1.01] and put in seeded order. Independent draws would let the
   handful of files in the top percentile (64 KB to 1 MB) move p99 by 2x
   from seed to seed; strata fix the size mix, so a seed changes order,
   placement and content, and sizes by at most 1%. *)
let stratified prng ?(cap = max_int) n =
  let sizes =
    Array.init n (fun i ->
        let u = (float_of_int i +. 0.5) /. float_of_int n in
        let jitter = 1. +. (0.01 *. (Prng.float prng 2. -. 1.)) in
        min cap (max 1 (int_of_float (quantile u *. jitter))))
  in
  shuffle prng sizes;
  sizes

(* Stream [c] of [connections] takes every [connections]-th element. *)
let deal c a = Array.init (Array.length a / connections) (fun i -> a.((i * connections) + c))

(* Every slot once per round, in a fresh order each round: uniformly
   chosen files, each read equally often. *)
let rounds prng ~slots ~ops =
  let order = Array.init slots Fun.id in
  Array.init ops (fun i ->
      if i mod slots = 0 then shuffle prng order;
      Read order.(i mod slots))

let read_fits prng ~ops =
  let sizes = stratified prng 256 in
  Array.init connections (fun c ->
      let init = deal c sizes in
      { init; ops = rounds prng ~slots:(Array.length init) ~ops })

let read_thrash prng ~ops =
  let files = 160 in
  let sizes = Array.init files (fun _ -> 65536 + Prng.int_in prng (-655) 655) in
  Array.init connections (fun c ->
      let init = deal c sizes in
      { init; ops = Array.init ops (fun _ -> Read (Prng.int prng (Array.length init))) })

let create_delete prng ~ops =
  let init = stratified prng 64 in
  let fresh = stratified prng (ops * connections) in
  Array.init connections (fun c ->
      let init = deal c init and fresh = deal c fresh in
      {
        init;
        ops = Array.map (fun size -> Churn { slot = Prng.int prng (Array.length init); size }) fresh;
      })

(* One stream of the BSD-like trace. Workload.Trace picks each op's kind
   and its read or update range; three things are then fixed here. Creates
   and deletes alternate, so the live set stays at its warm-up size or one
   above: left to the mix it random-walks, and with it the size of the
   root directory that every mutation rewrites, which moved the per-op
   cost by 10% from seed to seed. Victims are drawn uniformly over that
   live set. Sizes are a stratified set clamped to [max_bsd_size], in
   order. *)
let bsd_stream prng ~ops =
  let warmup = 64 in
  let kinds = Array.sub (Array.of_list (Trace.generate ~prng ~warmup_files:warmup ~ops ())) warmup ops in
  let live = ref warmup and turn = ref 0 in
  let victim () = Prng.int prng !live in
  let body =
    Array.map
      (function
        | Trace.Create _ | Trace.Delete _ ->
          incr turn;
          if !turn land 1 = 1 then begin
            incr live;
            Trace.Create { size = 0 }
          end
          else begin
            let v = victim () in
            decr live;
            Trace.Delete { victim = v }
          end
        | Trace.Read_whole _ -> Trace.Read_whole { victim = victim () }
        | Trace.Read_part r -> Trace.Read_part { r with victim = victim () }
        | Trace.Rewrite r -> Trace.Rewrite { r with victim = victim () }
        | Trace.Update u -> Trace.Update { u with victim = victim () })
      kinds
  in
  let sized n = function Trace.Create _ | Trace.Rewrite _ -> n + 1 | _ -> n in
  let sizes = stratified prng ~cap:max_bsd_size (warmup + Array.fold_left sized 0 body) in
  let next = ref warmup in
  let take () =
    let s = sizes.(!next) in
    incr next;
    s
  in
  let body =
    Array.map
      (function
        | Trace.Create _ -> Trace.Create { size = take () }
        | Trace.Rewrite { victim; _ } -> Trace.Rewrite { victim; size = take () }
        | op -> op)
      body
  in
  { init = Array.sub sizes 0 warmup; ops = Array.map (fun op -> Bsd op) body }

let bsd_trace prng ~ops = Array.init connections (fun _ -> bsd_stream prng ~ops)

let generate ?ops ~workload ~seed () =
  let ops = Option.value ops ~default:(ops_per_stream workload) in
  let prng = Prng.create ~seed:(Int64.of_int seed) in
  let pool = Prng.bytes (Prng.split prng) pool_bytes in
  let streams, cache_mb =
    match workload with
    | "read-fits" -> (read_fits prng ~ops, 12)
    | "read-thrash" -> (read_thrash prng ~ops, 4)
    | "create-delete" -> (create_delete prng ~ops, 12)
    | "bsd-trace" -> (bsd_trace prng ~ops, 12)
    | w -> invalid_arg ("unknown workload " ^ w)
  in
  { workload; cache_mb; streams; pool }

(* The bytes of file [id]: a seeded slice of the pool, stamped with the id
   so no two files share contents. *)
let content t ~id ~size =
  let data = Bytes.create size in
  let span = Bytes.length t.pool - size in
  Bytes.blit t.pool (id * 40_503 mod (span + 1)) data 0 size;
  for i = 0 to min size 8 - 1 do
    Bytes.set data i (Char.chr ((id lsr (8 * i)) land 0xff))
  done;
  data

(* File ids: stream [c]'s [k]-th created file; the durability probe's
   files sit above every stream's range. *)
let file_id ~stream k = stream + (connections * k)

let probe_id k = 1_000_000_000 + k
