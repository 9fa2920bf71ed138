(* Tests for the simulation substrate: Clock, Prng, Stats. *)

open Helpers
module Clock = Amoeba_sim.Clock
module Prng = Amoeba_sim.Prng
module Stats = Amoeba_sim.Stats
module Codec = Amoeba_sim.Codec
module Lru = Amoeba_sim.Lru

let test_clock_starts_at_zero () =
  let clock = Clock.create () in
  check_int "fresh clock" 0 (Clock.now clock)

let test_clock_advance () =
  let clock = Clock.create () in
  Clock.advance clock 100;
  Clock.advance clock 50;
  check_int "accumulates" 150 (Clock.now clock)

let test_clock_advance_negative_rejected () =
  let clock = Clock.create () in
  Alcotest.check_raises "negative" (Invalid_argument "Clock.advance: negative duration") (fun () ->
      Clock.advance clock (-1))

let test_clock_advance_to () =
  let clock = Clock.create () in
  Clock.advance clock 100;
  Clock.advance_to clock 80;
  check_int "never moves back" 100 (Clock.now clock);
  Clock.advance_to clock 120;
  check_int "moves forward" 120 (Clock.now clock)

let test_clock_reset () =
  let clock = Clock.create () in
  Clock.advance clock 42;
  Clock.reset clock;
  check_int "reset" 0 (Clock.now clock)

let test_clock_parallel_takes_max () =
  let clock = Clock.create () in
  Clock.advance clock 10;
  let results =
    Clock.parallel clock
      [ (fun () -> Clock.advance clock 100; `A); (fun () -> Clock.advance clock 300; `B) ]
  in
  check_int "max of branches" 310 (Clock.now clock);
  check_bool "results in order" true (results = [ `A; `B ])

let test_clock_parallel_empty () =
  let clock = Clock.create () in
  Clock.advance clock 5;
  let results = Clock.parallel clock [] in
  check_bool "no thunks" true (results = []);
  check_int "time unchanged" 5 (Clock.now clock)

let test_clock_unobserved () =
  let clock = Clock.create () in
  Clock.advance clock 7;
  let v = Clock.unobserved clock (fun () -> Clock.advance clock 1000; 99) in
  check_int "result" 99 v;
  check_int "time restored" 7 (Clock.now clock)

let test_clock_unobserved_restores_on_raise () =
  let clock = Clock.create () in
  (try Clock.unobserved clock (fun () -> Clock.advance clock 1000; failwith "boom")
   with Stdlib.Failure _ -> ());
  check_int "time restored" 0 (Clock.now clock)

let test_clock_elapsed () =
  let clock = Clock.create () in
  Clock.advance clock 3;
  let v, dt = Clock.elapsed clock (fun () -> Clock.advance clock 500; "x") in
  check_string "value" "x" v;
  check_int "elapsed" 500 dt

let test_clock_to_ms () =
  Alcotest.(check (float 0.0001)) "us to ms" 12.345 (Clock.to_ms 12_345)

let test_prng_deterministic () =
  let a = Prng.create ~seed:42L and b = Prng.create ~seed:42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next_int64 a) (Prng.next_int64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create ~seed:1L and b = Prng.create ~seed:2L in
  check_bool "different seeds differ" false (Prng.next_int64 a = Prng.next_int64 b)

let test_prng_split_independent () =
  (* Advancing the parent after the split must not change the child's
     stream. *)
  let rec take g n = if n = 0 then [] else let v = Prng.next_int64 g in v :: take g (n - 1) in
  let a = Prng.create ~seed:7L in
  let b = Prng.split a in
  let undisturbed = take b 3 in
  let a' = Prng.create ~seed:7L in
  let b' = Prng.split a' in
  let (_ : int64 list) = take a' 5 in
  check_bool "split stream unaffected" true (undisturbed = take b' 3)

let test_prng_int_zero_bound_rejected () =
  let p = Prng.create ~seed:1L in
  Alcotest.check_raises "bound 0" (Invalid_argument "Prng.int: bound must be positive") (fun () ->
      ignore (Prng.int p 0))

let test_prng_bytes_length () =
  let p = Prng.create ~seed:9L in
  check_int "bytes length" 33 (Bytes.length (Prng.bytes p 33))

let prop_int_in_bounds =
  qtest "Prng.int stays in [0, bound)" QCheck.(pair int64 (int_range 1 10_000)) (fun (seed, bound) ->
      let p = Prng.create ~seed in
      let v = Prng.int p bound in
      v >= 0 && v < bound)

let prop_int_in_range =
  qtest "Prng.int_in stays in [lo, hi]"
    QCheck.(triple int64 (int_range (-500) 500) (int_range 0 1000))
    (fun (seed, lo, span) ->
      let p = Prng.create ~seed in
      let v = Prng.int_in p lo (lo + span) in
      v >= lo && v <= lo + span)

let prop_float_in_bounds =
  qtest "Prng.float stays in [0, bound)" QCheck.(pair int64 (float_range 0.001 1e6))
    (fun (seed, bound) ->
      let p = Prng.create ~seed in
      let v = Prng.float p bound in
      v >= 0. && v < bound)

(* ---- Codec ---- *)

(* The signed Int32 load must be masked back to [0, 2^32): values with
   bit 31 set are where a missing mask shows. *)
let prop_u32_roundtrip =
  qtest "codec u32 round-trips over [0, 2^32)" ~count:1000
    QCheck.(map (fun v -> v land 0xFFFF_FFFF) int)
    (fun v ->
      let b = Bytes.make 6 '\000' in
      Codec.set_u32 b 1 v;
      let buf = Buffer.create 4 in
      Codec.add_u32 buf v;
      Codec.get_u32 b 1 = v && Bytes.sub b 1 4 = Buffer.to_bytes buf)

let prop_u48_roundtrip =
  qtest "codec u48 round-trips over [0, 2^48)" ~count:1000
    QCheck.(map (fun v -> Int64.logand v 0xFFFF_FFFF_FFFFL) int64)
    (fun v ->
      let b = Bytes.make 8 '\000' in
      Codec.set_u48 b 1 v;
      Int64.equal (Codec.get_u48 b 1) v)

(* From every position of buffers up to 10 bytes long, each read either
   fits or raises [Truncated]; none raises [Invalid_argument]. *)
let test_reader_truncated () =
  let module R = Codec.Reader in
  let reads =
    [
      ("u8", 1, fun r -> ignore (R.u8 r : int));
      ("u16", 2, fun r -> ignore (R.u16 r : int));
      ("u32", 4, fun r -> ignore (R.u32 r : int));
      ("i64", 8, fun r -> ignore (R.i64 r : int64));
      ("string 3", 3, fun r -> ignore (R.string r 3 : string));
      ("take 5", 5, fun r -> ignore (R.take r 5 : int));
    ]
  in
  for len = 0 to 10 do
    for pos = 0 to len do
      List.iter
        (fun (name, width, read) ->
          let r = R.of_bytes (Bytes.make len 'x') in
          ignore (R.take r pos : int);
          match read r with
          | () ->
            if len - pos < width then
              Alcotest.failf "%s at %d of %d read past the end" name pos len;
            check_bool "at end" (len - pos = width) (R.at_end r)
          | exception Codec.Truncated ->
            if len - pos >= width then
              Alcotest.failf "%s at %d of %d: spurious Truncated" name pos len)
        reads
    done
  done;
  Alcotest.check_raises "negative take" Codec.Truncated (fun () ->
      ignore (R.take (R.of_bytes (Bytes.make 4 'x')) (-1) : int))

let test_stats_counters () =
  let s = Stats.create "test" in
  Stats.incr s "a";
  Stats.incr s "a";
  Stats.add s "b" 5;
  check_int "a" 2 (Stats.count s "a");
  check_int "b" 5 (Stats.count s "b");
  check_int "missing" 0 (Stats.count s "zzz")

let test_stats_counters_sorted () =
  let s = Stats.create "test" in
  Stats.incr s "zeta";
  Stats.incr s "alpha";
  check_bool "sorted" true (List.map fst (Stats.counters s) = [ "alpha"; "zeta" ])

let test_stats_summary () =
  let s = Stats.create "test" in
  Stats.observe s "lat" 1.0;
  Stats.observe s "lat" 3.0;
  Stats.observe s "lat" 2.0;
  let sum = Stats.summary s "lat" in
  check_int "count" 3 sum.Stats.count;
  Alcotest.(check (float 1e-9)) "mean" 2.0 sum.Stats.mean;
  Alcotest.(check (float 1e-9)) "min" 1.0 sum.Stats.min;
  Alcotest.(check (float 1e-9)) "max" 3.0 sum.Stats.max

let test_stats_empty_summary () =
  let s = Stats.create "test" in
  let sum = Stats.summary s "never" in
  check_int "count" 0 sum.Stats.count;
  Alcotest.(check (float 1e-9)) "mean" 0.0 sum.Stats.mean

(* The per-site seeds minted from names must never move between compiler
   versions (the Hashtbl.hash bug class): pin the FNV-1a values. *)
let test_seed_of_string_pinned () =
  let check_seed name expected =
    Alcotest.(check int64) name expected (Prng.seed_of_string name)
  in
  check_seed "" 0xCBF29CE484222325L (* the FNV offset basis *);
  check_seed "home" 0x402D1BCC7E6F9D6EL;
  check_seed "paris" 0xBF595A7A1AAEC80L;
  check_seed "tokyo" 0x2680B27D5079F639L

let test_of_name_matches_seed () =
  let a = Prng.of_name "home" and b = Prng.create ~seed:(Prng.seed_of_string "home") in
  for _ = 1 to 16 do
    Alcotest.(check int64) "same stream" (Prng.next_int64 b) (Prng.next_int64 a)
  done

let test_stats_reset () =
  let s = Stats.create "test" in
  Stats.incr s "a";
  Stats.observe s "x" 1.0;
  Stats.reset s;
  check_int "counter gone" 0 (Stats.count s "a");
  check_int "series gone" 0 (Stats.summary s "x").Stats.count

(* Reservoir replacement is driven by a private xorshift; with the same
   seed, two collections fed the same over-capacity series must retain
   the same samples and so report the same percentiles. *)
let test_stats_seed_determinism () =
  let feed seed =
    let s = Stats.create ~seed "test" in
    for i = 1 to 80_000 do
      Stats.observe s "lat" (float_of_int ((i * 2_654_435_761) land 0xFFFFF))
    done;
    s
  in
  let a = feed 42 and b = feed 42 in
  List.iter
    (fun q ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "q=%.2f" q)
        (Stats.percentile a "lat" q) (Stats.percentile b "lat" q))
    [ 0.0; 0.5; 0.95; 0.99; 1.0 ];
  (* and a different seed is allowed to retain a different reservoir *)
  let c = feed 7 in
  check_bool "different seed may differ" true
    (List.exists
       (fun q -> Stats.percentile a "lat" q <> Stats.percentile c "lat" q)
       [ 0.5; 0.95; 0.99 ])

let test_percentile_edges () =
  let s = Stats.create "test" in
  Alcotest.(check (float 1e-9)) "empty" 0.0 (Stats.percentile s "lat" 0.5);
  Stats.observe s "lat" 7.0;
  Alcotest.(check (float 1e-9)) "single q=0" 7.0 (Stats.percentile s "lat" 0.0);
  Alcotest.(check (float 1e-9)) "single q=1" 7.0 (Stats.percentile s "lat" 1.0);
  List.iter (fun v -> Stats.observe s "lat" v) [ 1.0; 2.0; 3.0; 4.0 ];
  Alcotest.(check (float 1e-9)) "q=0 is the min" 1.0 (Stats.percentile s "lat" 0.0);
  Alcotest.(check (float 1e-9)) "q=1 is the max" 7.0 (Stats.percentile s "lat" 1.0)

(* ---- the log2 histogram behind the latency columns ---- *)

let test_hist_basics () =
  let h = Stats.Hist.create () in
  check_int "empty count" 0 (Stats.Hist.count h);
  check_int "empty percentile" 0 (Stats.Hist.percentile h 0.5);
  List.iter (fun v -> Stats.Hist.record h v) [ 3; 5; 100; 1000; 0 ];
  check_int "count" 5 (Stats.Hist.count h);
  check_int "sum" 1108 (Stats.Hist.sum h);
  check_int "min" 0 (Stats.Hist.min_value h);
  check_int "max" 1000 (Stats.Hist.max_value h);
  Alcotest.(check (float 1e-9)) "mean" 221.6 (Stats.Hist.mean h);
  check_int "q=0 exact min" 0 (Stats.Hist.percentile h 0.0);
  check_int "q=1 exact max" 1000 (Stats.Hist.percentile h 1.0);
  (* mid-quantiles land on a bucket upper bound: the true median 5 sits
     in [4, 8), so the reported p50 is 7 — within 2x of the truth *)
  check_int "p50 is its bucket's upper bound" 7 (Stats.Hist.percentile h 0.5)

let test_hist_merge_exact () =
  let all = Stats.Hist.create () in
  let parts = [ Stats.Hist.create (); Stats.Hist.create () ] in
  for i = 1 to 1_000 do
    let v = (i * 37) land 0xFFFF in
    Stats.Hist.record all v;
    Stats.Hist.record (List.nth parts (i land 1)) v
  done;
  let merged = Stats.Hist.create () in
  List.iter (fun p -> Stats.Hist.merge ~into:merged p) parts;
  check_int "count" (Stats.Hist.count all) (Stats.Hist.count merged);
  check_int "sum" (Stats.Hist.sum all) (Stats.Hist.sum merged);
  check_int "min" (Stats.Hist.min_value all) (Stats.Hist.min_value merged);
  check_int "max" (Stats.Hist.max_value all) (Stats.Hist.max_value merged);
  check_bool "buckets identical" true (Stats.Hist.buckets all = Stats.Hist.buckets merged);
  List.iter
    (fun q ->
      check_int
        (Printf.sprintf "q=%.2f" q)
        (Stats.Hist.percentile all q) (Stats.Hist.percentile merged q))
    [ 0.0; 0.5; 0.95; 0.99; 1.0 ]

let test_hist_via_stats () =
  let s = Stats.create "test" in
  Stats.record s "trans_us" 10;
  Stats.record s "trans_us" 20;
  let h = Stats.hist s "trans_us" in
  check_int "shared handle" 2 (Stats.Hist.count h);
  check_bool "listed" true (List.map fst (Stats.hists s) = [ "trans_us" ]);
  Stats.reset s;
  check_int "reset clears" 0 (Stats.Hist.count (Stats.hist s "trans_us"))

(* ---- event queue ---- *)

module Eq = Amoeba_sim.Event_queue

let test_eq_orders_by_time () =
  let q = Eq.create () in
  Eq.push q ~time:30 "c";
  Eq.push q ~time:10 "a";
  Eq.push q ~time:20 "b";
  let pops = List.init 3 (fun _ -> Eq.pop q) in
  check_bool "time order" true
    (pops = [ Some (10, "a"); Some (20, "b"); Some (30, "c") ]);
  check_bool "drained" true (Eq.pop q = None)

let test_eq_ties_fifo () =
  let q = Eq.create () in
  Eq.push q ~time:5 "first";
  Eq.push q ~time:5 "second";
  Eq.push q ~time:5 "third";
  check_bool "insertion order on ties" true
    (List.init 3 (fun _ -> Option.map snd (Eq.pop q)) = [ Some "first"; Some "second"; Some "third" ]);
  (* this test exercises the unpinned fallback on purpose; keep its ties
     out of the end-of-run tie-check suite *)
  Eq.clear_ties ()

let test_eq_interleaved_push_pop () =
  let q = Eq.create () in
  Eq.push q ~time:10 1;
  Eq.push q ~time:5 2;
  check_bool "pop min" true (Eq.pop q = Some (5, 2));
  Eq.push q ~time:1 3;
  check_bool "new min" true (Eq.pop q = Some (1, 3));
  check_bool "rest" true (Eq.pop q = Some (10, 1))

let test_eq_grows () =
  let q = Eq.create () in
  for i = 999 downto 0 do
    Eq.push q ~time:i i
  done;
  check_int "size" 1000 (Eq.size q);
  let sorted = ref true in
  let last = ref (-1) in
  for _ = 1 to 1000 do
    match Eq.pop q with
    | Some (t, _) ->
      if t < !last then sorted := false;
      last := t
    | None -> sorted := false
  done;
  check_bool "heap order over 1000 events" true !sorted

let test_eq_rejects_negative_time () =
  let q = Eq.create () in
  (try
     Eq.push q ~time:(-1) ();
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

let prop_eq_sorts =
  qtest "event queue pops any multiset sorted" QCheck.(small_list (int_range 0 10_000))
    (fun times ->
      let q = Eq.create () in
      List.iter (fun t -> Eq.push q ~time:t t) times;
      let rec drain acc = match Eq.pop q with Some (t, _) -> drain (t :: acc) | None -> List.rev acc in
      let sorted = drain [] = List.sort compare times in
      (* random multisets collide on purpose; drop the resulting ties *)
      Eq.clear_ties ();
      sorted)

(* Fuzz the heap against a sorted-list reference model.  The model keeps
   (time, seq) pairs sorted stably, so it pins not just time ordering but
   the FIFO tie-break; interleaving pushes and pops (including pops on
   empty) exercises sift-up and sift-down around every heap shape a
   deterministic SplitMix64 stream can reach. *)
let test_eq_fuzz_vs_reference () =
  List.iter
    (fun seed ->
      let prng = Prng.create ~seed in
      let q = Eq.create () in
      let model = ref [] in
      (* model: (time, seq, payload) sorted by (time, seq) ascending *)
      let next_seq = ref 0 in
      let insert entry =
        let time_of (t, _, _) = t and seq_of (_, s, _) = s in
        let rec go = function
          | [] -> [ entry ]
          | e :: rest ->
            if
              time_of e > time_of entry
              || (time_of e = time_of entry && seq_of e > seq_of entry)
            then entry :: e :: rest
            else e :: go rest
        in
        model := go !model
      in
      for step = 0 to 1_999 do
        if Prng.int prng 3 < 2 then begin
          (* push twice as often as pop so the heap grows *)
          let time = Prng.int prng 100 in
          Eq.push q ~time step;
          insert (time, !next_seq, step);
          incr next_seq
        end
        else begin
          let expected =
            match !model with
            | [] -> None
            | (t, _, payload) :: rest ->
              model := rest;
              Some (t, payload)
          in
          let got = Eq.pop q in
          if got <> expected then
            Alcotest.failf "seed %Ld step %d: heap disagrees with reference model" seed step
        end;
        if Eq.size q <> List.length !model then
          Alcotest.failf "seed %Ld step %d: size %d, model %d" seed step (Eq.size q)
            (List.length !model)
      done;
      (* drain both and compare the tail, then pop-on-empty *)
      List.iter
        (fun (t, _, payload) ->
          if Eq.pop q <> Some (t, payload) then
            Alcotest.failf "seed %Ld: drain order diverged" seed)
        !model;
      check_bool "pop on empty" true (Eq.pop q = None);
      check_bool "empty after drain" true (Eq.is_empty q))
    [ 1L; 0xDEADBEEFL; 42L; 0x5EEDL ];
  (* the fuzz deliberately floods same-time unpinned pushes *)
  Eq.clear_ties ()

(* ---- Lru ---- *)

(* Random add/touch/remove against a model that stamps each slot with a
   fresh age: after every step [oldest] must be the minimum-age slot. *)
let run_lru_model seed =
  let prng = Prng.create ~seed in
  let lru = Lru.create 4 in
  (* slot -> (value, age) *)
  let model = Hashtbl.create 16 in
  let tick = ref 0 in
  let age () =
    incr tick;
    !tick
  in
  let min_age () =
    Hashtbl.fold
      (fun slot (_, a) best ->
        match best with Some (_, b) when b <= a -> best | _ -> Some (slot, a))
      model None
  in
  let pick () =
    match List.sort Int.compare (Hashtbl.fold (fun slot _ acc -> slot :: acc) model []) with
    | [] -> None
    | slots -> Some (List.nth slots (Prng.int prng (List.length slots)))
  in
  let peak = ref 0 in
  for step = 1 to 400 do
    (match Prng.int prng 4 with
    | 0 | 1 ->
      let slot = Lru.add lru step in
      if Hashtbl.mem model slot then Alcotest.failf "seed %Ld: slot %d handed out twice" seed slot;
      Hashtbl.replace model slot (step, age ())
    | 2 ->
      Option.iter
        (fun slot ->
          Lru.touch lru slot;
          let v, _ = Hashtbl.find model slot in
          Hashtbl.replace model slot (v, age ()))
        (pick ())
    | _ ->
      Option.iter
        (fun slot ->
          Lru.remove lru slot;
          Hashtbl.remove model slot)
        (pick ()));
    peak := max !peak (Lru.length lru);
    check_int "length" (Hashtbl.length model) (Lru.length lru);
    let expected = match min_age () with None -> 0 | Some (slot, _) -> slot in
    if Lru.oldest lru <> expected then
      Alcotest.failf "seed %Ld step %d: oldest %d, oracle says %d" seed step (Lru.oldest lru)
        expected
  done;
  check_bool "grew past its initial size" true (!peak > 4);
  Hashtbl.iter (fun slot (v, _) -> check_int "value" v (Lru.get lru slot)) model;
  let by_age =
    List.sort
      (fun (_, a) (_, b) -> Int.compare a b)
      (Hashtbl.fold (fun _ (v, a) acc -> (v, a) :: acc) model [])
  in
  let visited = ref [] in
  Lru.iter (fun v -> visited := v :: !visited) lru;
  Alcotest.(check (list int)) "iter runs oldest first" (List.map fst by_age) (List.rev !visited)

let test_lru_matches_min_age_oracle () =
  for seed = 1 to 20 do
    run_lru_model (Int64.of_int seed)
  done

let test_lru_slot_reuse () =
  let lru = Lru.create 2 in
  let a = Lru.add lru "a" in
  let b = Lru.add lru "b" in
  let c = Lru.add lru "c" in
  Alcotest.(check (list int)) "fresh slots count up, past the initial size" [ 1; 2; 3 ] [ a; b; c ];
  Lru.remove lru b;
  Lru.remove lru a;
  check_int "last freed is reused first" a (Lru.add lru "d");
  check_int "then the one freed before it" b (Lru.add lru "e");
  check_int "then a fresh slot" 4 (Lru.add lru "f");
  check_string "values follow their slots" "d" (Lru.get lru a)

let test_lru_rejects_free_slots () =
  let lru = Lru.create 2 in
  check_int "empty has no oldest" 0 (Lru.oldest lru);
  let s = Lru.add lru () in
  Lru.remove lru s;
  let rejects name f slot =
    match f lru slot with
    | () -> Alcotest.failf "%s of slot %d accepted" name slot
    | exception Invalid_argument _ -> ()
  in
  List.iter
    (fun slot ->
      rejects "get" Lru.get slot;
      rejects "touch" Lru.touch slot;
      rejects "remove" Lru.remove slot)
    [ -1; 0; s; 2; 3 ]

let suite =
  ( "sim",
    [
      Alcotest.test_case "clock starts at zero" `Quick test_clock_starts_at_zero;
      Alcotest.test_case "clock advance accumulates" `Quick test_clock_advance;
      Alcotest.test_case "clock rejects negative advance" `Quick test_clock_advance_negative_rejected;
      Alcotest.test_case "clock advance_to is monotone" `Quick test_clock_advance_to;
      Alcotest.test_case "clock reset" `Quick test_clock_reset;
      Alcotest.test_case "clock parallel takes max" `Quick test_clock_parallel_takes_max;
      Alcotest.test_case "clock parallel of nothing" `Quick test_clock_parallel_empty;
      Alcotest.test_case "clock unobserved restores time" `Quick test_clock_unobserved;
      Alcotest.test_case "clock unobserved restores on raise" `Quick
        test_clock_unobserved_restores_on_raise;
      Alcotest.test_case "clock elapsed measures" `Quick test_clock_elapsed;
      Alcotest.test_case "clock to_ms" `Quick test_clock_to_ms;
      Alcotest.test_case "prng deterministic per seed" `Quick test_prng_deterministic;
      Alcotest.test_case "prng seed sensitivity" `Quick test_prng_seed_sensitivity;
      Alcotest.test_case "prng split independence" `Quick test_prng_split_independent;
      Alcotest.test_case "prng rejects zero bound" `Quick test_prng_int_zero_bound_rejected;
      Alcotest.test_case "prng bytes length" `Quick test_prng_bytes_length;
      Alcotest.test_case "prng seed_of_string pinned (FNV-1a)" `Quick test_seed_of_string_pinned;
      Alcotest.test_case "prng of_name matches seed_of_string" `Quick test_of_name_matches_seed;
      prop_int_in_bounds;
      prop_int_in_range;
      prop_float_in_bounds;
      prop_u32_roundtrip;
      prop_u48_roundtrip;
      Alcotest.test_case "codec reader fails only with Truncated" `Quick test_reader_truncated;
      Alcotest.test_case "stats counters" `Quick test_stats_counters;
      Alcotest.test_case "stats counters sorted" `Quick test_stats_counters_sorted;
      Alcotest.test_case "stats summary" `Quick test_stats_summary;
      Alcotest.test_case "stats empty summary" `Quick test_stats_empty_summary;
      Alcotest.test_case "stats reset" `Quick test_stats_reset;
      Alcotest.test_case "stats reservoir seed determinism" `Quick test_stats_seed_determinism;
      Alcotest.test_case "stats percentile edges" `Quick test_percentile_edges;
      Alcotest.test_case "hist record and percentile bounds" `Quick test_hist_basics;
      Alcotest.test_case "hist merge is exact" `Quick test_hist_merge_exact;
      Alcotest.test_case "hist via stats table" `Quick test_hist_via_stats;
      Alcotest.test_case "event queue orders by time" `Quick test_eq_orders_by_time;
      Alcotest.test_case "event queue ties are FIFO" `Quick test_eq_ties_fifo;
      Alcotest.test_case "event queue interleaved ops" `Quick test_eq_interleaved_push_pop;
      Alcotest.test_case "event queue grows" `Quick test_eq_grows;
      Alcotest.test_case "event queue rejects negative time" `Quick test_eq_rejects_negative_time;
      prop_eq_sorts;
      Alcotest.test_case "event queue fuzz vs reference model" `Quick test_eq_fuzz_vs_reference;
      Alcotest.test_case "lru oldest matches the min-age oracle" `Quick
        test_lru_matches_min_age_oracle;
      Alcotest.test_case "lru hands out slots in order, reuses LIFO" `Quick test_lru_slot_reuse;
      Alcotest.test_case "lru rejects free and out-of-range slots" `Quick
        test_lru_rejects_free_slots;
    ] )
