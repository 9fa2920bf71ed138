(* Tests for the Bullet RAM cache (rnodes, LRU, compaction). *)

open Helpers
module Cache = Bullet_core.Cache

let make ?(capacity = 1000) ?(max_rnodes = 8) () =
  let evicted = ref [] in
  let cache =
    Cache.create ~capacity ~max_rnodes ~on_evict:(fun ~inode ~rnode:_ -> evicted := inode :: !evicted)
  in
  (cache, evicted)

let test_insert_get_roundtrip () =
  let cache, _ = make () in
  let rnode = Option.get (Cache.insert cache ~inode:1 (payload 100)) in
  check_bytes "roundtrip" (payload 100) (Cache.get cache ~rnode);
  check_int "inode" 1 (Cache.inode_of cache ~rnode);
  check_int "length" 100 (Cache.length_of cache ~rnode)

let test_rnode_indices_one_based () =
  let cache, _ = make () in
  let rnode = Option.get (Cache.insert cache ~inode:1 (payload 10)) in
  check_bool "index 0 means not-cached" true (rnode >= 1)

let test_used_accounting () =
  let cache, _ = make () in
  let r1 = Option.get (Cache.insert cache ~inode:1 (payload 100)) in
  let _r2 = Option.get (Cache.insert cache ~inode:2 (payload 200)) in
  check_int "used" 300 (Cache.used_bytes cache);
  check_int "files" 2 (Cache.resident_files cache);
  Cache.remove cache ~rnode:r1;
  check_int "after remove" 200 (Cache.used_bytes cache);
  check_int "one file" 1 (Cache.resident_files cache)

let test_lru_eviction_order () =
  let cache, evicted = make ~capacity:300 () in
  let r1 = Option.get (Cache.insert cache ~inode:1 (payload 100)) in
  let _r2 = Option.get (Cache.insert cache ~inode:2 (payload 100)) in
  let _r3 = Option.get (Cache.insert cache ~inode:3 (payload 100)) in
  (* touch inode 1 so inode 2 becomes the LRU *)
  let (_ : bytes) = Cache.get cache ~rnode:r1 in
  let _r4 = Option.get (Cache.insert cache ~inode:4 (payload 100)) in
  check_bool "inode 2 evicted first" true (!evicted = [ 2 ])

let test_eviction_frees_enough () =
  let cache, evicted = make ~capacity:300 () in
  let _ = Option.get (Cache.insert cache ~inode:1 (payload 100)) in
  let _ = Option.get (Cache.insert cache ~inode:2 (payload 100)) in
  let _ = Option.get (Cache.insert cache ~inode:3 (payload 100)) in
  (* inserting 250 bytes must evict several *)
  let r = Cache.insert cache ~inode:4 (payload 250) in
  check_bool "fits after evictions" true (r <> None);
  check_bool "multiple evictions" true (List.length !evicted >= 2)

let test_file_larger_than_capacity_rejected () =
  let cache, _ = make ~capacity:100 () in
  check_bool "too large" true (Cache.insert cache ~inode:1 (payload 101) = None);
  check_bool "exactly capacity fits" true (Cache.insert cache ~inode:2 (payload 100) <> None)

let test_rnode_exhaustion_evicts () =
  let cache, evicted = make ~capacity:10_000 ~max_rnodes:2 () in
  let _ = Option.get (Cache.insert cache ~inode:1 (payload 10)) in
  let _ = Option.get (Cache.insert cache ~inode:2 (payload 10)) in
  let _ = Option.get (Cache.insert cache ~inode:3 (payload 10)) in
  check_int "rnode pressure evicts LRU" 1 (List.length !evicted);
  check_int "still two resident" 2 (Cache.resident_files cache)

let test_zero_length_file () =
  let cache, _ = make () in
  let rnode = Option.get (Cache.insert cache ~inode:1 (Bytes.create 0)) in
  check_int "empty" 0 (Bytes.length (Cache.get cache ~rnode));
  check_int "no memory used" 0 (Cache.used_bytes cache)

let test_get_of_free_rnode_rejected () =
  let cache, _ = make () in
  (try
     ignore (Cache.get cache ~rnode:1);
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

let test_sub_range () =
  let cache, _ = make () in
  let rnode = Option.get (Cache.insert cache ~inode:1 (Bytes.of_string "hello world")) in
  check_string "slice" "world" (Bytes.to_string (Cache.sub cache ~rnode ~pos:6 ~len:5))

let test_sub_out_of_range () =
  let cache, _ = make () in
  let rnode = Option.get (Cache.insert cache ~inode:1 (payload 10)) in
  (try
     ignore (Cache.sub cache ~rnode ~pos:5 ~len:10);
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

let test_reserve_and_fill () =
  let cache, _ = make () in
  let _r1 = Option.get (Cache.insert cache ~inode:1 (payload 7)) in
  let rnode = Option.get (Cache.reserve cache ~inode:2 11) in
  Cache.fill cache ~rnode (fun buf off len ->
      check_int "extent length" 11 len;
      Bytes.blit_string "hello" 0 buf off 5;
      Bytes.blit_string " world" 0 buf (off + 5) 6);
  check_string "assembled" "hello world" (Bytes.to_string (Cache.get cache ~rnode));
  check_bytes "neighbour intact" (payload 7) (Cache.get cache ~rnode:_r1)

let test_compaction_preserves_contents () =
  let cache, _ = make ~capacity:500 () in
  let r1 = Option.get (Cache.insert cache ~inode:1 (payload 100)) in
  let r2 = Option.get (Cache.insert cache ~inode:2 (payload 100)) in
  let r3 = Option.get (Cache.insert cache ~inode:3 (payload 100)) in
  Cache.remove cache ~rnode:r2;
  let moved = Cache.compact cache in
  check_bool "something moved" true (moved > 0);
  check_bytes "r1 intact" (payload 100) (Cache.get cache ~rnode:r1);
  check_bytes "r3 intact" (payload 100) (Cache.get cache ~rnode:r3);
  (* after compaction a 300-byte file fits (2 holes of 150 would not) *)
  check_bool "hole consolidated" true (Cache.insert cache ~inode:4 (payload 300) <> None)

let test_compaction_of_empty_cache () =
  let cache, _ = make () in
  check_int "nothing to move" 0 (Cache.compact cache)

let test_touch_protects_from_eviction () =
  let cache, evicted = make ~capacity:200 () in
  let r1 = Option.get (Cache.insert cache ~inode:1 (payload 100)) in
  let _r2 = Option.get (Cache.insert cache ~inode:2 (payload 100)) in
  Cache.touch cache ~rnode:r1;
  let _r3 = Option.get (Cache.insert cache ~inode:3 (payload 100)) in
  check_bool "touched survives" true (!evicted = [ 2 ])

(* Model-based: random insert/remove/get against a reference map. *)
let prop_model =
  qtest "cache behaves like a map with eviction" ~count:200 QCheck.(pair int64 (small_list (int_range 0 60)))
    (fun (seed, sizes) ->
      ignore seed;
      let evicted = ref [] in
      let cache =
        Cache.create ~capacity:200 ~max_rnodes:8 ~on_evict:(fun ~inode ~rnode:_ ->
            evicted := inode :: !evicted)
      in
      let model = Hashtbl.create 16 in
      (* inode -> (rnode, contents) *)
      let ok = ref true in
      let next_inode = ref 0 in
      let step size =
        incr next_inode;
        let inode = !next_inode in
        let data = Bytes.init size (fun i -> Char.chr ((i + inode) land 0xff)) in
        (match Cache.insert cache ~inode data with
        | Some rnode -> Hashtbl.replace model inode (rnode, data)
        | None -> if size <= 200 then ok := false);
        (* evictions remove from the model *)
        List.iter (Hashtbl.remove model) !evicted;
        evicted := [];
        (* verify every modelled file still reads back *)
        Hashtbl.iter
          (fun _inode (rnode, data) -> if not (Bytes.equal (Cache.get cache ~rnode) data) then ok := false)
          model
      in
      List.iter step sizes;
      !ok)

(* Seeded model: random operation sequences, with every eviction checked
   against the min-age scan over the rnode table that the cache used to
   run, kept here as the oracle. *)
module Prng = Amoeba_sim.Prng

let run_lru_model seed =
  let capacity = 600 and max_rnodes = 6 in
  let prng = Prng.create ~seed in
  (* rnode -> (inode, age, contents) *)
  let model = Hashtbl.create 16 in
  let tick = ref 0 in
  let age () =
    incr tick;
    !tick
  in
  let oldest () =
    Hashtbl.fold
      (fun rnode (_, a, _) best ->
        match best with Some (_, b) when b <= a -> best | _ -> Some (rnode, a))
      model None
  in
  let on_evict ~inode ~rnode =
    match oldest () with
    | Some (expected, _) when expected = rnode ->
      let model_inode, _, _ = Hashtbl.find model rnode in
      check_int "evicted inode" model_inode inode;
      Hashtbl.remove model rnode
    | Some (expected, _) -> Alcotest.failf "seed %Ld: evicted rnode %d, oracle says %d" seed rnode expected
    | None -> Alcotest.failf "seed %Ld: eviction from an empty model" seed
  in
  let cache = Cache.create ~capacity ~max_rnodes ~on_evict in
  let next_inode = ref 0 in
  let resident () = List.sort Int.compare (Hashtbl.fold (fun r _ acc -> r :: acc) model []) in
  let pick () =
    match resident () with [] -> None | rs -> Some (List.nth rs (Prng.int prng (List.length rs)))
  in
  let refresh rnode =
    let inode, _, data = Hashtbl.find model rnode in
    Hashtbl.replace model rnode (inode, age (), data)
  in
  let add size place =
    incr next_inode;
    let data = Prng.bytes prng size in
    match place !next_inode data with
    | Some rnode -> Hashtbl.replace model rnode (!next_inode, age (), data)
    | None -> if size <= capacity then Alcotest.failf "seed %Ld: %d bytes did not fit" seed size
  in
  for _ = 1 to 300 do
    match Prng.int prng 7 with
    | 0 -> add (Prng.int prng 250) (fun inode data -> Cache.insert cache ~inode data)
    | 1 ->
      add (Prng.int prng 250) (fun inode data ->
          let r = Cache.reserve cache ~inode (Bytes.length data) in
          Option.iter
            (fun rnode ->
              Cache.fill cache ~rnode (fun buf off len -> Bytes.blit data 0 buf off len))
            r;
          r)
    | 2 ->
      Option.iter
        (fun rnode ->
          let _, _, data = Hashtbl.find model rnode in
          refresh rnode;
          check_bytes "get" data (Cache.get cache ~rnode))
        (pick ())
    | 3 ->
      Option.iter
        (fun rnode ->
          let _, _, data = Hashtbl.find model rnode in
          let n = Bytes.length data in
          let pos = Prng.int prng (n + 1) in
          let len = Prng.int prng (n - pos + 1) in
          refresh rnode;
          check_bytes "sub" (Bytes.sub data pos len) (Cache.sub cache ~rnode ~pos ~len))
        (pick ())
    | 4 ->
      Option.iter
        (fun rnode ->
          refresh rnode;
          Cache.touch cache ~rnode)
        (pick ())
    | 5 ->
      Option.iter
        (fun rnode ->
          Hashtbl.remove model rnode;
          Cache.remove cache ~rnode)
        (pick ())
    | _ -> ignore (Cache.compact cache : int)
  done;
  check_int "resident" (Hashtbl.length model) (Cache.resident_files cache);
  Hashtbl.iter
    (fun rnode (inode, _, data) ->
      check_int "inode" inode (Cache.inode_of cache ~rnode);
      check_bytes "contents" data (Cache.get cache ~rnode))
    model

let test_lru_matches_min_age_oracle () =
  for seed = 1 to 40 do
    run_lru_model (Int64.of_int seed)
  done

let suite =
  ( "cache",
    [
      Alcotest.test_case "insert/get roundtrip" `Quick test_insert_get_roundtrip;
      Alcotest.test_case "rnode indices are 1-based" `Quick test_rnode_indices_one_based;
      Alcotest.test_case "used-bytes accounting" `Quick test_used_accounting;
      Alcotest.test_case "LRU eviction order" `Quick test_lru_eviction_order;
      Alcotest.test_case "eviction frees enough space" `Quick test_eviction_frees_enough;
      Alcotest.test_case "file larger than capacity rejected" `Quick
        test_file_larger_than_capacity_rejected;
      Alcotest.test_case "rnode exhaustion evicts" `Quick test_rnode_exhaustion_evicts;
      Alcotest.test_case "zero-length file" `Quick test_zero_length_file;
      Alcotest.test_case "get of free rnode rejected" `Quick test_get_of_free_rnode_rejected;
      Alcotest.test_case "sub range" `Quick test_sub_range;
      Alcotest.test_case "sub out of range rejected" `Quick test_sub_out_of_range;
      Alcotest.test_case "reserve and fill" `Quick test_reserve_and_fill;
      Alcotest.test_case "compaction preserves contents" `Quick test_compaction_preserves_contents;
      Alcotest.test_case "compaction of empty cache" `Quick test_compaction_of_empty_cache;
      Alcotest.test_case "touch protects from eviction" `Quick test_touch_protects_from_eviction;
      Alcotest.test_case "LRU victims match the min-age oracle" `Quick
        test_lru_matches_min_age_oracle;
      prop_model;
    ] )
