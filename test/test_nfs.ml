(* Tests for the block-based baseline server (UFS layout, buffer cache,
   NFS-style operations). *)

open Helpers
module L = Nfs_baseline.Ufs_layout
module Bcache = Nfs_baseline.Buffer_cache
module Nfs = Nfs_baseline.Nfs_server
module Nfs_client = Nfs_baseline.Nfs_client
module Nfs_proto = Nfs_baseline.Nfs_proto
module Dev = Amoeba_disk.Block_device
module Clock = Amoeba_sim.Clock
module Stats = Amoeba_sim.Stats
module Status = Amoeba_rpc.Status

let geometry = Amoeba_disk.Geometry.small ~sectors:131_072 (* 64 MB *)

let make_server () =
  let clock = Clock.create () in
  let dev = Dev.create ~id:"nfsdev" ~geometry ~clock in
  Nfs.format dev ~max_files:256;
  let server = Result.get_ok (Nfs.mount dev) in
  (clock, dev, server)

let make_full () =
  let clock, dev, server = make_server () in
  let transport = Amoeba_rpc.Transport.create ~clock in
  Nfs_proto.serve server transport;
  let client = Nfs_client.connect transport (Nfs.port server) in
  (clock, dev, server, client)

(* ---- layout ---- *)

let prop_ufs_inode_roundtrip =
  qtest "ufs inode roundtrip"
    QCheck.(
      quad (int_range 0 0xFFFF) (int_range 0 0xFFFFFF) (small_list (int_range 0 0xFFFF))
        (pair (int_range 0 0xFFFF) (int_range 0 0xFFFF)))
    (fun (gen, size, directs, (ind, dbl)) ->
      let direct = Array.make L.direct_pointers 0 in
      List.iteri (fun i v -> if i < L.direct_pointers then direct.(i) <- v) directs;
      let inode =
        { L.used = true; gen; size_bytes = size; direct; indirect = ind; double = dbl; inline = None }
      in
      let buf = Bytes.make L.inode_bytes '\000' in
      L.encode_inode inode buf 0;
      L.decode_inode buf 0 = inode)

let test_superblock_roundtrip () =
  let sb = { L.total_blocks = 8192; inode_blocks = 4; bitmap_blocks = 1 } in
  let buf = Bytes.make L.fs_block_bytes '\000' in
  L.encode_superblock sb buf 0;
  check_bool "roundtrip" true (L.decode_superblock buf 0 = Ok sb)

let test_superblock_rejects_garbage () =
  check_bool "garbage" true (Result.is_error (L.decode_superblock (Bytes.make 16 'z') 0))

(* ---- buffer cache ---- *)

let make_cache capacity_blocks =
  let clock = Clock.create () in
  let dev = Dev.create ~id:"bc" ~geometry ~clock in
  (clock, dev, Bcache.create ~capacity_bytes:(capacity_blocks * L.fs_block_bytes) ~device:dev)

let test_bcache_miss_then_hit () =
  let _clock, _dev, cache = make_cache 4 in
  let (_ : bytes) = Bcache.read cache 10 in
  let (_ : bytes) = Bcache.read cache 10 in
  check_int "one miss" 1 (Stats.count (Bcache.stats cache) "misses");
  check_int "one hit" 1 (Stats.count (Bcache.stats cache) "hits")

let test_bcache_hit_costs_no_disk_time () =
  let clock, _dev, cache = make_cache 4 in
  let (_ : bytes) = Bcache.read cache 10 in
  let _, t = Clock.elapsed clock (fun () -> ignore (Bcache.read cache 10)) in
  check_int "free hit" 0 t

let test_bcache_write_through_persists () =
  let _clock, dev, cache = make_cache 4 in
  let block = Bytes.make L.fs_block_bytes 'q' in
  Bcache.write_through cache 7 block;
  let sectors = L.fs_block_bytes / 512 in
  check_bytes "on disk" block (Dev.peek dev ~sector:(7 * sectors) ~count:sectors)

let test_bcache_lru_eviction () =
  let _clock, _dev, cache = make_cache 2 in
  let (_ : bytes) = Bcache.read cache 1 in
  let (_ : bytes) = Bcache.read cache 2 in
  let (_ : bytes) = Bcache.read cache 1 in
  (* block 2 is now the LRU; loading block 3 evicts it *)
  let (_ : bytes) = Bcache.read cache 3 in
  let hits_before = Stats.count (Bcache.stats cache) "hits" in
  let (_ : bytes) = Bcache.read cache 1 in
  check_int "1 still cached" (hits_before + 1) (Stats.count (Bcache.stats cache) "hits");
  let misses_before = Stats.count (Bcache.stats cache) "misses" in
  let (_ : bytes) = Bcache.read cache 2 in
  check_int "2 was evicted" (misses_before + 1) (Stats.count (Bcache.stats cache) "misses")

let test_bcache_invalidate () =
  let _clock, _dev, cache = make_cache 4 in
  let (_ : bytes) = Bcache.read cache 5 in
  Bcache.invalidate cache 5;
  let misses = Stats.count (Bcache.stats cache) "misses" in
  let (_ : bytes) = Bcache.read cache 5 in
  check_int "re-read from disk" (misses + 1) (Stats.count (Bcache.stats cache) "misses")

(* ---- server operations ---- *)

let test_write_read_roundtrip_sizes () =
  let _clock, _dev, server = make_server () in
  let sizes = [ 1; 100; 8192; 8193; 100_000; 200_000 ] in
  let check_size n =
    let fh = ok_exn (Nfs.create server) in
    let data = payload n in
    let rec put off =
      if off < n then begin
        let chunk = min 8192 (n - off) in
        ok_exn (Nfs.write server fh ~off (Bytes.sub data off chunk));
        put (off + chunk)
      end
    in
    put 0;
    check_bytes (Printf.sprintf "size %d" n) data (ok_exn (Nfs.read server fh ~off:0 ~len:n));
    ok_exn (Nfs.remove server fh)
  in
  List.iter check_size sizes

let test_indirect_file () =
  (* beyond 12 direct blocks = 96 KB: exercises the single-indirect path *)
  let _clock, _dev, server = make_server () in
  let fh = ok_exn (Nfs.create server) in
  let n = 120_000 in
  let data = payload n in
  let rec put off =
    if off < n then begin
      let chunk = min 8192 (n - off) in
      ok_exn (Nfs.write server fh ~off (Bytes.sub data off chunk));
      put (off + chunk)
    end
  in
  put 0;
  check_bytes "indirect roundtrip" data (ok_exn (Nfs.read server fh ~off:0 ~len:n))

let test_double_indirect_sparse () =
  (* a write past 12 + 2048 blocks (≈16.1 MB) lands in the double-indirect
     tree; the hole below it reads as zeros *)
  let _clock, _dev, server = make_server () in
  let fh = ok_exn (Nfs.create server) in
  let far = (L.direct_pointers + L.pointers_per_block + 5) * L.fs_block_bytes in
  ok_exn (Nfs.write server fh ~off:far (Bytes.of_string "way out here"));
  let back = ok_exn (Nfs.read server fh ~off:far ~len:12) in
  check_string "far write" "way out here" (Bytes.to_string back);
  let hole = ok_exn (Nfs.read server fh ~off:4096 ~len:10) in
  check_bytes "hole reads zeros" (Bytes.make 10 '\000') hole

let test_short_read_at_eof () =
  let _clock, _dev, server = make_server () in
  let fh = ok_exn (Nfs.create server) in
  ok_exn (Nfs.write server fh ~off:0 (Bytes.of_string "short"));
  check_int "short read" 5 (Bytes.length (ok_exn (Nfs.read server fh ~off:0 ~len:100)));
  check_int "read past eof" 0 (Bytes.length (ok_exn (Nfs.read server fh ~off:10 ~len:5)))

let test_getattr () =
  let _clock, _dev, server = make_server () in
  let fh = ok_exn (Nfs.create server) in
  ok_exn (Nfs.write server fh ~off:0 (payload 5000));
  let attr = ok_exn (Nfs.getattr server fh) in
  check_int "size" 5000 attr.Nfs.size;
  check_int "blocks" 1 attr.Nfs.blocks

let test_stale_handle () =
  let _clock, _dev, server = make_server () in
  let fh = ok_exn (Nfs.create server) in
  ok_exn (Nfs.write server fh ~off:0 (payload 10));
  ok_exn (Nfs.remove server fh);
  expect_error Status.No_such_object (Nfs.read server fh ~off:0 ~len:10);
  (* a recreated file reuses the inode but with a new generation *)
  let fh2 = ok_exn (Nfs.create server) in
  check_int "ino reused" fh.Nfs.ino fh2.Nfs.ino;
  check_bool "gen differs" true (fh.Nfs.gen <> fh2.Nfs.gen);
  expect_error Status.No_such_object (Nfs.getattr server fh)

let test_remove_frees_blocks () =
  let _clock, _dev, server = make_server () in
  let free0 = Nfs.free_blocks server in
  let fh = ok_exn (Nfs.create server) in
  let n = 120_000 in
  let rec put off =
    if off < n then begin
      ok_exn (Nfs.write server fh ~off (Bytes.create (min 8192 (n - off))));
      put (off + 8192)
    end
  in
  put 0;
  check_bool "blocks consumed" true (Nfs.free_blocks server < free0);
  ok_exn (Nfs.remove server fh);
  check_int "all blocks reclaimed (incl. indirect)" free0 (Nfs.free_blocks server)

let test_scattered_allocation () =
  (* the aged-disk model: consecutive file blocks are not adjacent, so
     reading block n+1 after block n still seeks *)
  let _clock, dev, server = make_server () in
  let fh = ok_exn (Nfs.create server) in
  ok_exn (Nfs.write server fh ~off:0 (Bytes.create 8192));
  ok_exn (Nfs.write server fh ~off:8192 (Bytes.create 8192));
  Nfs.age_cache server;
  let (_ : bytes) = ok_exn (Nfs.read server fh ~off:0 ~len:8192) in
  let seeks_mid = Stats.count (Dev.stats dev) "seeks" in
  let (_ : bytes) = ok_exn (Nfs.read server fh ~off:8192 ~len:8192) in
  check_bool "second block also seeks" true (Stats.count (Dev.stats dev) "seeks" > seeks_mid)

let test_persistence_across_mounts () =
  let _clock, dev, server = make_server () in
  let fh = ok_exn (Nfs.create server) in
  ok_exn (Nfs.write server fh ~off:0 (payload 20_000));
  let server2 = Result.get_ok (Nfs.mount dev) in
  check_bytes "visible after remount" (payload 20_000) (ok_exn (Nfs.read server2 fh ~off:0 ~len:20_000));
  check_int "one live file" 1 (Nfs.live_files server2)

let test_mount_rejects_unformatted () =
  let clock = Clock.create () in
  let dev = Dev.create ~id:"blank" ~geometry ~clock in
  check_bool "unformatted" true (Result.is_error (Nfs.mount dev))

let test_age_cache_causes_disk_reads () =
  let clock, dev, server = make_server () in
  ignore clock;
  let fh = ok_exn (Nfs.create server) in
  ok_exn (Nfs.write server fh ~off:0 (payload 8192));
  let reads0 = Stats.count (Dev.stats dev) "reads" in
  let (_ : bytes) = ok_exn (Nfs.read server fh ~off:0 ~len:8192) in
  check_int "cached: no disk read" reads0 (Stats.count (Dev.stats dev) "reads");
  Nfs.age_cache server;
  let (_ : bytes) = ok_exn (Nfs.read server fh ~off:0 ~len:8192) in
  check_bool "aged: disk read" true (Stats.count (Dev.stats dev) "reads" > reads0)

(* ---- immediate files (reference [1], ablation ABL3) ---- *)

let make_immediate_server () =
  let clock = Clock.create () in
  let dev = Dev.create ~id:"imm" ~geometry ~clock in
  Nfs.format dev ~max_files:256;
  let config = { Nfs.immediate_files = true } in
  (clock, dev, Result.get_ok (Nfs.mount ~config dev))

let test_immediate_roundtrip () =
  let _clock, _dev, server = make_immediate_server () in
  let fh = ok_exn (Nfs.create server) in
  ok_exn (Nfs.write server fh ~off:0 (Bytes.of_string "tiny file"));
  check_string "roundtrip" "tiny file" (Bytes.to_string (ok_exn (Nfs.read server fh ~off:0 ~len:100)));
  check_int "no data blocks consumed" 1 (Stats.count (Nfs.stats server) "immediate_writes");
  check_int "served inline" 1 (Stats.count (Nfs.stats server) "immediate_reads")

let test_immediate_uses_no_data_blocks () =
  let _clock, _dev, server = make_immediate_server () in
  let free0 = Nfs.free_blocks server in
  let fh = ok_exn (Nfs.create server) in
  ok_exn (Nfs.write server fh ~off:0 (Bytes.make 60 'i'));
  check_int "zero blocks allocated" free0 (Nfs.free_blocks server)

let test_immediate_spills_when_growing () =
  let _clock, _dev, server = make_immediate_server () in
  let fh = ok_exn (Nfs.create server) in
  ok_exn (Nfs.write server fh ~off:0 (Bytes.of_string "starts small"));
  (* growing past the inline capacity migrates the data to a block *)
  ok_exn (Nfs.write server fh ~off:12 (payload 500));
  let contents = ok_exn (Nfs.read server fh ~off:0 ~len:512) in
  check_string "prefix preserved" "starts small" (Bytes.sub_string contents 0 12);
  check_bytes "suffix" (payload 500) (Bytes.sub contents 12 500);
  let attr = ok_exn (Nfs.getattr server fh) in
  check_int "size" 512 attr.Nfs.size

let test_immediate_persists_across_mounts () =
  let _clock, dev, server = make_immediate_server () in
  let fh = ok_exn (Nfs.create server) in
  ok_exn (Nfs.write server fh ~off:0 (Bytes.of_string "durable inline"));
  let config = { Nfs.immediate_files = true } in
  let server2 = Result.get_ok (Nfs.mount ~config dev) in
  check_string "after remount" "durable inline"
    (Bytes.to_string (ok_exn (Nfs.read server2 fh ~off:0 ~len:100)))

let test_immediate_faster_small_ops () =
  (* the point of reference [1]: small-file ops touch only the inode *)
  let clock_p, _dev_p, plain = make_server () in
  let clock_i, _dev_i, immediate = make_immediate_server () in
  let measure clock server =
    let fh = ok_exn (Nfs.create server) in
    let _, w = Clock.elapsed clock (fun () -> ok_exn (Nfs.write server fh ~off:0 (Bytes.make 60 'x'))) in
    Nfs.age_cache server;
    let _, r = Clock.elapsed clock (fun () -> ignore (ok_exn (Nfs.read server fh ~off:0 ~len:60))) in
    (w, r)
  in
  let plain_w, plain_r = measure clock_p plain in
  let imm_w, imm_r = measure clock_i immediate in
  check_bool "immediate write cheaper" true (imm_w < plain_w);
  check_bool "immediate read cheaper" true (imm_r < plain_r)

(* ---- client over RPC ---- *)

let test_client_roundtrip () =
  let _clock, _dev, _server, client = make_full () in
  let fh = Nfs_client.create client in
  Nfs_client.write_file client fh (payload 50_000);
  check_int "getattr size" 50_000 (Nfs_client.getattr_size client fh);
  check_bytes "read_file" (payload 50_000) (Nfs_client.read_file client fh ~size:50_000);
  Nfs_client.remove client fh

let test_client_block_rpc_count () =
  (* 50 KB = 7 blocks: one RPC per block, unlike Bullet's whole-file
     transfer *)
  let _clock, _dev, server, client = make_full () in
  let stats = Nfs.stats server in
  let fh = Nfs_client.create client in
  Nfs_client.write_file client fh (payload 50_000);
  check_int "7 write RPCs" 7 (Stats.count stats "writes");
  let (_ : bytes) = Nfs_client.read_file client fh ~size:50_000 in
  check_int "7 read RPCs" 7 (Stats.count stats "reads")

let test_write_at_rejects_oversize () =
  let _clock, _dev, _server, client = make_full () in
  let fh = Nfs_client.create client in
  (try
     Nfs_client.write_at client fh ~off:0 (Bytes.create 9000);
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

let suite =
  ( "nfs",
    [
      prop_ufs_inode_roundtrip;
      Alcotest.test_case "superblock roundtrip" `Quick test_superblock_roundtrip;
      Alcotest.test_case "superblock rejects garbage" `Quick test_superblock_rejects_garbage;
      Alcotest.test_case "buffer cache miss then hit" `Quick test_bcache_miss_then_hit;
      Alcotest.test_case "buffer cache hit is free" `Quick test_bcache_hit_costs_no_disk_time;
      Alcotest.test_case "buffer cache write-through persists" `Quick test_bcache_write_through_persists;
      Alcotest.test_case "buffer cache LRU eviction" `Quick test_bcache_lru_eviction;
      Alcotest.test_case "buffer cache invalidate" `Quick test_bcache_invalidate;
      Alcotest.test_case "write/read roundtrip across sizes" `Quick test_write_read_roundtrip_sizes;
      Alcotest.test_case "single-indirect file" `Quick test_indirect_file;
      Alcotest.test_case "double-indirect sparse file" `Quick test_double_indirect_sparse;
      Alcotest.test_case "short read at EOF" `Quick test_short_read_at_eof;
      Alcotest.test_case "getattr" `Quick test_getattr;
      Alcotest.test_case "stale handle detected" `Quick test_stale_handle;
      Alcotest.test_case "remove frees all blocks" `Quick test_remove_frees_blocks;
      Alcotest.test_case "scattered allocation seeks" `Quick test_scattered_allocation;
      Alcotest.test_case "persistence across mounts" `Quick test_persistence_across_mounts;
      Alcotest.test_case "mount rejects unformatted" `Quick test_mount_rejects_unformatted;
      Alcotest.test_case "aged cache causes disk reads" `Quick test_age_cache_causes_disk_reads;
      Alcotest.test_case "immediate file roundtrip" `Quick test_immediate_roundtrip;
      Alcotest.test_case "immediate file uses no data blocks" `Quick
        test_immediate_uses_no_data_blocks;
      Alcotest.test_case "immediate file spills when growing" `Quick
        test_immediate_spills_when_growing;
      Alcotest.test_case "immediate file persists across mounts" `Quick
        test_immediate_persists_across_mounts;
      Alcotest.test_case "immediate files faster for small ops" `Quick
        test_immediate_faster_small_ops;
      Alcotest.test_case "client roundtrip over RPC" `Quick test_client_roundtrip;
      Alcotest.test_case "client splits files into block RPCs" `Quick test_client_block_rpc_count;
      Alcotest.test_case "client write_at size limit" `Quick test_write_at_rejects_oversize;
    ] )
