(* Tests for the Bullet server: the paper's interface, protection,
   caching, write-through, P-FACTOR, crash recovery and compaction. *)

open Helpers
module Server = Bullet_core.Server
module Cap = Amoeba_cap.Capability
module Rights = Amoeba_cap.Rights
module Status = Amoeba_rpc.Status
module Clock = Amoeba_sim.Clock
module Stats = Amoeba_sim.Stats
module Mirror = Amoeba_disk.Mirror
module Dev = Amoeba_disk.Block_device

let make () =
  let b = make_bullet () in
  (b.rig, b.server)

let test_boot_mirrored () =
  let clock = Clock.create () in
  (* 159 inodes plus the descriptor slot fill five 32-inode blocks
     exactly, so format rounds nothing up *)
  let server = Server.boot ~clock ~id:"bt" ~sectors:16_384 ~max_files:159 () in
  let drives = Mirror.drives (Server.mirror server) in
  check_string "drives <id>-1 then <id>-2" "bt-1,bt-2" (String.concat "," (List.map Dev.id drives));
  List.iter
    (fun d ->
      check_int "drive size" 16_384 (Dev.geometry d).Amoeba_disk.Geometry.sector_count;
      check_bool "drive on the given clock" true (Dev.clock d == clock))
    drives;
  check_int "no live files" 0 (Server.live_files server);
  check_int "every inode free" 159 (Server.free_inodes server);
  let cap = ok_exn (Server.create server (payload 100)) in
  check_bytes "serves" (payload 100) (ok_exn (Server.read server cap))

let test_create_read_roundtrip () =
  let _rig, server = make () in
  let cap = ok_exn (Server.create server (payload 1000)) in
  check_bytes "roundtrip" (payload 1000) (ok_exn (Server.read server cap));
  check_int "size" 1000 (ok_exn (Server.size server cap))

let test_empty_file () =
  let _rig, server = make () in
  let cap = ok_exn (Server.create server (Bytes.create 0)) in
  check_int "size 0" 0 (ok_exn (Server.size server cap));
  check_int "empty read" 0 (Bytes.length (ok_exn (Server.read server cap)))

let test_delete_removes () =
  let _rig, server = make () in
  let cap = ok_exn (Server.create server (payload 10)) in
  ok_exn (Server.delete server cap);
  expect_error Status.No_such_object (Server.read server cap);
  check_int "no live files" 0 (Server.live_files server)

let test_files_are_immutable_distinct_objects () =
  let _rig, server = make () in
  let cap1 = ok_exn (Server.create server (Bytes.of_string "v1")) in
  let cap2 = ok_exn (Server.modify server cap1 ~pos:0 (Bytes.of_string "v2")) in
  check_bool "new object" false (Cap.equal cap1 cap2);
  check_string "old version untouched" "v1" (Bytes.to_string (ok_exn (Server.read server cap1)));
  check_string "new version" "v2" (Bytes.to_string (ok_exn (Server.read server cap2)))

let test_modify_splice_and_extend () =
  let _rig, server = make () in
  let cap = ok_exn (Server.create server (Bytes.of_string "hello world")) in
  let spliced = ok_exn (Server.modify server cap ~pos:6 (Bytes.of_string "there")) in
  check_string "splice" "hello there" (Bytes.to_string (ok_exn (Server.read server spliced)));
  let extended = ok_exn (Server.modify server cap ~pos:11 (Bytes.of_string "!!")) in
  check_string "extend" "hello world!!" (Bytes.to_string (ok_exn (Server.read server extended)))

let test_modify_past_end_rejected () =
  let _rig, server = make () in
  let cap = ok_exn (Server.create server (Bytes.of_string "abc")) in
  expect_error Status.Bad_request (Server.modify server cap ~pos:4 (Bytes.of_string "x"))

let test_append_truncate () =
  let _rig, server = make () in
  let cap = ok_exn (Server.create server (Bytes.of_string "abc")) in
  let appended = ok_exn (Server.append server cap (Bytes.of_string "def")) in
  check_string "append" "abcdef" (Bytes.to_string (ok_exn (Server.read server appended)));
  let truncated = ok_exn (Server.truncate server appended 2) in
  check_string "truncate" "ab" (Bytes.to_string (ok_exn (Server.read server truncated)));
  expect_error Status.Bad_request (Server.truncate server truncated 5)

let test_read_range () =
  let _rig, server = make () in
  let cap = ok_exn (Server.create server (Bytes.of_string "hello world")) in
  check_string "range" "world" (Bytes.to_string (ok_exn (Server.read_range server cap ~pos:6 ~len:5)));
  expect_error Status.Bad_request (Server.read_range server cap ~pos:6 ~len:6)

(* ---- protection ---- *)

let test_forged_check_rejected () =
  let _rig, server = make () in
  let cap = ok_exn (Server.create server (payload 10)) in
  let forged = { cap with Cap.check = Int64.add cap.Cap.check 1L } in
  expect_error Status.Bad_capability (Server.read server forged)

let test_widened_rights_rejected () =
  let _rig, server = make () in
  let cap = ok_exn (Server.create server (payload 10)) in
  let read_only = ok_exn (Server.restrict server cap Rights.read) in
  (* reading with the narrowed cap works *)
  check_bytes "read ok" (payload 10) (ok_exn (Server.read server read_only));
  (* deleting does not *)
  expect_error Status.Bad_capability (Server.delete server read_only);
  (* and manually widening the bits is detected *)
  let forged = { read_only with Cap.rights = Rights.all } in
  expect_error Status.Bad_capability (Server.delete server forged)

let test_unknown_object_rejected () =
  let _rig, server = make () in
  let cap = ok_exn (Server.create server (payload 10)) in
  let stranger = { cap with Cap.obj = cap.Cap.obj + 1 } in
  expect_error Status.No_such_object (Server.read server stranger)

let test_wrong_port_rejected () =
  let _rig, server = make () in
  let cap = ok_exn (Server.create server (payload 10)) in
  let foreign = { cap with Cap.port = Amoeba_cap.Port.of_int64 1L } in
  expect_error Status.No_such_object (Server.read server foreign)

let test_stale_capability_after_delete_and_reuse () =
  let _rig, server = make () in
  let cap = ok_exn (Server.create server (payload 10)) in
  ok_exn (Server.delete server cap);
  (* the inode number is reused, but with a fresh random: the old
     capability must not open the new file *)
  let cap2 = ok_exn (Server.create server (payload 20)) in
  check_int "inode reused" cap.Cap.obj cap2.Cap.obj;
  expect_error Status.Bad_capability (Server.read server cap)

(* ---- caching ---- *)

let test_cache_hit_avoids_disk () =
  let rig, server = make () in
  let cap = ok_exn (Server.create server (payload 4096)) in
  let reads_before = Stats.count (Dev.stats rig.drive1) "reads" in
  let (_ : bytes) = ok_exn (Server.read server cap) in
  check_int "no disk read on hit" reads_before (Stats.count (Dev.stats rig.drive1) "reads");
  check_int "hit counted" 1 (Stats.count (Server.stats server) "cache_hits")

let test_cache_miss_loads_from_disk () =
  let rig, server = make () in
  (* fill the 512 KB test cache so the first file gets evicted *)
  let first = ok_exn (Server.create server (payload 100_000)) in
  let rec flood n caps =
    if n = 0 then caps else flood (n - 1) (ok_exn (Server.create server (payload 100_000)) :: caps)
  in
  let _others = flood 5 [] in
  let reads_before = Stats.count (Dev.stats rig.drive1) "reads" in
  check_bytes "reload from disk" (payload 100_000) (ok_exn (Server.read server first));
  check_bool "disk was read" true (Stats.count (Dev.stats rig.drive1) "reads" > reads_before);
  check_bool "miss counted" true (Stats.count (Server.stats server) "cache_misses" >= 1);
  (* second read is a hit again *)
  let reads_now = Stats.count (Dev.stats rig.drive1) "reads" in
  let (_ : bytes) = ok_exn (Server.read server first) in
  check_int "back in cache" reads_now (Stats.count (Dev.stats rig.drive1) "reads")

let test_miss_after_compaction_and_eviction () =
  (* the miss path reads the drive straight into the file's cache extent:
     after compaction has slid segments and eviction has freed the oldest,
     a reloaded file must land whole, and no neighbour may be overwritten *)
  let _rig, server = make () in
  let content tag n = Amoeba_sim.Prng.bytes (Amoeba_sim.Prng.create ~seed:(Int64.of_int tag)) n in
  let create tag n = ok_exn (Server.create server (content tag n)) in
  let a = create 1 100_000 in
  let b = create 2 150_000 in
  let c = create 3 100_003 in
  ok_exn (Server.delete server b);
  check_bool "compaction moved a segment" true (Server.compact_cache server > 0);
  let _later = List.map (fun tag -> create tag 100_000) [ 4; 5; 6; 7 ] in
  check_bool "the oldest file was evicted" true
    (Stats.count (Server.cache_stats server) "evictions" >= 1);
  let misses = Stats.count (Server.stats server) "cache_misses" in
  check_bytes "a reloads from disk" (content 1 100_000) (ok_exn (Server.read server a));
  check_bytes "c reloads from disk" (content 3 100_003) (ok_exn (Server.read server c));
  check_int "both were misses" (misses + 2) (Stats.count (Server.stats server) "cache_misses");
  check_bytes "a is intact in cache" (content 1 100_000) (ok_exn (Server.read server a))

let test_file_larger_than_cache_rejected () =
  let _rig, server = make () in
  (* test cache is 512 KB *)
  expect_error Status.No_space (Server.create server (Bytes.create (600 * 1024)))

let test_cache_hit_faster_than_miss () =
  let rig, server = make () in
  let first = ok_exn (Server.create server (payload 100_000)) in
  let rec flood n = if n > 0 then (ignore (ok_exn (Server.create server (payload 100_000))); flood (n - 1)) in
  flood 5;
  let _, miss_time = Clock.elapsed rig.clock (fun () -> ok_exn (Server.read server first)) in
  let _, hit_time = Clock.elapsed rig.clock (fun () -> ok_exn (Server.read server first)) in
  check_bool "hit beats miss" true (hit_time < miss_time)

(* ---- write-through and P-FACTOR ---- *)

let test_create_writes_both_disks () =
  let rig, server = make () in
  let cap = ok_exn (Server.create server ~p_factor:2 (payload 4096)) in
  Mirror.drain rig.mirror;
  Dev.fail rig.drive1;
  (* replica alone can serve after a cache flush: force a miss by
     restarting the server *)
  Server.crash server;
  let server2, _ = Result.get_ok (Server.start ~config:small_bullet_config rig.mirror) in
  ignore (Server.port server2);
  (* the old capability still works: same seed, same sealing key *)
  check_bytes "replica serves" (payload 4096) (ok_exn (Server.read server2 cap))

let test_p_factor_zero_faster_than_one () =
  let rig, server = make () in
  let _, t0 = Clock.elapsed rig.clock (fun () -> ok_exn (Server.create server ~p_factor:0 (payload 65536))) in
  let _, t1 = Clock.elapsed rig.clock (fun () -> ok_exn (Server.create server ~p_factor:1 (payload 65536))) in
  check_bool "p=0 beats p=1" true (t0 < t1)

let test_p_factor_above_drive_count_rejected () =
  let _rig, server = make () in
  expect_error Status.Bad_request (Server.create server ~p_factor:3 (payload 10))

let test_p0_create_lost_at_crash () =
  let rig, server = make () in
  let cap = ok_exn (Server.create server ~p_factor:0 (payload 1000)) in
  Server.crash server;
  let server2, report = Result.get_ok (Server.start ~config:small_bullet_config rig.mirror) in
  check_int "file lost" 0 report.Bullet_core.Inode_table.files;
  expect_error Status.No_such_object (Server.read server2 cap)

let test_p1_create_survives_crash () =
  let rig, server = make () in
  let cap = ok_exn (Server.create server ~p_factor:1 (payload 1000)) in
  Server.crash server;
  let server2, report = Result.get_ok (Server.start ~config:small_bullet_config rig.mirror) in
  check_int "file survived" 1 report.Bullet_core.Inode_table.files;
  check_bytes "contents intact" (payload 1000) (ok_exn (Server.read server2 cap))

let test_dead_server_refuses () =
  let _rig, server = make () in
  Server.crash server;
  expect_error Status.Server_failure (Server.create server (payload 1))

let test_bad_sector_failover () =
  (* a media error on the primary mid-read: the mirror falls through to
     the replica and the client never notices *)
  let rig, server = make () in
  let cap = ok_exn (Server.create server ~p_factor:2 (payload 4096)) in
  Mirror.drain rig.mirror;
  (* evict from cache so the next read hits the disk *)
  Server.crash server;
  let server2, _ = Result.get_ok (Server.start ~config:small_bullet_config rig.mirror) in
  let inode_raw = Bullet_core.Inode_table.load rig.mirror in
  let first_block =
    match inode_raw with
    | Ok (table, _) ->
      let found = ref 0 in
      Bullet_core.Inode_table.iter_live table (fun _ inode ->
          found := inode.Bullet_core.Layout.first_block);
      !found
    | Error e -> Alcotest.fail e
  in
  Dev.set_bad_sector rig.drive1 first_block;
  check_bytes "replica serves around the bad sector" (payload 4096)
    (ok_exn (Server.read server2 cap))

let test_degraded_read_after_drive_failure () =
  (* the primary drive dies between requests: reads keep succeeding off
     the replica and the mirror records that it is running degraded *)
  let rig, server = make () in
  let cap = ok_exn (Server.create server ~p_factor:2 (payload 8192)) in
  Server.crash server;
  let server2, _ = Result.get_ok (Server.start ~config:small_bullet_config rig.mirror) in
  Dev.fail rig.drive1;
  check_bytes "replica serves the READ" (payload 8192) (ok_exn (Server.read server2 cap));
  check_bool "reads flagged degraded" true
    (Stats.count (Mirror.stats rig.mirror) "degraded_reads" > 0);
  Mirror.recover rig.mirror;
  check_int "resync recorded" 1 (Stats.count (Mirror.stats rig.mirror) "resyncs");
  check_bytes "healthy read still fine" (payload 8192) (ok_exn (Server.read server2 cap))

let test_transient_error_failover_during_read () =
  (* the primary is live but throws a soft media error mid-READ: the
     next drive serves the block and the failover shows in the stats *)
  let rig, server = make () in
  let cap = ok_exn (Server.create server ~p_factor:2 (payload 8192)) in
  Server.crash server;
  let server2, _ = Result.get_ok (Server.start ~config:small_bullet_config rig.mirror) in
  let armed = ref false in
  Dev.set_fault_hook rig.drive1
    (Some
       (fun ~sector:_ ~count:_ ~write ->
         if write || not !armed then false
         else begin
           armed := false;
           true
         end));
  armed := true;
  check_bytes "client never notices" (payload 8192) (ok_exn (Server.read server2 cap));
  check_int "failover counted" 1 (Stats.count (Mirror.stats rig.mirror) "read_failovers");
  Dev.set_fault_hook rig.drive1 None

let test_recovery_by_disk_copy () =
  let rig, server = make () in
  let cap = ok_exn (Server.create server ~p_factor:1 (payload 3000)) in
  (* replica dies before its background write lands *)
  Dev.fail rig.drive2;
  Mirror.drain rig.mirror;
  (* paper recovery: repair + whole-disk copy *)
  Mirror.recover rig.mirror;
  Dev.fail rig.drive1;
  Server.crash server;
  let server2, _ = Result.get_ok (Server.start ~config:small_bullet_config rig.mirror) in
  check_bytes "recovered replica serves" (payload 3000) (ok_exn (Server.read server2 cap))

(* ---- allocation and compaction ---- *)

let test_disk_space_reclaimed () =
  let _rig, server = make () in
  let free0 = Server.free_blocks server in
  let cap = ok_exn (Server.create server (payload 10_000)) in
  check_bool "space consumed" true (Server.free_blocks server < free0);
  ok_exn (Server.delete server cap);
  check_int "space reclaimed" free0 (Server.free_blocks server)

let test_restart_rebuilds_free_list () =
  let rig, server = make () in
  let keep = ok_exn (Server.create server (payload 5000)) in
  let doomed = ok_exn (Server.create server (payload 5000)) in
  ok_exn (Server.delete server doomed);
  let free_before = Server.free_blocks server in
  Server.crash server;
  let server2, _ = Result.get_ok (Server.start ~config:small_bullet_config rig.mirror) in
  check_int "free list rebuilt" free_before (Server.free_blocks server2);
  check_bytes "survivor intact" (payload 5000) (ok_exn (Server.read server2 keep))

let test_compaction_consolidates_holes () =
  let _rig, server = make () in
  (* fragment the disk: lay files down contiguously, then delete every
     other one (interleaved create/delete would let first-fit reuse the
     hole immediately) *)
  let rec build n acc =
    if n = 0 then acc else build (n - 1) (ok_exn (Server.create server (payload 8192)) :: acc)
  in
  let files = build 16 [] in
  let rec alternate keep = function
    | [] -> []
    | cap :: rest ->
      if keep then cap :: alternate false rest
      else begin
        ok_exn (Server.delete server cap);
        alternate true rest
      end
  in
  let keeps = alternate true files in
  check_bool "fragmented" true (Server.disk_fragmentation server > 0.);
  let moved = Server.compact_disk server in
  check_bool "blocks moved" true (moved > 0);
  Alcotest.(check (float 1e-9)) "one hole afterwards" 0.0 (Server.disk_fragmentation server);
  (* every kept file still reads correctly after relocation *)
  List.iter (fun cap -> check_bytes "intact" (payload 8192) (ok_exn (Server.read server cap))) keeps

let test_compaction_survives_restart () =
  let rig, server = make () in
  let keep = ok_exn (Server.create server (payload 8192)) in
  let doomed = ok_exn (Server.create server (payload 8192)) in
  let keep2 = ok_exn (Server.create server (payload 8192)) in
  ok_exn (Server.delete server doomed);
  let (_ : int) = Server.compact_disk server in
  Server.crash server;
  let server2, report = Result.get_ok (Server.start ~config:small_bullet_config rig.mirror) in
  check_int "both files" 2 report.Bullet_core.Inode_table.files;
  check_bytes "keep" (payload 8192) (ok_exn (Server.read server2 keep));
  check_bytes "keep2" (payload 8192) (ok_exn (Server.read server2 keep2))

let test_inode_exhaustion () =
  let b = make_bullet ~max_files:31 () in
  let server = b.server in
  let rec fill n = match Server.create server (payload 16) with Ok _ -> fill (n + 1) | Error e -> (n, e) in
  let made, err = fill 0 in
  check_int "all inodes used" 31 made;
  check_bool "then no space" true (err = Status.No_space)

let test_disk_exhaustion_frees_inode () =
  let b = make_bullet ~sectors:1536 () in
  let server = b.server in
  (* data area ~ 1527 sectors: room for one 500 KB file but not two *)
  let big = Bytes.create 500_000 in
  let cap = ok_exn (Server.create server big) in
  let inodes_free = Server.free_inodes server in
  (* no room for another 500 KB on disk *)
  expect_error Status.No_space (Server.create server big);
  check_int "inode not leaked" inodes_free (Server.free_inodes server);
  ok_exn (Server.delete server cap);
  let (_ : Cap.t) = ok_exn (Server.create server big) in
  ()

(* model-based: random create/read/delete against a reference map *)
let prop_server_model =
  qtest "server behaves like an immutable object store" ~count:60
    QCheck.(pair int64 (small_list (int_range 0 5000)))
    (fun (seed, sizes) ->
      let b = make_bullet () in
      let server = b.server in
      let prng = Amoeba_sim.Prng.create ~seed in
      let live = ref [] in
      let ok = ref true in
      let step size =
        match Amoeba_sim.Prng.int prng 3 with
        | 0 ->
          let data = Bytes.init size (fun i -> Char.chr ((i * 3 + size) land 0xff)) in
          (match Server.create server data with
          | Ok cap -> live := (cap, data) :: !live
          | Error _ -> ok := false)
        | 1 when !live <> [] ->
          let idx = Amoeba_sim.Prng.int prng (List.length !live) in
          let cap, data = List.nth !live idx in
          (match Server.read server cap with
          | Ok contents -> if not (Bytes.equal contents data) then ok := false
          | Error _ -> ok := false)
        | 2 when !live <> [] ->
          let idx = Amoeba_sim.Prng.int prng (List.length !live) in
          let cap, _ = List.nth !live idx in
          live := List.filteri (fun i _ -> i <> idx) !live;
          (match Server.delete server cap with Ok () -> () | Error _ -> ok := false)
        | _ -> ()
      in
      List.iter step sizes;
      (* finally everything still live must read back *)
      List.iter
        (fun (cap, data) ->
          match Server.read server cap with
          | Ok contents -> if not (Bytes.equal contents data) then ok := false
          | Error _ -> ok := false)
        !live;
      !ok)

let suite =
  ( "server",
    [
      Alcotest.test_case "boot formats and starts a mirrored pair" `Quick test_boot_mirrored;
      Alcotest.test_case "create/read roundtrip" `Quick test_create_read_roundtrip;
      Alcotest.test_case "empty file" `Quick test_empty_file;
      Alcotest.test_case "delete removes" `Quick test_delete_removes;
      Alcotest.test_case "files are immutable" `Quick test_files_are_immutable_distinct_objects;
      Alcotest.test_case "modify splices and extends" `Quick test_modify_splice_and_extend;
      Alcotest.test_case "modify past end rejected" `Quick test_modify_past_end_rejected;
      Alcotest.test_case "append and truncate" `Quick test_append_truncate;
      Alcotest.test_case "read_range" `Quick test_read_range;
      Alcotest.test_case "forged check rejected" `Quick test_forged_check_rejected;
      Alcotest.test_case "widened rights rejected" `Quick test_widened_rights_rejected;
      Alcotest.test_case "unknown object rejected" `Quick test_unknown_object_rejected;
      Alcotest.test_case "wrong port rejected" `Quick test_wrong_port_rejected;
      Alcotest.test_case "stale cap after inode reuse rejected" `Quick
        test_stale_capability_after_delete_and_reuse;
      Alcotest.test_case "cache hit avoids disk" `Quick test_cache_hit_avoids_disk;
      Alcotest.test_case "cache miss loads from disk" `Quick test_cache_miss_loads_from_disk;
      Alcotest.test_case "read miss after compaction and eviction" `Quick
        test_miss_after_compaction_and_eviction;
      Alcotest.test_case "file larger than cache rejected" `Quick test_file_larger_than_cache_rejected;
      Alcotest.test_case "cache hit faster than miss" `Quick test_cache_hit_faster_than_miss;
      Alcotest.test_case "create writes both disks" `Quick test_create_writes_both_disks;
      Alcotest.test_case "p=0 faster than p=1" `Quick test_p_factor_zero_faster_than_one;
      Alcotest.test_case "p-factor above drive count rejected" `Quick
        test_p_factor_above_drive_count_rejected;
      Alcotest.test_case "p=0 create lost on crash" `Quick test_p0_create_lost_at_crash;
      Alcotest.test_case "p=1 create survives crash" `Quick test_p1_create_survives_crash;
      Alcotest.test_case "dead server refuses requests" `Quick test_dead_server_refuses;
      Alcotest.test_case "bad sector fails over to replica" `Quick test_bad_sector_failover;
      Alcotest.test_case "recovery by whole-disk copy" `Quick test_recovery_by_disk_copy;
      Alcotest.test_case "degraded read after drive failure" `Quick
        test_degraded_read_after_drive_failure;
      Alcotest.test_case "transient error fails over mid-read" `Quick
        test_transient_error_failover_during_read;
      Alcotest.test_case "disk space reclaimed on delete" `Quick test_disk_space_reclaimed;
      Alcotest.test_case "restart rebuilds free list" `Quick test_restart_rebuilds_free_list;
      Alcotest.test_case "compaction consolidates holes" `Quick test_compaction_consolidates_holes;
      Alcotest.test_case "compaction survives restart" `Quick test_compaction_survives_restart;
      Alcotest.test_case "inode exhaustion" `Quick test_inode_exhaustion;
      Alcotest.test_case "disk exhaustion frees the inode" `Quick test_disk_exhaustion_frees_inode;
      prop_server_model;
    ] )
