(* Tests for the disk substrate: Geometry, Block_device, Mirror. *)

open Helpers
module Geometry = Amoeba_disk.Geometry
module Dev = Amoeba_disk.Block_device
module Mirror = Amoeba_disk.Mirror
module Clock = Amoeba_sim.Clock
module Stats = Amoeba_sim.Stats

let geometry = Geometry.small ~sectors:1024

let make_dev ?(id = "t") () =
  let clock = Clock.create () in
  (clock, Dev.create ~id ~geometry ~clock)

(* ---- geometry ---- *)

let test_capacity () = check_int "capacity" (1024 * 512) (Geometry.capacity_bytes geometry)

let test_sectors_for () =
  check_int "0 bytes" 0 (Geometry.sectors_for geometry 0);
  check_int "1 byte" 1 (Geometry.sectors_for geometry 1);
  check_int "512" 1 (Geometry.sectors_for geometry 512);
  check_int "513" 2 (Geometry.sectors_for geometry 513)

let test_sequential_cheaper () =
  let seq = Geometry.access_us geometry ~sequential:true ~write:false 8192 in
  let rand = Geometry.access_us geometry ~sequential:false ~write:false 8192 in
  check_bool "sequential beats random" true (seq < rand);
  check_int "difference is positioning" (geometry.Geometry.avg_seek_us + (geometry.Geometry.rotation_us / 2))
    (rand - seq)

let test_write_penalty () =
  let r = Geometry.access_us geometry ~sequential:false ~write:false 512 in
  let w = Geometry.access_us geometry ~sequential:false ~write:true 512 in
  check_int "write adds half a rotation" (geometry.Geometry.rotation_us / 2) (w - r)

let test_transfer_linear () =
  let t1 = Geometry.transfer_us geometry 100_000 in
  let t2 = Geometry.transfer_us geometry 200_000 in
  check_int "linear in bytes" (2 * t1) t2

(* ---- block device ---- *)

let test_rw_roundtrip () =
  let _clock, dev = make_dev () in
  let data = payload 1024 in
  Dev.write dev ~sector:10 data;
  check_bytes "roundtrip" data (Dev.read dev ~sector:10 ~count:2)

let test_fresh_device_zeroed () =
  let _clock, dev = make_dev () in
  check_bytes "zeros" (Bytes.make 512 '\000') (Dev.read dev ~sector:0 ~count:1)

let test_write_requires_sector_multiple () =
  let _clock, dev = make_dev () in
  Alcotest.check_raises "odd size"
    (Invalid_argument "Block_device.write: data must be a positive multiple of the sector size")
    (fun () -> Dev.write dev ~sector:0 (Bytes.create 100))

let test_out_of_range_rejected () =
  let _clock, dev = make_dev () in
  let boom () = ignore (Dev.read dev ~sector:1023 ~count:2) in
  (try boom (); Alcotest.fail "expected Invalid_argument" with Invalid_argument _ -> ())

let test_read_charges_time () =
  let clock, dev = make_dev () in
  let before = Clock.now clock in
  let (_ : bytes) = Dev.read dev ~sector:100 ~count:16 in
  check_bool "time advanced" true (Clock.now clock > before)

let test_sequential_read_cheaper_on_device () =
  let clock, dev = make_dev () in
  let (_ : bytes) = Dev.read dev ~sector:0 ~count:8 in
  let _, seq_time = Clock.elapsed clock (fun () -> ignore (Dev.read dev ~sector:8 ~count:8)) in
  let _, rand_time = Clock.elapsed clock (fun () -> ignore (Dev.read dev ~sector:500 ~count:8)) in
  check_bool "head position matters" true (seq_time < rand_time)

let test_seek_stats () =
  let _clock, dev = make_dev () in
  let (_ : bytes) = Dev.read dev ~sector:100 ~count:1 in
  let (_ : bytes) = Dev.read dev ~sector:101 ~count:1 in
  let (_ : bytes) = Dev.read dev ~sector:500 ~count:1 in
  check_int "two seeks (initial + jump)" 2 (Stats.count (Dev.stats dev) "seeks");
  check_int "three reads" 3 (Stats.count (Dev.stats dev) "reads");
  check_int "three sectors" 3 (Stats.count (Dev.stats dev) "sectors_read")

let test_fail_and_repair () =
  let _clock, dev = make_dev () in
  Dev.fail dev;
  check_bool "failed" true (Dev.is_failed dev);
  (try
     ignore (Dev.read dev ~sector:0 ~count:1);
     Alcotest.fail "expected failure"
   with Dev.Failure _ -> ());
  Dev.repair dev;
  check_bool "repaired" false (Dev.is_failed dev);
  ignore (Dev.read dev ~sector:0 ~count:1)

let test_bad_sector () =
  let _clock, dev = make_dev () in
  Dev.set_bad_sector dev 5;
  ignore (Dev.read dev ~sector:4 ~count:1);
  (try
     ignore (Dev.read dev ~sector:4 ~count:2);
     Alcotest.fail "expected bad-sector failure"
   with Dev.Failure _ -> ());
  Dev.clear_bad_sector dev 5;
  ignore (Dev.read dev ~sector:4 ~count:2)

let test_copy_from () =
  let clock = Clock.create () in
  let a = Dev.create ~id:"a" ~geometry ~clock in
  let b = Dev.create ~id:"b" ~geometry ~clock in
  Dev.poke a ~sector:37 (payload 512);
  Dev.copy_from ~src:a ~dst:b;
  check_bytes "copied" (payload 512) (Dev.peek b ~sector:37 ~count:1)

let test_peek_poke_free () =
  let clock, dev = make_dev () in
  Dev.poke dev ~sector:3 (payload 512);
  let (_ : bytes) = Dev.peek dev ~sector:3 ~count:1 in
  check_int "no time charged" 0 (Clock.now clock)

(* ---- mirror ---- *)

let make_mirror () =
  let rig = make_rig ~sectors:1024 () in
  (rig.clock, rig.drive1, rig.drive2, rig.mirror)

let test_mirror_writes_both () =
  let _clock, d1, d2, m = make_mirror () in
  Mirror.write m ~sync:2 ~sector:9 (payload 512);
  check_bytes "drive1" (payload 512) (Dev.peek d1 ~sector:9 ~count:1);
  check_bytes "drive2" (payload 512) (Dev.peek d2 ~sector:9 ~count:1)

let test_mirror_sync_parallel_equals_one () =
  (* Identical drives written in parallel: sync=2 costs the same as
     sync=1 once pending writes are excluded. *)
  let clock1, _, _, m1 = make_mirror () in
  let _, t1 = Clock.elapsed clock1 (fun () -> Mirror.write m1 ~sync:1 ~sector:9 (payload 512)) in
  let clock2, _, _, m2 = make_mirror () in
  let _, t2 = Clock.elapsed clock2 (fun () -> Mirror.write m2 ~sync:2 ~sector:9 (payload 512)) in
  check_int "parallel mirror write" t1 t2

let test_mirror_sync_zero_costs_nothing () =
  let clock, _, _, m = make_mirror () in
  let _, t = Clock.elapsed clock (fun () -> Mirror.write m ~sync:0 ~sector:9 (payload 512)) in
  check_int "p-factor 0 write is free" 0 t;
  check_int "pending" 2 (Mirror.pending_count m)

let test_mirror_pending_drains_before_read () =
  let _clock, d1, _, m = make_mirror () in
  Mirror.write m ~sync:0 ~sector:9 (payload 512);
  check_bytes "drain before read" (payload 512) (Mirror.read m ~sector:9 ~count:1);
  check_int "queue empty" 0 (Mirror.pending_count m);
  check_bytes "applied to drive" (payload 512) (Dev.peek d1 ~sector:9 ~count:1)

let test_mirror_crash_discards_pending () =
  let _clock, d1, d2, m = make_mirror () in
  Mirror.write m ~sync:0 ~sector:9 (payload 512);
  Mirror.crash m;
  check_bytes "drive1 untouched" (Bytes.make 512 '\000') (Dev.peek d1 ~sector:9 ~count:1);
  check_bytes "drive2 untouched" (Bytes.make 512 '\000') (Dev.peek d2 ~sector:9 ~count:1)

let test_mirror_sync_one_survives_crash_on_primary () =
  let _clock, d1, d2, m = make_mirror () in
  Mirror.write m ~sync:1 ~sector:9 (payload 512);
  Mirror.crash m;
  check_bytes "primary has data" (payload 512) (Dev.peek d1 ~sector:9 ~count:1);
  check_bytes "replica lost it" (Bytes.make 512 '\000') (Dev.peek d2 ~sector:9 ~count:1)

let test_mirror_read_failover () =
  let _clock, d1, _, m = make_mirror () in
  Mirror.write m ~sync:2 ~sector:9 (payload 512);
  Dev.fail d1;
  check_bytes "served from replica" (payload 512) (Mirror.read m ~sector:9 ~count:1);
  check_int "one live drive" 1 (Mirror.live_count m)

let test_mirror_no_live_drive () =
  let _clock, d1, d2, m = make_mirror () in
  Dev.fail d1;
  Dev.fail d2;
  (try
     ignore (Mirror.read m ~sector:0 ~count:1);
     Alcotest.fail "expected No_live_drive"
   with Mirror.No_live_drive -> ())

let test_mirror_sync_clamped () =
  (* asking for more synchronous replicas than exist just means "all" *)
  let _clock, d1, d2, m = make_mirror () in
  Mirror.write m ~sync:99 ~sector:3 (payload 512);
  check_int "no pending writes" 0 (Mirror.pending_count m);
  check_bytes "both written" (payload 512) (Dev.peek d1 ~sector:3 ~count:1);
  check_bytes "both written" (payload 512) (Dev.peek d2 ~sector:3 ~count:1)

let test_mirror_recover () =
  let _clock, d1, d2, m = make_mirror () in
  Mirror.write m ~sync:2 ~sector:9 (payload 512);
  Dev.fail d2;
  Mirror.write m ~sync:1 ~sector:10 (payload 512);
  Mirror.recover m;
  check_bool "replica live again" false (Dev.is_failed d2);
  check_bytes "replica caught up" (payload 512) (Dev.peek d2 ~sector:10 ~count:1);
  ignore d1

let test_mirror_write_skips_failed_drive () =
  let _clock, d1, d2, m = make_mirror () in
  Dev.fail d1;
  Mirror.write m ~sync:2 ~sector:4 (payload 512);
  check_bytes "live replica written" (payload 512) (Dev.peek d2 ~sector:4 ~count:1);
  check_bytes "failed drive untouched" (Bytes.make 512 '\000') (Dev.peek d1 ~sector:4 ~count:1)

let test_mirror_degraded_stats () =
  let _clock, d1, _, m = make_mirror () in
  Mirror.write m ~sync:2 ~sector:9 (payload 512);
  check_int "no degraded reads yet" 0 (Amoeba_sim.Stats.count (Mirror.stats m) "degraded_reads");
  Dev.fail d1;
  ignore (Mirror.read m ~sector:9 ~count:1);
  ignore (Mirror.read m ~sector:9 ~count:1);
  check_int "degraded reads counted" 2 (Amoeba_sim.Stats.count (Mirror.stats m) "degraded_reads");
  Mirror.recover m;
  check_int "resync counted" 1 (Amoeba_sim.Stats.count (Mirror.stats m) "resyncs");
  ignore (Mirror.read m ~sector:9 ~count:1);
  check_int "healthy again" 2 (Amoeba_sim.Stats.count (Mirror.stats m) "degraded_reads")

let test_mirror_failover_on_transient_error () =
  (* The primary is live but its read fails mid-flight (soft media
     error); the next drive serves the data and the failover is
     visible in the mirror's stats. *)
  let _clock, d1, _, m = make_mirror () in
  Mirror.write m ~sync:2 ~sector:9 (payload 512);
  let once = ref true in
  Dev.set_fault_hook d1
    (Some
       (fun ~sector:_ ~count:_ ~write ->
         if write || not !once then false
         else begin
           once := false;
           true
         end));
  check_bytes "replica served the read" (payload 512) (Mirror.read m ~sector:9 ~count:1);
  check_int "failover counted" 1 (Amoeba_sim.Stats.count (Mirror.stats m) "read_failovers");
  check_int "primary logged the soft error" 1
    (Amoeba_sim.Stats.count (Dev.stats d1) "transient_errors");
  check_bytes "primary recovered" (payload 512) (Mirror.read m ~sector:9 ~count:1);
  check_int "no second failover" 1 (Amoeba_sim.Stats.count (Mirror.stats m) "read_failovers")

let test_device_fault_hook_removable () =
  let clock = Clock.create () in
  let d = Dev.create ~id:"hook" ~geometry:(Geometry.small ~sectors:64) ~clock in
  Dev.set_fault_hook d (Some (fun ~sector:_ ~count:_ ~write:_ -> true));
  (try
     ignore (Dev.read d ~sector:0 ~count:1);
     Alcotest.fail "expected transient Failure"
   with Dev.Failure _ -> ());
  Dev.set_fault_hook d None;
  ignore (Dev.read d ~sector:0 ~count:1)

let test_mirror_pending_to_failed_drive_dropped () =
  let _clock, _, d2, m = make_mirror () in
  Mirror.write m ~sync:1 ~sector:4 (payload 512);
  Dev.fail d2;
  Mirror.drain m;
  Dev.repair d2;
  check_bytes "write to failed drive dropped" (Bytes.make 512 '\000') (Dev.peek d2 ~sector:4 ~count:1)

(* ---- dirty-sector tracking ---- *)

module Dirty = Amoeba_disk.Dirty

let test_dirty_mark_clear () =
  let d = Dirty.create ~sectors:64 in
  check_int "starts clean" 0 (Dirty.remaining d);
  Dirty.mark d ~sector:10 ~count:4;
  check_int "four dirty" 4 (Dirty.remaining d);
  Dirty.mark d ~sector:12 ~count:4;
  check_int "overlap is idempotent" 6 (Dirty.remaining d);
  check_bool "range dirty" true (Dirty.is_dirty d ~sector:8 ~count:4);
  check_bool "disjoint range clean" false (Dirty.is_dirty d ~sector:0 ~count:8);
  Dirty.clear d ~sector:10 ~count:3;
  check_int "partial clear" 3 (Dirty.remaining d);
  Dirty.clear d ~sector:0 ~count:64;
  check_int "all clean" 0 (Dirty.remaining d);
  check_bool "nothing left" false (Dirty.is_dirty d ~sector:0 ~count:64);
  (* one past the end is out of range, even for a single sector *)
  match Dirty.mark d ~sector:64 ~count:1 with
  | () -> Alcotest.fail "out-of-range mark accepted"
  | exception Invalid_argument _ -> ()

let test_dirty_mark_all () =
  let d = Dirty.create ~sectors:128 in
  Dirty.mark_all d;
  check_int "everything dirty" 128 (Dirty.remaining d);
  check_bool "any range dirty" true (Dirty.is_dirty d ~sector:77 ~count:1)

let test_dirty_next_run () =
  let d = Dirty.create ~sectors:64 in
  check_bool "clean map has no run" true (Dirty.next_run d ~limit:16 = None);
  Dirty.mark d ~sector:4 ~count:10;
  (match Dirty.next_run d ~limit:8 with
  | Some (s, c) ->
    check_int "run start" 4 s;
    check_int "run bounded by limit" 8 c
  | None -> Alcotest.fail "expected a run");
  (* the run was not cleared: the same call repeats until the caller clears *)
  (match Dirty.next_run d ~limit:8 with
  | Some (s, _) -> check_bool "cursor advanced past the first run" true (s > 4)
  | None -> Alcotest.fail "expected the remainder");
  Dirty.clear d ~sector:4 ~count:10;
  check_bool "cleared map has no run" true (Dirty.next_run d ~limit:8 = None)

let test_dirty_next_run_wraps () =
  let d = Dirty.create ~sectors:32 in
  Dirty.mark d ~sector:0 ~count:2;
  Dirty.mark d ~sector:28 ~count:4;
  (* scan from the start: low run, then high run, advancing the cursor *)
  (match Dirty.next_run d ~limit:16 with
  | Some (s, c) ->
    check_int "low run first" 0 s;
    check_int "low run length" 2 c;
    Dirty.clear d ~sector:s ~count:c
  | None -> Alcotest.fail "expected the low run");
  (match Dirty.next_run d ~limit:16 with
  | Some (s, c) ->
    check_int "high run next" 28 s;
    check_int "stops at the end" 4 c;
    Dirty.clear d ~sector:s ~count:c
  | None -> Alcotest.fail "expected the high run");
  (* the cursor sits at the end of the map: a fresh mark at the bottom
     is only reachable by wrapping around *)
  Dirty.mark d ~sector:1 ~count:1;
  match Dirty.next_run d ~limit:16 with
  | Some (s, c) ->
    check_int "wrapped to the low mark" 1 s;
    check_int "single sector" 1 c
  | None -> Alcotest.fail "expected the wrapped run"

(* ---- online resync ---- *)

let state_label m = Mirror.sync_state_label m

let test_mirror_sync_state_transitions () =
  let _clock, _, d2, m = make_mirror () in
  check_string "starts clean" "clean" (state_label m);
  Dev.fail d2;
  check_string "offline drive = degraded" "degraded" (state_label m);
  Mirror.rejoin m;
  check_string "rejoined fully dirty" "resyncing:1024" (state_label m);
  let rec drain () = if Mirror.resync_step ~batch:256 m > 0 then drain () in
  drain ();
  check_string "drained back to clean" "clean" (state_label m);
  check_int "one rejoin" 1 (Stats.count (Mirror.stats m) "rejoins");
  check_int "one resync completed" 1 (Stats.count (Mirror.stats m) "resyncs_completed")

let test_mirror_resync_step_bounded () =
  let clock, _, d2, m = make_mirror () in
  Dev.fail d2;
  Mirror.rejoin m;
  let before = Clock.now clock in
  let copied = Mirror.resync_step ~batch:64 m in
  check_int "one bounded batch" 64 copied;
  check_bool "step charged on the clock" true (Clock.now clock > before);
  (match Mirror.sync_state m with
  | Mirror.Resyncing { sectors_remaining } -> check_int "backlog shrank by one batch" (1024 - 64) sectors_remaining
  | _ -> Alcotest.fail "expected Resyncing");
  check_int "sectors counted" 64 (Stats.count (Mirror.stats m) "resync_sectors")

let test_mirror_resync_converges_bytes () =
  let _clock, d1, d2, m = make_mirror () in
  Mirror.write m ~sync:2 ~sector:100 (payload 1024);
  Dev.fail d2;
  (* writes landing during the outage exist only on the survivor *)
  Mirror.write m ~sync:1 ~sector:200 (payload 512);
  Mirror.rejoin m;
  let rec drain () = if Mirror.resync_step ~batch:128 m > 0 then drain () in
  drain ();
  check_string "clean" "clean" (state_label m);
  for sector = 0 to 1023 do
    check_bytes
      (Printf.sprintf "sector %d identical" sector)
      (Dev.peek d1 ~sector ~count:1) (Dev.peek d2 ~sector ~count:1)
  done

let test_mirror_read_repair () =
  (* After the rejoin the failed drive is fully dirty, so a foreground
     read must serve the survivor and write the bytes back, whether the
     stale drive comes before the survivor in slot order (drive 1) or
     after it (drive 2). *)
  List.iter
    (fun stale ->
      let _clock, d1, d2, m = make_mirror () in
      let stale, survivor = if stale = 1 then (d1, d2) else (d2, d1) in
      Mirror.write m ~sync:2 ~sector:500 (payload 512);
      Dev.fail stale;
      Mirror.write m ~sync:1 ~sector:500 (payload 1024);
      Mirror.rejoin m;
      let reads = Stats.count (Dev.stats stale) "reads" in
      check_bytes "read serves current bytes" (payload 1024) (Mirror.read m ~sector:500 ~count:2);
      check_int "the stale drive read nothing" reads (Stats.count (Dev.stats stale) "reads");
      check_int "the survivor served" 1 (Stats.count (Dev.stats survivor) "reads");
      check_int "fall-through counted" 1 (Stats.count (Mirror.stats m) "read_repairs");
      check_int "read-repair counted" 1 (Stats.count (Mirror.stats m) "read_repairs");
      check_bytes "repair landed on the rejoined drive" (payload 1024)
        (Dev.peek stale ~sector:500 ~count:2);
      check_string "backlog shrank" "resyncing:1022" (state_label m);
      (* the repaired region is clean now: the same read no longer falls through *)
      ignore (Mirror.read m ~sector:500 ~count:2);
      check_int "no second fall-through" 1 (Stats.count (Mirror.stats m) "read_repairs"))
    [ 1; 2 ]

(* ---- one-copy reads: read_into against read ---- *)

(* A mirror whose drives hold three sectors of data at sector 40. *)
let read_into_rig () =
  let clock, d1, d2, m = make_mirror () in
  Mirror.write m ~sync:2 ~sector:40 (payload (3 * 512));
  (clock, d1, d2, m)

(* Everything a read is observed by: clock, drive and mirror counters. *)
let observed clock d1 d2 m =
  (Clock.now clock, Stats.counters (Dev.stats d1), Stats.counters (Dev.stats d2), Stats.counters (Mirror.stats m))

let test_mirror_read_into_matches_read () =
  (* the last of the three sectors is partial: 2 sectors + 100 bytes *)
  let len = (2 * 512) + 100 in
  let c1, a1, a2, m1 = read_into_rig () in
  let c2, b1, b2, m2 = read_into_rig () in
  let whole = Mirror.read m1 ~sector:40 ~count:3 in
  let dst = Bytes.make (len + 10) 'x' in
  Mirror.read_into m2 ~sector:40 ~count:3 ~dst ~dst_off:7 ~len;
  check_bytes "same bytes" (Bytes.sub whole 0 len) (Bytes.sub dst 7 len);
  check_string "nothing outside the range" "xxxxxxx" (Bytes.sub_string dst 0 7);
  check_string "nothing past len" "xxx" (Bytes.sub_string dst (7 + len) 3);
  check_bool "same clock charge and stats" true (observed c1 a1 a2 m1 = observed c2 b1 b2 m2);
  (* the head stopped at the same place: the next read is sequential on both *)
  let seeks = Stats.count (Dev.stats b1) "seeks" in
  ignore (Mirror.read m1 ~sector:43 ~count:1);
  ignore (Mirror.read m2 ~sector:43 ~count:1);
  check_bool "same head position" true (observed c1 a1 a2 m1 = observed c2 b1 b2 m2);
  check_int "no extra seek" seeks (Stats.count (Dev.stats b1) "seeks")

let test_mirror_read_into_failover () =
  let _clock, d1, _, m = read_into_rig () in
  Dev.fail d1;
  let dst = Bytes.create 700 in
  Mirror.read_into m ~sector:40 ~count:2 ~dst ~dst_off:0 ~len:700;
  check_bytes "served from replica" (Bytes.sub (payload (3 * 512)) 0 700) dst;
  check_int "degraded read" 1 (Stats.count (Mirror.stats m) "degraded_reads")

let test_mirror_read_into_transient_error () =
  let _clock, d1, _, m = read_into_rig () in
  let once = ref true in
  Dev.set_fault_hook d1
    (Some
       (fun ~sector:_ ~count:_ ~write ->
         let fire = (not write) && !once in
         if fire then once := false;
         fire));
  let dst = Bytes.create 512 in
  Mirror.read_into m ~sector:41 ~count:1 ~dst ~dst_off:0 ~len:512;
  check_bytes "replica served the read" (Bytes.sub (payload (3 * 512)) 512 512) dst;
  check_int "failover counted" 1 (Stats.count (Mirror.stats m) "read_failovers");
  check_int "primary logged the soft error" 1 (Stats.count (Dev.stats d1) "transient_errors")

let test_read_into_bad_sector_leaves_dst () =
  let _clock, d1, d2, m = read_into_rig () in
  Dev.set_bad_sector d1 41;
  let dst = Bytes.make 600 'x' in
  (try
     Dev.read_into d1 ~sector:40 ~count:2 ~dst ~dst_off:0 ~len:600;
     Alcotest.fail "expected bad-sector failure"
   with Dev.Failure _ -> ());
  check_string "device: dst untouched" (String.make 600 'x') (Bytes.to_string dst);
  Dev.set_bad_sector d2 41;
  (try
     Mirror.read_into m ~sector:40 ~count:2 ~dst ~dst_off:0 ~len:600;
     Alcotest.fail "expected No_live_drive"
   with Mirror.No_live_drive -> ());
  check_string "mirror: dst untouched" (String.make 600 'x') (Bytes.to_string dst);
  check_int "both drives failed over" 2 (Stats.count (Mirror.stats m) "read_failovers")

let test_read_into_rejects_long_len () =
  let _clock, dev = make_dev () in
  let dst = Bytes.create 2048 in
  (try
     Dev.read_into dev ~sector:0 ~count:1 ~dst ~dst_off:0 ~len:513;
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ());
  (try
     Dev.read_into dev ~sector:0 ~count:1 ~dst ~dst_off:2000 ~len:100;
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ());
  check_int "no access charged" 0 (Stats.count (Dev.stats dev) "reads")

let test_mirror_read_into_repairs_whole_sectors () =
  (* as test_mirror_read_repair, but the read stops 424 bytes short of
     the second sector's end: the stale drive still gets both sectors *)
  let clock, d1, _, m = make_mirror () in
  Mirror.write m ~sync:2 ~sector:500 (payload 512);
  Dev.fail d1;
  Mirror.write m ~sync:1 ~sector:500 (payload 1024);
  Mirror.rejoin m;
  let dst = Bytes.create 600 in
  let before = Clock.now clock in
  Mirror.read_into m ~sector:500 ~count:2 ~dst ~dst_off:0 ~len:600;
  let charged = Clock.now clock - before in
  check_bytes "read serves current bytes" (Bytes.sub (payload 1024) 0 600) dst;
  check_int "read-repair counted" 1 (Stats.count (Mirror.stats m) "read_repairs");
  check_bytes "whole sectors repaired" (payload 1024) (Dev.peek d1 ~sector:500 ~count:2);
  (* the repair is off the measured path: the charge is one two-sector
     read, with a seek (the survivor's head sits at 502) *)
  check_int "repair uncharged"
    (Geometry.access_us geometry ~sequential:false ~write:false 1024)
    charged

(* ---- reads priced against both heads ---- *)

(* Random reads and writes on a two-drive mirror against two references:
   a one-drive oracle for the bytes, and a mirror built here that reads
   every range whole from drive 0, for the charge. No read may cost more
   than the reference's, and every read must return the oracle's bytes.
   With [~faults] the mix also fails either drive, rejoins, runs resync
   steps and recovers; the charge reference no longer applies, and a
   read may raise [No_live_drive] (leaving [dst] untouched) but never
   return stale bytes. *)
let mirror_model ~faults seed =
  let sector_bytes = geometry.Geometry.sector_bytes in
  let rng = Random.State.make [| seed |] in
  let _clock, _, _, m = make_mirror () in
  let _, oracle = make_dev ~id:"oracle" () in
  let ref_clock = Clock.create () in
  let r0 = Dev.create ~id:"r0" ~geometry ~clock:ref_clock
  and r1 = Dev.create ~id:"r1" ~geometry ~clock:ref_clock in
  (* the reference's write-behind, applied before its next operation *)
  let pending = ref [] in
  let ref_drain () =
    List.iter
      (fun (d, sector, data) -> Clock.unobserved ref_clock (fun () -> Dev.write d ~sector data))
      (List.rev !pending);
    pending := []
  in
  (* write faults: a drive whose flag is up raises on every write, for
     the length of one Mirror.write (its drain of earlier writes too) *)
  let write_faults = [| false; false |] in
  List.iteri
    (fun i d ->
      Dev.set_fault_hook d (Some (fun ~sector:_ ~count:_ ~write -> write && write_faults.(i))))
    (Mirror.drives m);
  let served = ref 0 in
  let last_end = ref 0 in
  for step = 1 to 300 do
    let count = 1 + Random.State.int rng 24 in
    let sector =
      if Random.State.int rng 3 = 0 && !last_end + count <= 1024 then !last_end
      else Random.State.int rng (1024 - count + 1)
    in
    last_end := sector + count;
    let what = Printf.sprintf "seed %d step %d" seed step in
    let fault = if faults then Random.State.int rng 32 else 32 in
    (* fail a drive only while both are live, so that the mirror keeps a
       copy of most ranges and most reads are served *)
    if fault = 0 && Mirror.live_count m = 2 then
      Dev.fail (List.nth (Mirror.drives m) (Random.State.int rng 2))
    else if fault = 1 then Mirror.rejoin m
    else if fault >= 2 && fault <= 5 then
      ignore (Mirror.resync_step ~batch:(1 + Random.State.int rng 256) m)
    else if fault = 6 then (try Mirror.recover m with Mirror.No_live_drive -> ())
    else if Random.State.int rng 3 = 0 then begin
      let data =
        Bytes.init (count * sector_bytes) (fun _ -> Char.chr (Random.State.int rng 256))
      in
      let sync = Random.State.int rng 3 in
      (* one write in four faults drive 1, drive 2 or both *)
      if faults && Random.State.int rng 4 = 0 then begin
        let which = Random.State.int rng 3 in
        write_faults.(0) <- which <> 1;
        write_faults.(1) <- which <> 0
      end;
      let outcome = try Ok (Mirror.write m ~sync ~sector data) with e -> Error e in
      write_faults.(0) <- false;
      write_faults.(1) <- false;
      match outcome with
      | Error Mirror.No_live_drive -> check_bool (what ^ ": faults only") true faults
      | Error e -> raise e
      | Ok () ->
        Dev.poke oracle ~sector data;
        ref_drain ();
        let writes = [ (r0, sector, data); (r1, sector, data) ] in
        let foreground = List.filteri (fun i _ -> i < sync) writes in
        ignore
          (Clock.parallel ref_clock
             (List.map (fun (d, sector, data) () -> Dev.write d ~sector data) foreground));
        pending := List.rev (List.filteri (fun i _ -> i >= sync) writes)
    end
    else begin
      let len = 1 + Random.State.int rng (count * sector_bytes) in
      let dst_off = Random.State.int rng 8 in
      let dst = Bytes.make (dst_off + len + 8) '?' in
      match
        Clock.elapsed (Mirror.clock m) (fun () ->
            Mirror.read_into m ~sector ~count ~dst ~dst_off ~len)
      with
      | exception Mirror.No_live_drive ->
        check_bool (what ^ ": faults only") true faults;
        check_string (what ^ ": failed read leaves dst") (String.make (Bytes.length dst) '?')
          (Bytes.to_string dst)
      | (), charged ->
        incr served;
        check_bytes (what ^ ": oracle bytes")
          (Bytes.sub (Dev.peek oracle ~sector ~count) 0 len)
          (Bytes.sub dst dst_off len);
        check_string (what ^ ": nothing before dst_off") (String.make dst_off '?')
          (Bytes.sub_string dst 0 dst_off);
        check_string (what ^ ": nothing past len") "????????"
          (Bytes.sub_string dst (dst_off + len) 8);
        if not faults then begin
          ref_drain ();
          let (_ : bytes), reference =
            Clock.elapsed ref_clock (fun () -> Dev.read r0 ~sector ~count)
          in
          if charged > reference then
            Alcotest.failf "%s: read [%d, +%d) charged %d us, drive 0 alone %d us" what sector
              count charged reference
        end
    end
  done;
  check_bool (Printf.sprintf "seed %d: reads were served" seed) true (!served > 0);
  if not faults then
    check_bool (Printf.sprintf "seed %d: drive 2 served reads" seed) true
      (Stats.count (Dev.stats (List.nth (Mirror.drives m) 1)) "reads" > 0)

let test_mirror_read_plan_model () = List.iter (mirror_model ~faults:false) [ 1; 2; 3; 4; 5; 6; 7; 8 ]

let test_mirror_fault_model () =
  List.iter (mirror_model ~faults:true) [ 11; 12; 13; 14; 15; 16; 17; 18; 19; 20; 21; 22 ]

(* Heads together at sector 48 after a mirrored write: a read elsewhere
   splits, drive 1 reading the first half and drive 2 the second. *)
let split_rig () =
  let clock, d1, d2, m = make_mirror () in
  Mirror.write m ~sync:2 ~sector:200 (payload (8 * 512));
  Mirror.write m ~sync:2 ~sector:40 (payload (8 * 512));
  (clock, d1, d2, m)

let test_mirror_read_splits () =
  let clock, d1, d2, m = split_rig () in
  let ctx = Amoeba_trace.Trace.create ~clock () in
  Mirror.set_tracer m (Some ctx);
  let (), charged =
    Clock.elapsed clock (fun () ->
        check_bytes "split read bytes" (payload (8 * 512)) (Mirror.read m ~sector:200 ~count:8))
  in
  check_int "half the transfer, one seek"
    (Geometry.access_us geometry ~sequential:false ~write:false (4 * 512))
    charged;
  check_int "drive 1 read the first half" 4 (Stats.count (Dev.stats d1) "sectors_read");
  check_int "drive 2 read the second half" 4 (Stats.count (Dev.stats d2) "sectors_read");
  let module Sink = Amoeba_trace.Sink in
  let spans = Sink.spans (Amoeba_trace.Trace.sink ctx) in
  match List.filter (fun s -> s.Sink.name = "mirror.read") spans with
  | [ read ] ->
    let children =
      List.filter (fun s -> s.Sink.parent_id = read.Sink.span_id && s.Sink.name = "disk.read") spans
    in
    check_int "two disk.read children" 2 (List.length children);
    check_bool "one per drive" true
      (List.sort compare (List.map (fun s -> List.assoc "drive" s.Sink.attrs) children)
      = [ Sink.S "d1"; Sink.S "d2" ])
  | _ -> Alcotest.fail "expected one mirror.read span"

let test_mirror_split_half_fails_over () =
  let _clock, d1, d2, m = split_rig () in
  let once = ref true in
  Dev.set_fault_hook d2
    (Some
       (fun ~sector:_ ~count:_ ~write ->
         let fire = (not write) && !once in
         if fire then once := false;
         fire));
  let dst = Bytes.make (8 * 512) 'x' in
  Mirror.read_into m ~sector:200 ~count:8 ~dst ~dst_off:0 ~len:(8 * 512);
  check_bytes "both halves landed" (payload (8 * 512)) dst;
  check_int "one failover" 1 (Stats.count (Mirror.stats m) "read_failovers");
  check_int "drive 2 logged the soft error" 1 (Stats.count (Dev.stats d2) "transient_errors");
  check_int "drive 1 served both halves" 8 (Stats.count (Dev.stats d1) "sectors_read")

let test_mirror_split_bad_sector_one_drive () =
  let clock, d1, d2, m = split_rig () in
  (* in the second half, on the drive that reads the second half *)
  Dev.set_bad_sector d2 205;
  let dst = Bytes.make (8 * 512) 'x' in
  let (), charged =
    Clock.elapsed clock (fun () ->
        Mirror.read_into m ~sector:200 ~count:8 ~dst ~dst_off:0 ~len:(8 * 512))
  in
  check_bytes "served around the bad sector" (payload (8 * 512)) dst;
  check_int "one failover" 1 (Stats.count (Mirror.stats m) "read_failovers");
  check_int "drive 1 read everything" 8 (Stats.count (Dev.stats d1) "sectors_read");
  check_int "drive 2 read nothing" 0 (Stats.count (Dev.stats d2) "sectors_read");
  (* drive 1 reads the second half after its own, so the read costs the
     two accesses back to back *)
  check_int "two accesses in sequence"
    (Geometry.access_us geometry ~sequential:false ~write:false (4 * 512)
    + Geometry.access_us geometry ~sequential:true ~write:false (4 * 512))
    charged;
  check_int "on the split rig" 30_745 charged

(* ---- a write that one drive raises on ---- *)

let fill c = Bytes.make (8 * 512) c

(* 'A' on both drives at sectors 200-207, then a bad sector at 205 on
   drive 2 under the rewrite with 'B'. *)
let test_mirror_write_bad_sector_one_drive () =
  let clock, d1, d2, m = make_mirror () in
  Mirror.write m ~sync:2 ~sector:200 (fill 'A');
  Dev.set_bad_sector d2 205;
  let (), charged = Clock.elapsed clock (fun () -> Mirror.write m ~sync:2 ~sector:200 (fill 'B')) in
  check_int "charged for drive 1's arm"
    (Geometry.access_us geometry ~sequential:false ~write:true (8 * 512))
    charged;
  check_bytes "drive 1 took it" (fill 'B') (Dev.peek d1 ~sector:200 ~count:8);
  check_bytes "drive 2 kept its old bytes" (fill 'A') (Dev.peek d2 ~sector:200 ~count:8);
  check_string "the range is dirty on drive 2" "resyncing:8" (state_label m);
  check_int "write failure counted" 1 (Stats.count (Mirror.stats m) "write_failures");
  check_bytes "the next read is the new version, whole" (fill 'B')
    (Mirror.read m ~sector:200 ~count:8);
  Dev.clear_bad_sector d2 205;
  check_int "resync copies the range" 8 (Mirror.resync_step m);
  check_string "clean again" "clean" (state_label m);
  check_bytes "drive 2 caught up" (fill 'B') (Dev.peek d2 ~sector:200 ~count:8)

let test_mirror_write_fault_promotes_background () =
  (* P-FACTOR 1 and the critical-path drive raises: drive 2 takes the
     write synchronously instead of behind the reply *)
  let clock, d1, d2, m = make_mirror () in
  Mirror.write m ~sync:2 ~sector:200 (fill 'A');
  Dev.set_bad_sector d1 203;
  let (), charged = Clock.elapsed clock (fun () -> Mirror.write m ~sync:1 ~sector:200 (fill 'B')) in
  check_int "drive 2 written after drive 1 raised"
    (Geometry.access_us geometry ~sequential:false ~write:true (8 * 512))
    charged;
  check_int "nothing left behind the reply" 0 (Mirror.pending_count m);
  check_bytes "drive 2 holds it" (fill 'B') (Dev.peek d2 ~sector:200 ~count:8);
  check_bytes "drive 1 kept its old bytes" (fill 'A') (Dev.peek d1 ~sector:200 ~count:8);
  check_string "the range is dirty on drive 1" "resyncing:8" (state_label m);
  check_bytes "reads the new version" (fill 'B') (Mirror.read m ~sector:200 ~count:8)

let test_mirror_write_fault_everywhere () =
  (* no drive takes it: the write raises and the old version stands *)
  let _clock, d1, d2, m = make_mirror () in
  Mirror.write m ~sync:2 ~sector:200 (fill 'A');
  Dev.set_bad_sector d1 201;
  Dev.set_bad_sector d2 206;
  (match Mirror.write m ~sync:2 ~sector:200 (fill 'B') with
  | () -> Alcotest.fail "a write no drive took must raise"
  | exception Mirror.No_live_drive -> ());
  check_string "nothing marked" "clean" (state_label m);
  check_int "no failure recorded" 0 (Stats.count (Mirror.stats m) "write_failures");
  Dev.clear_bad_sector d1 201;
  Dev.clear_bad_sector d2 206;
  check_bytes "the old version stands" (fill 'A') (Mirror.read m ~sector:200 ~count:8)

let test_mirror_background_write_fault () =
  (* P-FACTOR 0: the write raises only when it is applied, before the
     next operation *)
  let _clock, _d1, d2, m = make_mirror () in
  Mirror.write m ~sync:2 ~sector:200 (fill 'A');
  Mirror.write m ~sync:0 ~sector:200 (fill 'B');
  Dev.set_bad_sector d2 200;
  check_bytes "served from the drive that took it" (fill 'B') (Mirror.read m ~sector:200 ~count:8);
  check_string "the range is dirty on drive 2" "resyncing:8" (state_label m);
  check_bytes "drive 2 kept its old bytes" (fill 'A') (Dev.peek d2 ~sector:200 ~count:8)

(* Drive 2 took a failed write over its bad sector 100 and can never take
   that range back; drive 3 missed one write while offline and rejoined.
   The steps pass drive 2 over and drain drive 3. *)
let test_mirror_resync_passes_stuck_drive () =
  let clock = Clock.create () in
  let dev id = Dev.create ~id ~geometry ~clock in
  let d1 = dev "d1" and d2 = dev "d2" and d3 = dev "d3" in
  let m = Mirror.create [ d1; d2; d3 ] in
  Dev.set_bad_sector d2 100;
  Mirror.write m ~sync:3 ~sector:100 (fill 'A');
  Dev.fail d3;
  Mirror.write m ~sync:2 ~sector:300 (fill 'B');
  Mirror.rejoin m;
  check_string "both drives behind" "resyncing:1032" (state_label m);
  let rec drain steps = if steps < 16 && Mirror.resync_step m > 0 then drain (steps + 1) in
  drain 0;
  check_string "only drive 2's bad range is left" "resyncing:8" (state_label m);
  check_int "a further step moves nothing" 0 (Mirror.resync_step m);
  check_bytes "drive 3 holds the write it missed" (fill 'B') (Dev.peek d3 ~sector:300 ~count:8);
  check_bytes "and the one drive 2 failed" (fill 'A') (Dev.peek d3 ~sector:100 ~count:8)

let test_mirror_recover_skips_resyncing () =
  (* d1 rejoins and is still resyncing when d2, the only current copy,
     fails: recover has no current source and must change nothing *)
  let _clock, d1, d2, m = make_mirror () in
  Mirror.write m ~sync:2 ~sector:100 (Bytes.make 512 'A');
  Dev.fail d1;
  Mirror.write m ~sync:2 ~sector:100 (Bytes.make 512 'B');
  Mirror.rejoin m;
  Dev.fail d2;
  (try
     Mirror.recover m;
     Alcotest.fail "expected No_live_drive"
   with Mirror.No_live_drive -> ());
  check_bool "d2 still failed" true (Dev.is_failed d2);
  check_bytes "d2 keeps the current copy" (Bytes.make 512 'B') (Dev.peek d2 ~sector:100 ~count:1);
  check_bytes "d1 untouched" (Bytes.make 512 'A') (Dev.peek d1 ~sector:100 ~count:1);
  check_int "no resync counted" 0 (Stats.count (Mirror.stats m) "resyncs");
  (try
     ignore (Mirror.read m ~sector:100 ~count:1);
     Alcotest.fail "stale bytes served"
   with Mirror.No_live_drive -> ())

let test_mirror_resync_read_stays_whole () =
  let clock, d1, d2, m = split_rig () in
  Dev.fail d1;
  let fresh = Bytes.make (8 * 512) 'n' in
  Mirror.write m ~sync:2 ~sector:200 fresh;
  Mirror.rejoin m;
  let reads1 = Stats.count (Dev.stats d1) "reads" and reads2 = Stats.count (Dev.stats d2) "reads" in
  let (), charged =
    Clock.elapsed clock (fun () ->
        check_bytes "current bytes" fresh (Mirror.read m ~sector:200 ~count:8))
  in
  check_int "one whole read from the clean drive" (reads2 + 1) (Stats.count (Dev.stats d2) "reads");
  check_int "the stale drive read nothing" reads1 (Stats.count (Dev.stats d1) "reads");
  check_int "whole-range charge"
    (Geometry.access_us geometry ~sequential:false ~write:false (8 * 512))
    charged;
  check_int "read-repair" 1 (Stats.count (Mirror.stats m) "read_repairs");
  check_bytes "repaired" fresh (Dev.peek d1 ~sector:200 ~count:8)

let test_mirror_degraded_charges_one_drive () =
  (* every operation on a degraded mirror costs what it costs on the
     surviving drive alone *)
  let clock, _, d2, m = make_mirror () in
  Dev.fail d2;
  let lone_clock, lone = make_dev ~id:"lone" () in
  let ops =
    [ `Write (100, 8); `Read (100, 8); `Read (108, 4); `Read (600, 16); `Write (616, 2);
      `Read (618, 1); `Read (10, 2) ]
  in
  List.iter
    (fun op ->
      let mirror_us, lone_us =
        match op with
        | `Write (sector, count) ->
          let data = payload (count * 512) in
          ( snd (Clock.elapsed clock (fun () -> Mirror.write m ~sync:2 ~sector data)),
            snd (Clock.elapsed lone_clock (fun () -> Dev.write lone ~sector data)) )
        | `Read (sector, count) ->
          ( snd (Clock.elapsed clock (fun () -> ignore (Mirror.read m ~sector ~count))),
            snd (Clock.elapsed lone_clock (fun () -> ignore (Dev.read lone ~sector ~count))) )
      in
      check_int "same charge as the lone drive" lone_us mirror_us)
    ops

let test_mirror_foreground_write_clears_dirty () =
  let _clock, _, d2, m = make_mirror () in
  Dev.fail d2;
  Mirror.rejoin m;
  Mirror.write m ~sync:2 ~sector:40 (payload 1024);
  (match Mirror.sync_state m with
  | Mirror.Resyncing { sectors_remaining } ->
    check_int "foreground write shrank the backlog" (1024 - 2) sectors_remaining
  | _ -> Alcotest.fail "expected Resyncing");
  check_bytes "write landed on the resyncing drive" (payload 1024) (Dev.peek d2 ~sector:40 ~count:2)

let test_mirror_resync_fsck_at_checkpoints () =
  (* At every point of a paced resync the file system the mirror carries
     must pass its own audit: reads fall through to clean copies, so the
     inode scan never sees stale bytes. *)
  let rig = make_rig ~sectors:2048 () in
  let m = rig.mirror in
  Bullet_core.Server.format m ~max_files:64;
  let server, _ = Result.get_ok (Bullet_core.Server.start m) in
  let transport = Amoeba_rpc.Transport.create ~clock:rig.clock in
  Bullet_core.Proto.serve server transport;
  let client = Bullet_core.Client.connect transport (Bullet_core.Server.port server) in
  let caps =
    List.init 8 (fun i -> Bullet_core.Client.create client ~p_factor:2 (payload (4096 + (512 * i))))
  in
  Dev.fail rig.drive1;
  (* churn during the outage so the rejoined drive is genuinely stale *)
  let (_ : Amoeba_cap.Capability.t) =
    Bullet_core.Client.create client ~p_factor:2 (payload 8192)
  in
  Mirror.rejoin m;
  let audit () =
    match Bullet_core.Inode_table.load m with
    | Ok (_, report) -> check_int "no repairs needed" 0 (List.length report.Bullet_core.Inode_table.repaired)
    | Error e -> Alcotest.failf "fsck failed mid-resync: %s" e
  in
  audit ();
  let steps = ref 0 in
  while Mirror.resync_step ~batch:128 m > 0 do
    incr steps;
    audit ()
  done;
  check_bool "resync made progress" true (!steps > 0);
  check_string "clean at the end" "clean" (state_label m);
  (* every pre-outage file still reads back *)
  List.iteri
    (fun i cap ->
      check_bytes
        (Printf.sprintf "file %d intact" i)
        (payload (4096 + (512 * i)))
        (Bullet_core.Client.read client cap))
    caps

let suite =
  ( "disk",
    [
      Alcotest.test_case "geometry capacity" `Quick test_capacity;
      Alcotest.test_case "geometry sectors_for rounds up" `Quick test_sectors_for;
      Alcotest.test_case "geometry sequential cheaper" `Quick test_sequential_cheaper;
      Alcotest.test_case "geometry write penalty" `Quick test_write_penalty;
      Alcotest.test_case "geometry transfer linear" `Quick test_transfer_linear;
      Alcotest.test_case "device read/write roundtrip" `Quick test_rw_roundtrip;
      Alcotest.test_case "device starts zeroed" `Quick test_fresh_device_zeroed;
      Alcotest.test_case "device write wants whole sectors" `Quick test_write_requires_sector_multiple;
      Alcotest.test_case "device range check" `Quick test_out_of_range_rejected;
      Alcotest.test_case "device read charges time" `Quick test_read_charges_time;
      Alcotest.test_case "device sequential cheaper" `Quick test_sequential_read_cheaper_on_device;
      Alcotest.test_case "device seek statistics" `Quick test_seek_stats;
      Alcotest.test_case "device fail and repair" `Quick test_fail_and_repair;
      Alcotest.test_case "device bad sector" `Quick test_bad_sector;
      Alcotest.test_case "device whole-disk copy" `Quick test_copy_from;
      Alcotest.test_case "device peek/poke untimed" `Quick test_peek_poke_free;
      Alcotest.test_case "mirror writes all drives" `Quick test_mirror_writes_both;
      Alcotest.test_case "mirror parallel sync writes" `Quick test_mirror_sync_parallel_equals_one;
      Alcotest.test_case "mirror sync=0 is free" `Quick test_mirror_sync_zero_costs_nothing;
      Alcotest.test_case "mirror drains pending before read" `Quick test_mirror_pending_drains_before_read;
      Alcotest.test_case "mirror crash discards pending" `Quick test_mirror_crash_discards_pending;
      Alcotest.test_case "mirror sync=1 survives crash on primary" `Quick
        test_mirror_sync_one_survives_crash_on_primary;
      Alcotest.test_case "mirror read failover" `Quick test_mirror_read_failover;
      Alcotest.test_case "mirror no live drive" `Quick test_mirror_no_live_drive;
      Alcotest.test_case "mirror sync clamped to live drives" `Quick test_mirror_sync_clamped;
      Alcotest.test_case "mirror recover copies disk" `Quick test_mirror_recover;
      Alcotest.test_case "mirror write skips failed drive" `Quick test_mirror_write_skips_failed_drive;
      Alcotest.test_case "mirror pending to failed drive dropped" `Quick
        test_mirror_pending_to_failed_drive_dropped;
      Alcotest.test_case "mirror degraded-read and resync stats" `Quick test_mirror_degraded_stats;
      Alcotest.test_case "mirror failover on transient error" `Quick
        test_mirror_failover_on_transient_error;
      Alcotest.test_case "device fault hook install/remove" `Quick test_device_fault_hook_removable;
      Alcotest.test_case "mirror read_into matches read" `Quick test_mirror_read_into_matches_read;
      Alcotest.test_case "mirror read_into fails over" `Quick test_mirror_read_into_failover;
      Alcotest.test_case "mirror read_into on a transient error" `Quick
        test_mirror_read_into_transient_error;
      Alcotest.test_case "read_into bad sector leaves dst untouched" `Quick
        test_read_into_bad_sector_leaves_dst;
      Alcotest.test_case "device read_into range check" `Quick test_read_into_rejects_long_len;
      Alcotest.test_case "mirror read_into repairs whole sectors" `Quick
        test_mirror_read_into_repairs_whole_sectors;
      Alcotest.test_case "mirror read never costs more than drive 0 alone" `Quick
        test_mirror_read_plan_model;
      Alcotest.test_case "mirror read splits across both arms" `Quick test_mirror_read_splits;
      Alcotest.test_case "mirror split half fails over" `Quick test_mirror_split_half_fails_over;
      Alcotest.test_case "mirror split around a bad sector on one drive" `Quick
        test_mirror_split_bad_sector_one_drive;
      Alcotest.test_case "mirror write with a bad sector on one drive" `Quick
        test_mirror_write_bad_sector_one_drive;
      Alcotest.test_case "mirror resync passes over a drive that cannot take its copy" `Quick
        test_mirror_resync_passes_stuck_drive;
      Alcotest.test_case "mirror write fault moves a background drive forward" `Quick
        test_mirror_write_fault_promotes_background;
      Alcotest.test_case "mirror write no drive takes raises" `Quick
        test_mirror_write_fault_everywhere;
      Alcotest.test_case "mirror background write fault" `Quick test_mirror_background_write_fault;
      Alcotest.test_case "mirror recover never copies from a resyncing drive" `Quick
        test_mirror_recover_skips_resyncing;
      Alcotest.test_case "mirror reads under fail/rejoin/resync/recover match the oracle" `Quick
        test_mirror_fault_model;
      Alcotest.test_case "mirror read during resync stays whole" `Quick
        test_mirror_resync_read_stays_whole;
      Alcotest.test_case "mirror degraded read charges one drive" `Quick
        test_mirror_degraded_charges_one_drive;
      Alcotest.test_case "dirty mark/clear/remaining" `Quick test_dirty_mark_clear;
      Alcotest.test_case "dirty mark_all" `Quick test_dirty_mark_all;
      Alcotest.test_case "dirty next_run bounded, not clearing" `Quick test_dirty_next_run;
      Alcotest.test_case "dirty next_run wraps around" `Quick test_dirty_next_run_wraps;
      Alcotest.test_case "mirror sync-state transitions" `Quick test_mirror_sync_state_transitions;
      Alcotest.test_case "mirror resync step is bounded and timed" `Quick
        test_mirror_resync_step_bounded;
      Alcotest.test_case "mirror resync converges byte for byte" `Quick
        test_mirror_resync_converges_bytes;
      Alcotest.test_case "mirror read-repair during resync" `Quick test_mirror_read_repair;
      Alcotest.test_case "mirror foreground write clears dirty" `Quick
        test_mirror_foreground_write_clears_dirty;
      Alcotest.test_case "mirror fsck passes at every resync checkpoint" `Quick
        test_mirror_resync_fsck_at_checkpoints;
    ] )
