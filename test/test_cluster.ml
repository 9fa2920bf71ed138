(* Tests for the sharded cluster: consistent-hash ring placement,
   rebalance determinism and resumption, and the fall-through /
   read-repair path a migration leaves behind. *)

open Helpers
module Ring = Amoeba_cluster.Ring
module Cluster = Amoeba_cluster.Cluster

(* ---- ring ---- *)

(* The circle positions are pure functions of the name; pinning exact
   values pins placement (and therefore every checkpoint downstream)
   across machines and compiler versions. *)
let test_ring_positions_pinned () =
  Alcotest.(check int64) "shard-000" 4931216648381342459L (Ring.position_of "shard-000");
  Alcotest.(check int64) "shard-001" (-4987368217445684183L) (Ring.position_of "shard-001");
  Alcotest.(check int64) "obj-007" 923434638028122605L (Ring.position_of "obj-007");
  (* trailing-byte avalanche: consecutive names must not land a fixed
     stride apart (raw FNV-1a does exactly that) *)
  let d a b = Int64.sub (Ring.position_of a) (Ring.position_of b) in
  check_bool "no fixed stride" false (d "shard-001" "shard-000" = d "shard-002" "shard-001")

let five_ring () =
  List.fold_left Ring.add Ring.empty [ "a"; "b"; "c"; "d"; "e" ]

let keys200 = List.init 200 (fun i -> Printf.sprintf "key-%03d" i)

let test_ring_membership () =
  let r = five_ring () in
  check_bool "members sorted" true (Ring.members r = [ "a"; "b"; "c"; "d"; "e" ]);
  check_int "size" 5 (Ring.size r);
  check_bool "mem" true (Ring.mem r "c");
  let r' = Ring.remove r "c" in
  check_bool "removed" false (Ring.mem r' "c");
  check_bool "original untouched" true (Ring.mem r "c");
  (try
     ignore (Ring.add r "a");
     Alcotest.fail "duplicate member accepted"
   with Invalid_argument _ -> ());
  (try
     ignore (Ring.remove r "zz");
     Alcotest.fail "unknown member removed"
   with Invalid_argument _ -> ())

let test_ring_owners () =
  let r = five_ring () in
  List.iter
    (fun key ->
      let g = Ring.owners r ~r:2 key in
      check_int "group size" 2 (List.length g);
      check_bool "distinct" true (List.sort_uniq String.compare g = List.sort String.compare g))
    keys200;
  (* r larger than the ring degrades to every member, once *)
  let solo = Ring.add Ring.empty "only" in
  check_bool "solo" true (Ring.owners solo ~r:3 "k" = [ "only" ]);
  check_bool "empty ring" true (Ring.owners Ring.empty ~r:2 "k" = [])

(* Adding one server to five moves ~R/N of the keys' groups and leaves
   the rest byte-identical — the whole point of consistent hashing.
   The count is pinned exactly: placement is deterministic. *)
let test_ring_join_moves_a_fraction () =
  let before = five_ring () in
  let after = Ring.add before "f" in
  let moved = Ring.moved ~before ~after ~r:2 keys200 in
  check_int "exactly 65 of 200 keys move (~ R/N)" 65 (List.length moved);
  check_bool "key-000 group change pinned" true
    (Ring.owners before ~r:2 "key-000" = [ "d"; "a" ]
    && Ring.owners after ~r:2 "key-000" = [ "d"; "f" ]);
  List.iter
    (fun key ->
      let changed = Ring.owners before ~r:2 key <> Ring.owners after ~r:2 key in
      check_bool "moved iff group changed" changed (List.mem key moved))
    keys200;
  (* a single join can never evict BOTH old owners: the survivor is what
     lets mid-migration reads keep hitting a desired replica *)
  List.iter
    (fun key ->
      let old_g = Ring.owners before ~r:2 key and new_g = Ring.owners after ~r:2 key in
      check_bool "one old owner survives" true
        (List.exists (fun m -> List.mem m new_g) old_g))
    keys200

(* ---- cluster ---- *)

let cluster_keys n = List.init n (fun i -> Printf.sprintf "key-%03d" i)

let boot_cluster ?(names = [ ("ant", "west"); ("bee", "west"); ("cow", "east") ]) n =
  let c = Cluster.create () in
  List.iter (fun (name, region) -> Cluster.add_server c ~name ~region) names;
  ignore (Cluster.rebalance c);
  List.iter
    (fun (i, key) -> Cluster.put c ~from:"west" ~key (payload (256 + (i * 64))))
    (List.mapi (fun i k -> (i, k)) (cluster_keys n));
  c

let test_cluster_placement_and_spread () =
  let c = boot_cluster 24 in
  List.iter
    (fun key ->
      let holders = Cluster.holders c key in
      check_int "R copies" 2 (List.length holders);
      check_bool "holders are the desired group" true
        (List.sort String.compare (Cluster.desired c key) = holders))
    (cluster_keys 24);
  check_int "objects_total" 24 (Cluster.objects_total c);
  check_bool "nothing under-replicated" true (Cluster.under_replicated c = [])

(* The same build twice must leave byte-identical checkpoints: every
   capability, holder list and server line. *)
let test_cluster_determinism () =
  let episode () =
    let c = boot_cluster 24 in
    Cluster.add_server c ~name:"dog" ~region:"east";
    ignore (Cluster.rebalance c);
    Cluster.kill_server c "bee";
    ignore (Cluster.rebalance c);
    Cluster.checkpoint c
  in
  let a = episode () and b = episode () in
  check_string "double run byte-identical" a b;
  match Cluster.parse_checkpoint a with
  | Error e -> Alcotest.failf "checkpoint does not parse: %s" e
  | Ok info ->
    check_int "servers" 4 (List.length info.Cluster.ck_servers);
    check_int "objects" 24 (List.length info.Cluster.ck_objects);
    check_bool "bee recorded dead" true
      (List.mem ("bee", "west", "dead") info.Cluster.ck_servers)

(* A membership change marks exactly the ring-delta shards. *)
let test_cluster_join_marks_ring_delta () =
  let c = boot_cluster 24 in
  let before = Cluster.ring c in
  Cluster.add_server c ~name:"dog" ~region:"east";
  let after = Cluster.ring c in
  let r = Cluster.replicas in
  let expected =
    List.length
      (List.filter
         (fun i ->
           let k = Cluster.shard_key i in
           Ring.owners before ~r k <> Ring.owners after ~r k)
         (List.init Cluster.shards Fun.id))
  in
  check_int "delta marked exactly" expected (Cluster.shards_remaining c);
  check_bool "a strict subset" true (expected > 0 && expected < Cluster.shards)

(* A step copies at most four objects; a shard needing more is left
   dirty, and the next step must resume that same shard rather than move
   on.  Which shard a step worked on shows in the keys that gained a
   holder during it. *)
let test_cluster_interrupted_step_resumes () =
  let c = Cluster.create () in
  List.iter
    (fun (name, region) -> Cluster.add_server c ~name ~region)
    [ ("ant", "west"); ("bee", "west"); ("cow", "east") ];
  ignore (Cluster.rebalance c);
  let keys = cluster_keys 240 in
  List.iter (fun key -> Cluster.put c ~from:"west" ~key (payload 128)) keys;
  Cluster.add_server c ~name:"dog" ~region:"east";
  let step () =
    let before = List.map (fun key -> (key, Cluster.holders c key)) keys in
    let remaining = Cluster.shards_remaining c in
    let copied = Cluster.rebalance_step c in
    let gained =
      List.filter_map
        (fun (key, held) ->
          if List.exists (fun srv -> not (List.mem srv held)) (Cluster.holders c key) then
            Some (Cluster.shard_of key)
          else None)
        before
    in
    (copied, List.sort_uniq Int.compare gained, Cluster.shards_remaining c = remaining)
  in
  let interruptions = ref 0 in
  let rec drain prev =
    if Cluster.rebalancing c then begin
      let copied, shards, unfinished = step () in
      check_bool "a step works on one shard" true (List.length shards <= 1);
      (match prev with
      | Some s ->
        incr interruptions;
        check_bool "the interrupted shard resumes" true (shards = [ s ])
      | None -> ());
      drain (match shards with [ s ] when unfinished && copied > 0 -> Some s | _ -> None)
    end
  in
  drain None;
  check_bool "some step ran out of batch mid-shard" true (!interruptions > 0);
  check_bool "healed" true (Cluster.under_replicated c = [])

(* Two joins can replace BOTH members of a group (one join never can);
   a read of such an orphaned key must fall through to an old holder and
   read-repair a desired copy — without waiting for the rebalancer. *)
let test_cluster_read_through_migration_repairs () =
  let c = boot_cluster 32 in
  Cluster.add_server c ~name:"dog" ~region:"east";
  Cluster.add_server c ~name:"emu" ~region:"west";
  let orphans =
    List.filter
      (fun key ->
        let holders = Cluster.holders c key and group = Cluster.desired c key in
        List.for_all (fun srv -> not (List.mem srv group)) holders)
      (cluster_keys 32)
  in
  check_bool "the double join orphaned some group" true (orphans <> []);
  let key = List.hd orphans in
  let st = Cluster.stats c in
  let f0 = Amoeba_sim.Stats.count st "fallthroughs" in
  let r0 = Amoeba_sim.Stats.count st "read_repairs" in
  let data = Cluster.get c ~from:"east" key in
  check_bool "right bytes" true (Bytes.length data > 0);
  check_int "fell through" (f0 + 1) (Amoeba_sim.Stats.count st "fallthroughs");
  check_int "repaired" (r0 + 1) (Amoeba_sim.Stats.count st "read_repairs");
  check_bool "a desired replica now holds it" true
    (List.exists (fun srv -> List.mem srv (Cluster.desired c key)) (Cluster.holders c key));
  (* a second read routes to the repaired desired copy: no new fallthrough *)
  let (_ : bytes) = Cluster.get c ~from:"east" key in
  check_int "no second fallthrough" (f0 + 1) (Amoeba_sim.Stats.count st "fallthroughs")

(* A kill drops replicas; the drain restores R copies on the survivors. *)
let test_cluster_kill_heals () =
  let c = boot_cluster 24 in
  Cluster.kill_server c "bee";
  check_bool "under-replicated after the kill" true (Cluster.under_replicated c <> []);
  ignore (Cluster.rebalance c);
  check_bool "healed" true (Cluster.under_replicated c = []);
  List.iter
    (fun key ->
      let holders = Cluster.holders c key in
      check_int "R copies" 2 (List.length holders);
      check_bool "none on the corpse" false (List.mem "bee" holders))
    (cluster_keys 24);
  (* every byte still readable *)
  List.iter (fun key -> ignore (Cluster.get c ~from:"east" key)) (cluster_keys 24)

let test_cluster_checkpoint_parse_errors () =
  (match Cluster.parse_checkpoint "shards 64\nreplicas nope\n" with
  | Ok _ -> Alcotest.fail "bad replica count accepted"
  | Error e -> check_string "line pinned" "checkpoint line 2: bad replica count \"nope\"" e);
  match Cluster.parse_checkpoint "object k broken\n" with
  | Ok _ -> Alcotest.fail "bad holder accepted"
  | Error e -> check_string "holder pinned" "checkpoint line 1: malformed holder \"broken\"" e

let suite =
  ( "cluster",
    [
      Alcotest.test_case "ring positions are pinned" `Quick test_ring_positions_pinned;
      Alcotest.test_case "ring membership" `Quick test_ring_membership;
      Alcotest.test_case "ring owner groups" `Quick test_ring_owners;
      Alcotest.test_case "a join moves ~R/N keys, pinned exactly" `Quick
        test_ring_join_moves_a_fraction;
      Alcotest.test_case "placement puts R copies on the desired group" `Quick
        test_cluster_placement_and_spread;
      Alcotest.test_case "rebalance is byte-deterministic" `Quick test_cluster_determinism;
      Alcotest.test_case "a join marks exactly the ring delta" `Quick
        test_cluster_join_marks_ring_delta;
      Alcotest.test_case "an interrupted step resumes its shard" `Quick
        test_cluster_interrupted_step_resumes;
      Alcotest.test_case "reads through a migration fall through and repair" `Quick
        test_cluster_read_through_migration_repairs;
      Alcotest.test_case "a kill heals back to R copies" `Quick test_cluster_kill_heals;
      Alcotest.test_case "checkpoint parse errors carry the line" `Quick
        test_cluster_checkpoint_parse_errors;
    ] )
