open Common

type frag_report = {
  files_written : int;
  disk_utilisation : float;
  fragmentation_before : float;
  largest_hole_before : int;
  compaction_moved_blocks : int;
  compaction_us : int;
  fragmentation_after : float;
}

let fragmentation_experiment ?(churn_ops = 1_500) ?(seed = 0xF4A6L) () =
  (* A deliberately small disk (8 MB) so the fill phases reach real
     allocation pressure — the paper's trade-off in miniature: "buying,
     say, an 800 MB disk to store 500 MB worth of files". *)
  let bed = make_bullet_bed ~sectors:16_384 () in
  let server = bed.b_server in
  let prng = Prng.create ~seed in
  let live = ref [] in
  let written = ref 0 in
  let sample_size () = min 200_000 (4_096 + (8 * Workload.Sizes.sample prng)) in
  let create_one () =
    match Server.create server (Bytes.make (sample_size ()) 'f') with
    | Ok cap ->
      incr written;
      live := cap :: !live;
      true
    | Error _ -> false
  in
  (* phase 1: fill until the first allocation failure *)
  let rec fill budget = if budget > 0 && create_one () then fill (budget - 1) in
  fill churn_ops;
  (* phase 2: punch holes — delete roughly every third file *)
  let keep, doomed = List.partition (fun _ -> Prng.int prng 3 <> 0) !live in
  List.iter (fun cap -> ignore (Server.delete server cap)) doomed;
  live := keep;
  (* phase 3: refill; first-fit reuses what holes it can *)
  fill (churn_ops / 4);
  let data = float_of_int (Server.data_blocks server) in
  let used = data -. float_of_int (Server.free_blocks server) in
  let fragmentation_before = Server.disk_fragmentation server in
  let largest_hole_before = Server.largest_hole_blocks server in
  let moved = ref 0 in
  let compaction_us = time bed.b_clock (fun () -> moved := Server.compact_disk server) in
  {
    files_written = !written;
    disk_utilisation = used /. data;
    fragmentation_before;
    largest_hole_before;
    compaction_moved_blocks = !moved;
    compaction_us;
    fragmentation_after = Server.disk_fragmentation server;
  }

let run () =
  header "FRAG - external fragmentation and the 3 a.m. compaction";
  let r = fragmentation_experiment () in
  Printf.printf "  files written under churn        %d\n" r.files_written;
  Printf.printf "  disk utilisation at pressure     %.1f%%\n" (100. *. r.disk_utilisation);
  Printf.printf "  fragmentation before             %.3f\n" r.fragmentation_before;
  Printf.printf "  largest free hole before         %d blocks\n" r.largest_hole_before;
  Printf.printf "  compaction moved                 %d blocks\n" r.compaction_moved_blocks;
  Printf.printf "  compaction took                  %.1f s (simulated)\n"
    (float_of_int r.compaction_us /. 1e6);
  Printf.printf "  fragmentation after              %.3f\n" r.fragmentation_after;
  Printf.printf
    "  (the paper's trade-off: contiguous storage wastes space between\n\
    \   files; a nightly compaction reclaims it)\n";
  []
