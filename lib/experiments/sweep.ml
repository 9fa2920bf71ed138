open Common

type cache_sweep_point = { cache_mb : int; hit_rate : float; mean_read_ms : float }

let cache_size_sweep ?(working_set_mb = 4) ?(cache_mbs = [ 1; 2; 4; 8 ]) () =
  let file_bytes = 65_536 in
  let file_count = working_set_mb * 1024 * 1024 / file_bytes in
  let run cache_mb =
    let config = { Server.default_config with Server.cache_bytes = cache_mb * 1024 * 1024 } in
    let bed = make_bullet_bed ~config () in
    let rec make n acc =
      if n = 0 then acc
      else make (n - 1) (Client.create bed.b_client (Bytes.make file_bytes 'w') :: acc)
    in
    let files = make file_count [] in
    let stats = Server.stats bed.b_server in
    let h0 = Amoeba_sim.Stats.count stats "cache_hits" in
    let m0 = Amoeba_sim.Stats.count stats "cache_misses" in
    let reads = ref 0 in
    let total_us =
      time bed.b_clock (fun () ->
          for _ = 1 to 3 do
            List.iter
              (fun cap ->
                incr reads;
                ignore (Client.read bed.b_client cap))
              files
          done)
    in
    let hits = Amoeba_sim.Stats.count stats "cache_hits" - h0 in
    let misses = Amoeba_sim.Stats.count stats "cache_misses" - m0 in
    {
      cache_mb;
      hit_rate = float_of_int hits /. float_of_int (max 1 (hits + misses));
      mean_read_ms = float_of_int total_us /. float_of_int !reads /. 1000.;
    }
  in
  List.map run cache_mbs

let run () =
  header "SWEEP1 - read bandwidth vs file size (Bullet, cache hits)";
  let sizes = [ 512; 2_048; 8_192; 32_768; 131_072; 524_288; 2_097_152 ] in
  let rows = Fig2.fig2_bullet ~sizes () in
  Printf.printf "  %-10s %12s %14s\n" "File Size" "READ (ms)" "KB/s";
  let bar kbs = String.make (int_of_float (kbs /. 20.)) '#' in
  List.iter
    (fun r ->
      let kbs = bandwidth_kbs ~size:r.size ~us:r.read_us in
      Printf.printf "  %-10s %12.2f %14.1f  %s\n" (size_label r.size) (ms r.read_us) kbs
        (bar kbs))
    rows;
  Printf.printf "  (the curve saturates at the Ethernet's effective rate: whole-file\n";
  Printf.printf "   transfer amortises the fixed RPC cost away)\n";
  header "SWEEP2 - LRU hit rate vs cache size (4 MB working set)";
  Printf.printf "  %-10s %12s %16s\n" "cache" "hit rate" "mean read (ms)";
  List.iter
    (fun p ->
      Printf.printf "  %4d MB    %11.1f%% %16.2f\n" p.cache_mb (100. *. p.hit_rate)
        p.mean_read_ms)
    (cache_size_sweep ());
  header "SWEEP3 - CREATE delay (ms): P-FACTOR x file size";
  let matrix = Pfactor.pfactor_matrix () in
  Printf.printf "  %-10s %10s %10s %10s\n" "File Size" "p=0" "p=1" "p=2";
  List.iter
    (fun (size, cells) ->
      let at p = ms (List.assoc p cells) in
      Printf.printf "  %-10s %10.2f %10.2f %10.2f\n" (size_label size) (at 0) (at 1) (at 2))
    matrix;
  Printf.printf
    "  (the disk term p removes is fixed; the wire term grows with size,\n\
    \   so p=0's relative advantage shrinks for big files)\n";
  header "SWEEP4 - boot time vs inode-table size (whole table read into RAM)";
  Printf.printf "  %-12s %14s\n" "max files" "boot scan (ms)";
  List.iter
    (fun max_files ->
      (* hand-built, not [Server.boot]: boot already reads the table
         once, and that first read is the one measured here *)
      let clock = Clock.create () in
      let geometry = Geometry.small ~sectors:testbed_sectors in
      let d1 = Dev.create ~id:"b1" ~geometry ~clock in
      let d2 = Dev.create ~id:"b2" ~geometry ~clock in
      let mirror = Mirror.create [ d1; d2 ] in
      Server.format mirror ~max_files;
      let us = time clock (fun () -> ignore (Result.get_ok (Bullet_core.Inode_table.load mirror))) in
      Printf.printf "  %-12d %14.1f\n" max_files (ms us))
    [ 1_024; 8_192; 32_768; 131_072 ];
  Printf.printf
    "  (\"it reads the complete inode table into the RAM inode table and\n\
    \   keeps it there permanently\" - boot cost is one sequential read)\n";
  []
