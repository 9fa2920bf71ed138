open Common

type cache_report = {
  hit_us : int;
  miss_us : int;
  cold_us : int;
  hit_rate_working_set : float;
  hit_rate_thrash : float;
}

let cache_experiment () =
  (* 2 MB cache so misses are easy to force *)
  let config = { Server.default_config with Server.cache_bytes = 2 * 1024 * 1024 } in
  let bed = make_bullet_bed ~config () in
  let client = bed.b_client in
  let subject = Client.create client (Bytes.make 262_144 'c') in
  let hit_us = time bed.b_clock (fun () -> ignore (Client.read client subject)) in
  (* flood the cache to evict the subject *)
  let rec flood n = if n > 0 then (ignore (Client.create client (Bytes.make 262_144 'x')); flood (n - 1)) in
  flood 10;
  let miss_us = time bed.b_clock (fun () -> ignore (Client.read client subject)) in
  (* cold: fresh server incarnation, empty cache *)
  Server.crash bed.b_server;
  let server2, _ = Result.get_ok (Server.start ~config bed.b_mirror) in
  let transport2 = Transport.create ~clock:bed.b_clock in
  Bullet_core.Proto.serve server2 transport2;
  let client2 = Client.connect transport2 (Server.port server2) in
  let cold_us = time bed.b_clock (fun () -> ignore (Client.read client2 subject)) in
  (* LRU hit rates: 64 KB files, working set inside / beyond the cache *)
  let hit_rate file_count =
    let stats = Server.stats server2 in
    let files =
      let rec make n acc =
        if n = 0 then acc else make (n - 1) (Client.create client2 (Bytes.make 65_536 'w') :: acc)
      in
      make file_count []
    in
    let h0 = Amoeba_sim.Stats.count stats "cache_hits" in
    let m0 = Amoeba_sim.Stats.count stats "cache_misses" in
    for _ = 1 to 3 do
      List.iter (fun cap -> ignore (Client.read client2 cap)) files
    done;
    let hits = Amoeba_sim.Stats.count stats "cache_hits" - h0 in
    let misses = Amoeba_sim.Stats.count stats "cache_misses" - m0 in
    List.iter (fun cap -> Client.delete client2 cap) files;
    float_of_int hits /. float_of_int (hits + misses)
  in
  let hit_rate_working_set = hit_rate 16 (* 1 MB inside the 2 MB cache *) in
  let hit_rate_thrash = hit_rate 64 (* 4 MB: twice the cache *) in
  { hit_us; miss_us; cold_us; hit_rate_working_set; hit_rate_thrash }

let run () =
  header "CACHE - RAM cache behaviour (256 KB file, 2 MB cache)";
  let r = cache_experiment () in
  Printf.printf "  read, cache hit                  %8.2f ms\n" (ms r.hit_us);
  Printf.printf "  read, cache miss (disk load)     %8.2f ms\n" (ms r.miss_us);
  Printf.printf "  read, cold server                %8.2f ms\n" (ms r.cold_us);
  Printf.printf "  LRU hit rate, working set fits   %8.1f%%\n" (100. *. r.hit_rate_working_set);
  Printf.printf "  LRU hit rate, working set 2x     %8.1f%%\n" (100. *. r.hit_rate_thrash);
  []
