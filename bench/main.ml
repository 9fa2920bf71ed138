(* The paper's evaluation harness: regenerates every table and figure of
   "The Design of a High-Performance File Server" (ICDCS 1989), plus the
   ablations DESIGN.md calls out and Bechamel microbenchmarks of the real
   code.

   Usage:  dune exec bench/main.exe            (everything)
           dune exec bench/main.exe -- fig2 compare micro   (a subset)

   The deterministic sections are the rows of [Experiments.Sections.all];
   an unknown name prints the list.  [micro] reads the host clock, so it
   is the one section outside the table and its goldens. *)

module Sections = Experiments.Sections

let micro () =
  Experiments.Common.header "MICRO - Bechamel microbenchmarks (real wall-clock, ns/run)";
  let open Bechamel in
  let open Toolkit in
  let sealer = Amoeba_cap.Sealer.of_passphrase "bench" in
  let prng = Amoeba_sim.Prng.create ~seed:1L in
  let random = Amoeba_cap.Sealer.fresh_random sealer prng in
  let rights = Amoeba_cap.Rights.all in
  let check = Amoeba_cap.Sealer.seal sealer ~random ~rights in
  let cap =
    Amoeba_cap.Capability.v ~port:(Amoeba_cap.Port.of_int64 1L) ~obj:1 ~rights ~check
  in
  let inode =
    { Bullet_core.Layout.random = 0x1234L; index = 3; first_block = 99; size_bytes = 4096 }
  in
  let inode_buf = Bytes.create Bullet_core.Layout.inode_bytes in
  let alloc_cycle () =
    let a = Bullet_core.Extent_alloc.create ~start:0 ~length:4096 () in
    let rec go n =
      if n > 0 then begin
        match Bullet_core.Extent_alloc.alloc a 16 with
        | Some s ->
          Bullet_core.Extent_alloc.free a ~start:s ~length:16;
          go (n - 1)
        | None -> ()
      end
    in
    go 32
  in
  let cache_cycle =
    let cache =
      Bullet_core.Cache.create ~capacity:65_536 ~max_rnodes:16 ~on_evict:(fun ~inode:_ ~rnode:_ -> ())
    in
    let data = Bytes.create 1024 in
    fun () ->
      match Bullet_core.Cache.insert cache ~inode:1 data with
      | Some rnode ->
        ignore (Bullet_core.Cache.get cache ~rnode);
        Bullet_core.Cache.remove cache ~rnode
      | None -> ()
  in
  (* A 64 KB file through a mirror into a cache that holds only it: each
     run evicts the last load, reserves the extent and reads the sectors
     straight into it, the server's miss path. *)
  let cache_miss_load =
    let size = 65_536 in
    let clock = Amoeba_sim.Clock.create () in
    let geometry = Amoeba_disk.Geometry.small ~sectors:256 in
    let drive id = Amoeba_disk.Block_device.create ~id ~geometry ~clock in
    let mirror = Amoeba_disk.Mirror.create [ drive "m1"; drive "m2" ] in
    Amoeba_disk.Mirror.write mirror ~sync:2 ~sector:0 (Bytes.make size 'f');
    let count = size / geometry.Amoeba_disk.Geometry.sector_bytes in
    let cache =
      Bullet_core.Cache.create ~capacity:size ~max_rnodes:4 ~on_evict:(fun ~inode:_ ~rnode:_ -> ())
    in
    fun () ->
      match Bullet_core.Cache.reserve cache ~inode:1 size with
      | Some rnode ->
        Bullet_core.Cache.fill cache ~rnode (fun dst dst_off len ->
            Amoeba_disk.Mirror.read_into mirror ~sector:0 ~count ~dst ~dst_off ~len)
      | None -> ()
  in
  (* The client cache full with 1,024 16-byte files: each run inserts a
     file not resident, which evicts the least recently used one. Keys
     cycle through 2,048 capabilities, so the key inserted was evicted
     1,024 runs ago. *)
  let client_cache_evict =
    let resident = 1024 and size = 16 in
    let caps =
      Array.init (2 * resident) (fun obj ->
          Amoeba_cap.Capability.v ~port:(Amoeba_cap.Port.of_int64 1L) ~obj ~rights ~check)
    in
    let cache = Amoeba_lease.File_cache.create ~capacity_bytes:(resident * size) in
    let data = Bytes.create size in
    let next = ref 0 in
    let insert () =
      Amoeba_lease.File_cache.insert cache caps.(!next) data;
      next := (!next + 1) mod Array.length caps
    in
    for _ = 1 to resident do
      insert ()
    done;
    insert
  in
  let tests =
    [
      Test.make ~name:"xtea_seal" (Staged.stage (fun () -> ignore (Amoeba_cap.Sealer.seal sealer ~random ~rights)));
      Test.make ~name:"xtea_verify" (Staged.stage (fun () -> ignore (Amoeba_cap.Sealer.verify sealer ~random ~cap)));
      Test.make ~name:"inode_codec"
        (Staged.stage (fun () ->
             Bullet_core.Layout.encode_inode inode inode_buf 0;
             ignore (Bullet_core.Layout.decode_inode inode_buf 0)));
      Test.make ~name:"extent_alloc_free_x32" (Staged.stage alloc_cycle);
      Test.make ~name:"cache_insert_get_remove_1k" (Staged.stage cache_cycle);
      Test.make ~name:"cache_miss_load_64k" (Staged.stage cache_miss_load);
      Test.make ~name:"client_cache_evict_1k" (Staged.stage client_cache_evict);
      Test.make ~name:"prng_next" (Staged.stage (fun () -> ignore (Amoeba_sim.Prng.next_int64 prng)));
    ]
  in
  let benchmark test =
    let instances = Instance.[ monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true () in
    let raw = Benchmark.all cfg instances test in
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
    in
    Analyze.all ols Instance.monotonic_clock raw
  in
  let print_results name results =
    Hashtbl.iter
      (fun _label result ->
        match Bechamel.Analyze.OLS.estimates result with
        | Some [ est ] -> Printf.printf "  %-30s %12.1f ns/run\n" name est
        | _ -> Printf.printf "  %-30s %12s\n" name "n/a")
      results
  in
  List.iter
    (fun test ->
      let results = benchmark (Test.make_grouped ~name:"g" [ test ]) in
      print_results (Test.name test) results)
    tests

(* ---- driver ---- *)

let run_section (s : Sections.t) =
  List.iter2
    (fun path contents -> Out_channel.with_open_bin path (fun oc -> output_string oc contents))
    s.Sections.files (s.Sections.run ())

let all_benches =
  List.map (fun (s : Sections.t) -> (s.Sections.name, fun () -> run_section s)) Sections.all
  @ [ ("micro", micro) ]

let () =
  let requested = List.tl (Array.to_list Sys.argv) in
  let chosen =
    if requested = [] then all_benches
    else
      List.filter_map
        (fun name ->
          match List.assoc_opt name all_benches with
          | Some f -> Some (name, f)
          | None ->
            Printf.eprintf "unknown bench %S (have: %s)\n" name
              (String.concat ", " (List.map fst all_benches));
            exit 2)
        requested
  in
  Printf.printf "Bullet file server evaluation - reproduction of ICDCS 1989 tables\n";
  List.iter (fun (_, f) -> f ()) chosen;
  (* under AMOEBA_TIE_CHECK=1 (every golden rule), fail loudly if any
     scenario scheduled two same-time events unpinned *)
  let module Eq = Amoeba_sim.Event_queue in
  if Eq.tie_check_enabled () then begin
    match Eq.ties () with
    | [] -> ()
    | ties ->
      List.iter (fun t -> Printf.eprintf "%s\n" (Eq.tie_to_string t)) ties;
      Printf.eprintf "bench: %d event-queue tie(s) detected\n" (List.length ties);
      exit 1
  end
