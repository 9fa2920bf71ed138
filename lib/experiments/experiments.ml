module Clock = Amoeba_sim.Clock
module Prng = Amoeba_sim.Prng
module Geometry = Amoeba_disk.Geometry
module Dev = Amoeba_disk.Block_device
module Mirror = Amoeba_disk.Mirror
module Server = Bullet_core.Server
module Client = Bullet_core.Client
module Nfs = Nfs_baseline.Nfs_server
module Nfs_client = Nfs_baseline.Nfs_client
module Status = Amoeba_rpc.Status

type row = { size : int; read_us : int; write_us : int }

let bandwidth_kbs ~size ~us =
  if us = 0 then 0. else float_of_int size /. 1024. /. (float_of_int us /. 1_000_000.)

let paper_sizes = Workload.Sizes.paper_sweep

(* ---- testbeds ---- *)

(* 64 MB drives keep the simulated images small; every timing parameter
   (seek, rotation, media rate) is the 1989 drive, so per-operation costs
   match the paper's 800 MB drives. *)
let testbed_sectors = 131_072

type bullet_bed = {
  b_clock : Clock.t;
  b_server : Server.t;
  b_client : Client.t;
  b_mirror : Mirror.t;
}

let make_bullet_bed ?(sectors = testbed_sectors) ?(config = Server.default_config) () =
  let clock = Clock.create () in
  let server = Server.boot ~config ~clock ~id:"bullet" ~sectors ~max_files:2048 () in
  let transport = Amoeba_rpc.Transport.create ~clock in
  Bullet_core.Proto.serve server transport;
  let client = Client.connect transport (Server.port server) in
  { b_clock = clock; b_server = server; b_client = client; b_mirror = Server.mirror server }

type nfs_bed = { n_clock : Clock.t; n_server : Nfs.t; n_client : Nfs_client.t }

let make_nfs_bed ?(sectors = testbed_sectors) () =
  let clock = Clock.create () in
  let geometry = Geometry.small ~sectors in
  let dev = Dev.create ~id:"nfs-1" ~geometry ~clock in
  Nfs.format dev ~max_files:2048;
  let server = Result.get_ok (Nfs.mount dev) in
  let transport = Amoeba_rpc.Transport.create ~clock in
  Nfs_baseline.Nfs_proto.serve server transport;
  let client = Nfs_client.connect transport (Nfs.port server) in
  { n_clock = clock; n_server = server; n_client = client }

let time clock f =
  let _, us = Clock.elapsed clock f in
  us

(* ---- Fig. 2: the Bullet server ---- *)

(* ---- ATTRIB: where the microseconds of a Fig. 2 row go ---- *)

type attrib_breakdown = {
  at_total_us : int;
  at_net_us : int;
  at_cpu_us : int;
  at_cache_us : int;
  at_disk_us : int;
  at_other_us : int;
}

type attrib_row = {
  at_size : int;
  at_read : attrib_breakdown; (* cached SIZE+READ pair *)
  at_write : attrib_breakdown; (* CREATE+DELETE pair *)
}

let breakdown_of_totals (t : Amoeba_trace.Attrib.totals) =
  {
    at_total_us = t.Amoeba_trace.Attrib.total_us;
    at_net_us = t.Amoeba_trace.Attrib.net_us;
    at_cpu_us = t.Amoeba_trace.Attrib.cpu_us;
    at_cache_us = t.Amoeba_trace.Attrib.cache_us;
    at_disk_us = t.Amoeba_trace.Attrib.disk_us;
    (* extent bookkeeping is instantaneous, so alloc time folds into the
       server's self-time bucket *)
    at_other_us = t.Amoeba_trace.Attrib.other_us + t.Amoeba_trace.Attrib.alloc_us;
  }

(* Rebuild Fig. 2's measurements with the tracer on and attribute every
   simulated microsecond to a layer.  The paper's claim becomes a
   measured table: a cached READ is network + server CPU (+ memcpy),
   while CREATE+DELETE is dominated by the synchronous disk writes. *)
let fig2_attrib ?(sizes = paper_sizes) () =
  let run size =
    let bed = make_bullet_bed () in
    let tracer = Amoeba_trace.Trace.create ~clock:bed.b_clock () in
    let sink = Amoeba_trace.Trace.sink tracer in
    let attributed f =
      Amoeba_trace.Sink.clear sink;
      Amoeba_rpc.Transport.set_tracer (Client.transport bed.b_client) (Some tracer);
      Server.set_tracer bed.b_server (Some tracer);
      f ();
      Amoeba_rpc.Transport.set_tracer (Client.transport bed.b_client) None;
      Server.set_tracer bed.b_server None;
      breakdown_of_totals (Amoeba_trace.Attrib.of_spans (Amoeba_trace.Sink.spans sink))
    in
    let data = Bytes.make size 'b' in
    (* Same protocol as [fig2_bullet]: the read test runs against a file
       already in cache; the write test is a traced create+delete. *)
    let cap = Client.create bed.b_client ~p_factor:2 data in
    let at_read = attributed (fun () -> ignore (Client.read bed.b_client cap)) in
    Client.delete bed.b_client cap;
    let at_write =
      attributed (fun () ->
          let cap = Client.create bed.b_client ~p_factor:2 data in
          Client.delete bed.b_client cap)
    in
    { at_size = size; at_read; at_write }
  in
  List.map run sizes

let fig2_bullet ?(sizes = paper_sizes) () =
  let bed = make_bullet_bed () in
  let run size =
    let data = Bytes.make size 'b' in
    (* Read test: "In all cases the test file will be completely in
       memory" — create first, then measure the SIZE+READ pair. *)
    let cap = Client.create bed.b_client ~p_factor:2 data in
    let read_us = time bed.b_clock (fun () -> ignore (Client.read bed.b_client cap)) in
    Client.delete bed.b_client cap;
    (* Create+delete test, "the file is written to both disks". *)
    let write_us =
      time bed.b_clock (fun () ->
          let cap = Client.create bed.b_client ~p_factor:2 data in
          Client.delete bed.b_client cap)
    in
    { size; read_us; write_us }
  in
  List.map run sizes

(* ---- Fig. 3: SUN NFS ---- *)

let fig3_nfs ?(sizes = paper_sizes) () =
  let bed = make_nfs_bed () in
  let run size =
    let data = Bytes.make size 'n' in
    (* Write test: "consecutively executing creat, write, and close". *)
    let fh = ref None in
    let write_us =
      time bed.n_clock (fun () ->
          let handle = Nfs_client.create bed.n_client in
          Nfs_client.write_file bed.n_client handle data;
          fh := Some handle)
    in
    let handle = Option.get !fh in
    (* The production server's cache has turned over by the time the read
       test runs; metadata stays hot. *)
    Nfs.age_cache bed.n_server;
    (* Read test: "an lseek followed by a read system call" per block;
       client caching disabled with lockf. *)
    let read_us =
      time bed.n_clock (fun () -> ignore (Nfs_client.read_file bed.n_client handle ~size))
    in
    Nfs_client.remove bed.n_client handle;
    { size; read_us; write_us }
  in
  List.map run sizes

(* ---- comparison (§4 prose) ---- *)

type comparison = {
  size : int;
  read_ratio : float;
  bullet_write_kbs : float;
  nfs_write_kbs : float;
  nfs_read_kbs : float;
  write_ratio : float;
}

let compare_servers ?(sizes = paper_sizes) () =
  let bullet = fig2_bullet ~sizes () in
  let nfs = fig3_nfs ~sizes () in
  let combine (b : row) (n : row) =
    let bullet_write_kbs = bandwidth_kbs ~size:b.size ~us:b.write_us in
    let nfs_write_kbs = bandwidth_kbs ~size:n.size ~us:n.write_us in
    {
      size = b.size;
      read_ratio = float_of_int n.read_us /. float_of_int b.read_us;
      bullet_write_kbs;
      nfs_write_kbs;
      nfs_read_kbs = bandwidth_kbs ~size:n.size ~us:n.read_us;
      write_ratio = (if nfs_write_kbs = 0. then 0. else bullet_write_kbs /. nfs_write_kbs);
    }
  in
  List.map2 combine bullet nfs

(* ---- P-FACTOR ---- *)

let pfactor_sweep ?(size = 65_536) () =
  let bed = make_bullet_bed () in
  let data = Bytes.make size 'p' in
  let run p =
    let cap = ref None in
    let us = time bed.b_clock (fun () -> cap := Some (Client.create bed.b_client ~p_factor:p data)) in
    (match !cap with Some c -> Client.delete bed.b_client c | None -> ());
    (p, us)
  in
  List.map run [ 0; 1; 2 ]

(* ---- fragmentation and the 3 a.m. compaction ---- *)

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

(* ---- cache behaviour ---- *)

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
  let transport2 = Amoeba_rpc.Transport.create ~clock:bed.b_clock in
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

(* ---- allocation-policy ablation ---- *)

type ablation_report = {
  first_fit_frag : float;
  best_fit_frag : float;
  first_fit_failures : int;
  best_fit_failures : int;
}

let churn_run ~policy ~churn_ops =
  let config = { Server.default_config with Server.alloc_policy = policy } in
  let bed = make_bullet_bed ~sectors:16_384 ~config () in
  let server = bed.b_server in
  let prng = Prng.create ~seed:0xAB1AL in
  let live = ref [] in
  let failures = ref 0 in
  for _ = 1 to churn_ops do
    if !live = [] || Prng.int prng 100 < 55 then begin
      let size = min 200_000 (Workload.Sizes.sample prng) in
      match Server.create server (Bytes.make size 'a') with
      | Ok cap -> live := cap :: !live
      | Error _ -> incr failures
    end
    else begin
      let idx = Prng.int prng (List.length !live) in
      let cap = List.nth !live idx in
      live := List.filteri (fun i _ -> i <> idx) !live;
      ignore (Server.delete server cap)
    end
  done;
  (Server.disk_fragmentation server, !failures)

let allocation_ablation ?(churn_ops = 1_500) () =
  let first_fit_frag, first_fit_failures =
    churn_run ~policy:Bullet_core.Extent_alloc.First_fit ~churn_ops
  in
  let best_fit_frag, best_fit_failures =
    churn_run ~policy:Bullet_core.Extent_alloc.Best_fit ~churn_ops
  in
  { first_fit_frag; best_fit_frag; first_fit_failures; best_fit_failures }

(* ---- whole-trace replay ---- *)

type trace_report = {
  ops : int;
  bullet_total_us : int;
  nfs_total_us : int;
  speedup : float;
  bullet_p50_ms : float;
  bullet_p99_ms : float;
  nfs_p50_ms : float;
  nfs_p99_ms : float;
}

let trace_replay ?(ops = 400) ?(seed = 0x7ACEL) ?mix () =
  let trace =
    Workload.Trace.generate ?mix ~prng:(Prng.create ~seed) ~warmup_files:20 ~ops ()
  in
  (* cap sizes so every file fits both servers comfortably *)
  let clamp n = min n 500_000 in
  let bullet_lat = Amoeba_sim.Stats.create "trace-bullet" in
  let nfs_lat = Amoeba_sim.Stats.create "trace-nfs" in
  (* Bullet interpretation: immutable files, updates create new versions *)
  let bullet_us =
    let bed = make_bullet_bed () in
    let client = bed.b_client in
    let live = ref [||] in
    let push cap size = live := Array.append !live [| (cap, size) |] in
    let drop idx = live := Array.of_list (List.filteri (fun i _ -> i <> idx) (Array.to_list !live)) in
    let interpret op =
      match (op : Workload.Trace.op) with
      | Create { size } ->
        let size = clamp size in
        push (Client.create client (Bytes.make size 'z')) size
      | Read_whole { victim } ->
        let cap, _ = !live.(victim) in
        ignore (Client.read client cap)
      | Read_part { victim; frac_pos; len } ->
        let cap, size = !live.(victim) in
        let pos = int_of_float (frac_pos *. float_of_int (max 0 (size - len))) in
        let len = min len (size - pos) in
        if len > 0 then ignore (Client.read_range client cap ~pos ~len)
      | Rewrite { victim; size } ->
        let old, _ = !live.(victim) in
        let size = clamp size in
        let fresh = Client.create client (Bytes.make size 'r') in
        Client.delete client old;
        !live.(victim) <- (fresh, size)
      | Update { victim; frac_pos; len } ->
        let old, size = !live.(victim) in
        let pos = int_of_float (frac_pos *. float_of_int size) in
        let fresh = Client.modify client old ~pos (Bytes.make len 'u') in
        Client.delete client old;
        !live.(victim) <- (fresh, max size (pos + len))
      | Delete { victim } ->
        let cap, _ = !live.(victim) in
        Client.delete client cap;
        drop victim
    in
    let timed op =
      let us = time bed.b_clock (fun () -> interpret op) in
      Amoeba_sim.Stats.observe bullet_lat "op_ms" (float_of_int us /. 1000.)
    in
    time bed.b_clock (fun () -> List.iter timed trace)
  in
  (* NFS interpretation: update in place, rewrite = remove + recreate *)
  let nfs_us =
    let bed = make_nfs_bed () in
    let client = bed.n_client in
    let live = ref [||] in
    let push fh size = live := Array.append !live [| (fh, size) |] in
    let drop idx = live := Array.of_list (List.filteri (fun i _ -> i <> idx) (Array.to_list !live)) in
    let interpret op =
      match (op : Workload.Trace.op) with
      | Create { size } ->
        let size = clamp size in
        let fh = Nfs_client.create client in
        Nfs_client.write_file client fh (Bytes.make size 'z');
        push fh size
      | Read_whole { victim } ->
        let fh, size = !live.(victim) in
        ignore (Nfs_client.read_file client fh ~size)
      | Read_part { victim; frac_pos; len } ->
        let fh, size = !live.(victim) in
        let len = min len Nfs_client.block_bytes in
        let pos = int_of_float (frac_pos *. float_of_int (max 0 (size - len))) in
        let len = min len (size - pos) in
        if len > 0 then ignore (Nfs_client.read_at client fh ~off:pos ~len)
      | Rewrite { victim; size } ->
        let old, _ = !live.(victim) in
        Nfs_client.remove client old;
        let size = clamp size in
        let fh = Nfs_client.create client in
        Nfs_client.write_file client fh (Bytes.make size 'r');
        !live.(victim) <- (fh, size)
      | Update { victim; frac_pos; len } ->
        let fh, size = !live.(victim) in
        let len = min len Nfs_client.block_bytes in
        let pos = int_of_float (frac_pos *. float_of_int size) in
        Nfs_client.write_at client fh ~off:pos (Bytes.make len 'u');
        !live.(victim) <- (fh, max size (pos + len))
      | Delete { victim } ->
        let fh, _ = !live.(victim) in
        Nfs_client.remove client fh;
        drop victim
    in
    let timed op =
      let us = time bed.n_clock (fun () -> interpret op) in
      Amoeba_sim.Stats.observe nfs_lat "op_ms" (float_of_int us /. 1000.)
    in
    time bed.n_clock (fun () -> List.iter timed trace)
  in
  {
    ops = List.length trace;
    bullet_total_us = bullet_us;
    nfs_total_us = nfs_us;
    speedup = float_of_int nfs_us /. float_of_int bullet_us;
    bullet_p50_ms = Amoeba_sim.Stats.percentile bullet_lat "op_ms" 0.5;
    bullet_p99_ms = Amoeba_sim.Stats.percentile bullet_lat "op_ms" 0.99;
    nfs_p50_ms = Amoeba_sim.Stats.percentile nfs_lat "op_ms" 0.5;
    nfs_p99_ms = Amoeba_sim.Stats.percentile nfs_lat "op_ms" 0.99;
  }

let mix_sweep ?(ops = 250) () =
  let base = Workload.Trace.bsd_mix in
  let with_updates fraction =
    (* shift probability mass from whole-file reads into small updates *)
    {
      base with
      Workload.Trace.p_update = fraction;
      p_read_whole = Float.max 0.05 (base.Workload.Trace.p_read_whole -. fraction);
    }
  in
  let run fraction =
    let report = trace_replay ~ops ~mix:(with_updates fraction) () in
    (fraction, report.speedup)
  in
  List.map run [ 0.05; 0.2; 0.4; 0.6; 0.8 ]

(* ---- the append problem (§2) ---- *)

type append_report = { appends : int; log_server_us : int; modify_us : int; naive_us : int }

let append_ablation ?(appends = 50) ?(record_bytes = 120) ?(base_bytes = 65_536) () =
  let record = Bytes.make record_bytes 'l' in
  (* via the log server *)
  let log_server_us =
    let bed = make_bullet_bed () in
    let log = Log_server.Log_store.create ~store:bed.b_client () in
    let cap = Log_server.Log_store.create_log log in
    (match Log_server.Log_store.append log cap (Bytes.make base_bytes 'b') with
    | Ok _ -> ()
    | Error _ -> ());
    (match Log_server.Log_store.sync log cap with Ok () -> () | Error _ -> ());
    time bed.b_clock (fun () ->
        for _ = 1 to appends do
          ignore (Log_server.Log_store.append log cap record)
        done;
        ignore (Log_server.Log_store.sync log cap))
  in
  (* via BULLET.MODIFY: server-side copy, only the record on the wire *)
  let modify_us =
    let bed = make_bullet_bed () in
    let cap = ref (Client.create bed.b_client (Bytes.make base_bytes 'b')) in
    time bed.b_clock (fun () ->
        for _ = 1 to appends do
          let fresh = Client.append bed.b_client !cap record in
          Client.delete bed.b_client !cap;
          cap := fresh
        done)
  in
  (* naive: the client reads the whole file, appends locally, re-creates *)
  let naive_us =
    let bed = make_bullet_bed () in
    let cap = ref (Client.create bed.b_client (Bytes.make base_bytes 'b')) in
    time bed.b_clock (fun () ->
        for _ = 1 to appends do
          let contents = Client.read bed.b_client !cap in
          let bigger = Bytes.cat contents record in
          let fresh = Client.create bed.b_client bigger in
          Client.delete bed.b_client !cap;
          cap := fresh
        done)
  in
  { appends; log_server_us; modify_us; naive_us }

(* ---- immediate files (reference [1]) ---- *)

type immediate_report = {
  plain_write_us : int;
  immediate_write_us : int;
  plain_read_us : int;
  immediate_read_us : int;
  bullet_read_us : int;
}

let immediate_ablation () =
  let measure config =
    let clock = Clock.create () in
    let geometry = Geometry.small ~sectors:testbed_sectors in
    let dev = Dev.create ~id:"imm" ~geometry ~clock in
    Nfs.format dev ~max_files:2048;
    let server = Result.get_ok (Nfs.mount ~config dev) in
    let transport = Amoeba_rpc.Transport.create ~clock in
    Nfs_baseline.Nfs_proto.serve server transport;
    let client = Nfs_client.connect transport (Nfs.port server) in
    let data = Bytes.make 60 'i' in
    let fh = ref None in
    let write_us =
      time clock (fun () ->
          let handle = Nfs_client.create client in
          Nfs_client.write_file client handle data;
          fh := Some handle)
    in
    Nfs.age_cache server;
    let handle = Option.get !fh in
    let read_us = time clock (fun () -> ignore (Nfs_client.read_file client handle ~size:60)) in
    (write_us, read_us)
  in
  let plain_write_us, plain_read_us = measure Nfs.default_config in
  let immediate_write_us, immediate_read_us =
    measure { Nfs.immediate_files = true }
  in
  let bullet_read_us =
    let bed = make_bullet_bed () in
    let cap = Client.create bed.b_client (Bytes.make 60 'b') in
    time bed.b_clock (fun () -> ignore (Client.read bed.b_client cap))
  in
  { plain_write_us; immediate_write_us; plain_read_us; immediate_read_us; bullet_read_us }

(* ---- geographic scalability (paper 2.1) ---- *)

type geo_report = {
  file_bytes : int;
  local_read_us : int;
  regional_read_us : int;
  wide_read_us : int;
  nearest_pick : string;
  publish_local_us : int;
  publish_replicated_us : int;
}

let geo_experiment ?(file_bytes = 65_536) () =
  let fed = Amoeba_wan.Federation.create ~home_region:"nl" () in
  Amoeba_wan.Federation.add_site fed ~name:"cwi" ~region:"nl";
  Amoeba_wan.Federation.add_site fed ~name:"tromso" ~region:"no";
  let clock = Amoeba_wan.Federation.clock fed in
  let data = Bytes.make file_bytes 'g' in
  let publish_local_us =
    time clock (fun () ->
        ignore (Amoeba_wan.Federation.publish fed ~from:"home" ~name:"plain" data))
  in
  let publish_replicated_us =
    time clock (fun () ->
        ignore
          (Amoeba_wan.Federation.publish fed ~from:"home" ~name:"mirrored"
             ~replicate_to:[ "tromso" ] data))
  in
  let read_via replica from =
    time clock (fun () ->
        ignore (Amoeba_wan.Federation.fetch_from_replica fed ~from "mirrored" ~replica))
  in
  (* warm both replica caches so the comparison isolates the wire *)
  ignore (Amoeba_wan.Federation.fetch_from_replica fed ~from:"home" "mirrored" ~replica:"home");
  ignore (Amoeba_wan.Federation.fetch_from_replica fed ~from:"tromso" "mirrored" ~replica:"tromso");
  let local_read_us = read_via "home" "home" in
  let regional_read_us = read_via "home" "cwi" in
  let wide_read_us = read_via "home" "tromso" in
  let _, nearest_pick = Amoeba_wan.Federation.fetch fed ~from:"tromso" "mirrored" in
  {
    file_bytes;
    local_read_us;
    regional_read_us;
    wide_read_us;
    nearest_pick;
    publish_local_us;
    publish_replicated_us;
  }

(* ---- naming: server-side resolve vs component-wise lookups ---- *)

type naming_report = {
  depth : int;
  local_resolve_us : int;
  local_stepwise_us : int;
  wide_resolve_us : int;
  wide_stepwise_us : int;
}

let naming_experiment ?(depth = 5) () =
  let bed = make_bullet_bed () in
  let dirs = Amoeba_dir.Dir_server.create ~store:bed.b_client () in
  let transport = Bullet_core.Client.transport bed.b_client in
  Amoeba_dir.Dir_proto.serve dirs transport;
  let local =
    Amoeba_dir.Dir_client.connect transport (Amoeba_dir.Dir_server.port dirs)
  in
  let wide =
    Amoeba_dir.Dir_client.connect
      ~model:(Amoeba_rpc.Link.model Amoeba_rpc.Link.Wide)
      transport (Amoeba_dir.Dir_server.port dirs)
  in
  let root = Amoeba_dir.Dir_client.get_root local in
  let path = String.concat "/" (List.init depth (Printf.sprintf "d%d")) in
  let leaf_dir = Amoeba_dir.Dir_client.mkdir_path local root path in
  Amoeba_dir.Dir_client.enter local leaf_dir "leaf"
    (Client.create bed.b_client (Bytes.of_string "x"));
  let full_path = path ^ "/leaf" in
  let timed client resolve =
    time bed.b_clock (fun () ->
        ignore
          (if resolve then Amoeba_dir.Dir_client.resolve client root full_path
           else Amoeba_dir.Dir_client.resolve_stepwise client root full_path))
  in
  {
    depth = depth + 1;
    local_resolve_us = timed local true;
    local_stepwise_us = timed local false;
    wide_resolve_us = timed wide true;
    wide_stepwise_us = timed wide false;
  }

(* ---- quantitative scalability (closed-loop pool processors) ---- *)

type scale_point = {
  clients : int;
  throughput_per_sec : float;
  mean_response_ms : float;
  utilisation : float;
}

type scale_report = {
  bullet_service_us : int;
  nfs_service_us : int;
  bullet_knee : float;
  nfs_knee : float;
  bullet_points : scale_point list;
  nfs_points : scale_point list;
}

let scale_experiment ?(client_counts = [ 1; 2; 4; 8; 16; 32; 64; 128 ]) ?(think_ms = 100) () =
  let size = 4_096 in
  (* measured server-side demand: what actually queues at the one
     dedicated server machine *)
  let bullet_service_us =
    let bed = make_bullet_bed () in
    let cap =
      match Server.create bed.b_server (Bytes.make size 's') with
      | Ok cap -> cap
      | Error e -> failwith (Status.to_string e)
    in
    (* warm, then measure the direct (no-wire) server path *)
    ignore (Server.read bed.b_server cap);
    time bed.b_clock (fun () -> ignore (Server.read bed.b_server cap))
  in
  let nfs_service_us =
    let bed = make_nfs_bed () in
    let fh = match Nfs.create bed.n_server with Ok fh -> fh | Error e -> failwith (Status.to_string e) in
    (match Nfs.write bed.n_server fh ~off:0 (Bytes.make size 's') with
    | Ok () -> ()
    | Error e -> failwith (Status.to_string e));
    Nfs.age_cache bed.n_server;
    time bed.n_clock (fun () -> ignore (Nfs.read bed.n_server fh ~off:0 ~len:size))
  in
  let wire model =
    Amoeba_rpc.Net_model.transaction_us model
      ~request_bytes:Amoeba_rpc.Message.header_bytes
      ~reply_bytes:(Amoeba_rpc.Message.header_bytes + size)
  in
  let bullet_wire = wire Amoeba_rpc.Net_model.amoeba in
  let nfs_wire = wire Amoeba_rpc.Net_model.sunos_nfs in
  let think_us = think_ms * 1000 in
  (* the closed loop: the server queues (one FIFO station), the wire
     only delays (the Ethernet has capacity to spare at these rates) *)
  let open Amoeba_sched in
  let closed_loop ~server_us ~wire_us clients =
    {
      Sched.stations =
        [ Sched.station "server" Sched.Fifo; Sched.station "wire" ~layer:Amoeba_trace.Sink.Net Sched.Delay ];
      profiles = [ { Sched.pr_name = "request"; pr_segments = [ (0, server_us); (1, wire_us) ] } ];
      clients;
      think_us;
      requests_per_client = 50;
      overload = Sched.no_overload;
    }
  in
  let points ~server_us ~wire_us =
    let run clients =
      let report = Sched.run (closed_loop ~server_us ~wire_us clients) in
      let server = List.hd report.Sched.station_reports in
      {
        clients;
        throughput_per_sec = report.Sched.throughput_per_sec;
        mean_response_ms = report.Sched.mean_response_ms;
        utilisation = server.Sched.utilisation;
      }
    in
    List.map run client_counts
  in
  let knee ~server_us ~wire_us = Sched.saturation_clients (closed_loop ~server_us ~wire_us 1) in
  {
    bullet_service_us;
    nfs_service_us;
    bullet_knee = knee ~server_us:bullet_service_us ~wire_us:bullet_wire;
    nfs_knee = knee ~server_us:nfs_service_us ~wire_us:nfs_wire;
    bullet_points = points ~server_us:bullet_service_us ~wire_us:bullet_wire;
    nfs_points = points ~server_us:nfs_service_us ~wire_us:nfs_wire;
  }

(* ---- cache-size sweep ---- *)

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

(* ---- P-FACTOR x size matrix ---- *)

let pfactor_matrix ?(sizes = [ 4_096; 65_536; 1_048_576 ]) () =
  let bed = make_bullet_bed () in
  let row size =
    let data = Bytes.make size 'p' in
    let cell p =
      let cap = ref None in
      let us =
        time bed.b_clock (fun () -> cap := Some (Client.create bed.b_client ~p_factor:p data))
      in
      (match !cap with Some c -> Client.delete bed.b_client c | None -> ());
      (p, us)
    in
    (size, List.map cell [ 0; 1; 2 ])
  in
  List.map row sizes

(* ---- FAULTS: behaviour under failures (lib/fault plans) ---- *)

module Plan = Amoeba_fault.Plan
module Injector = Amoeba_fault.Injector
module Transport = Amoeba_rpc.Transport

type availability_report = {
  avail_ops : int;
  avail_failed : int;
  normal_p99_ms : float;
  degraded_p99_ms : float;
  degraded_reads : int;
  resync_ms : float;
}

(* The paper's dual-disk promise: "if the main disk fails, the file
   server can proceed uninterruptedly by using the other disk". A read
   workload runs for 10 virtual seconds against a cache too small for the
   working set (so reads really touch disk); drive 0 dies at t=2s and is
   repaired + resynced at t=6s. Every client op must succeed, and the
   degraded-phase tail latency should match the healthy phase — the
   surviving replica is an identical drive. *)
let fault_availability () =
  let clock = Clock.create () in
  let config =
    { Server.default_config with cache_bytes = 512 * 1024; max_cached_files = 128 }
  in
  let server = Server.boot ~config ~clock ~id:"av" ~sectors:131_072 ~max_files:2048 () in
  let mirror = Server.mirror server in
  let transport = Transport.create ~clock in
  Bullet_core.Proto.serve server transport;
  let client = Client.connect ~attempts:4 ~backoff_us:25_000 transport (Server.port server) in
  let file_bytes = 65_536 in
  let files =
    Array.init 48 (fun i ->
        Client.create client ~p_factor:2 (Bytes.make file_bytes (Char.chr (65 + (i mod 26)))))
  in
  (* Measure from t=0: setup time is not part of the run. *)
  Clock.reset clock;
  let fail_at = 2_000_000 and recover_at = 6_000_000 and run_until = 10_000_000 in
  let plan =
    Plan.create ~seed:0xF001L
    |> fun p -> Plan.at p ~us:fail_at (Plan.Drive_fail 0)
    |> fun p -> Plan.at p ~us:recover_at Plan.Drive_recover
  in
  let injector = Injector.attach ~transport ~mirror ~clock plan in
  let lat = Amoeba_sim.Stats.create "availability" in
  let ops = ref 0 and failed = ref 0 and i = ref 0 in
  while Clock.now clock < run_until do
    let started = Clock.now clock in
    (try ignore (Client.read client files.(!i mod Array.length files))
     with Status.Error _ -> incr failed);
    incr ops;
    incr i;
    let phase = if started >= fail_at && started < recover_at then "degraded_us" else "normal_us" in
    Amoeba_sim.Stats.observe lat phase (float_of_int (Clock.now clock - started));
    Clock.advance clock 10_000 (* client think time *)
  done;
  Injector.poll injector;
  let resync = Amoeba_sim.Stats.summary (Injector.stats injector) "resync_us" in
  Injector.detach injector;
  {
    avail_ops = !ops;
    avail_failed = !failed;
    normal_p99_ms = Amoeba_sim.Stats.percentile lat "normal_us" 0.99 /. 1000.;
    degraded_p99_ms = Amoeba_sim.Stats.percentile lat "degraded_us" 0.99 /. 1000.;
    degraded_reads = Amoeba_sim.Stats.count (Mirror.stats mirror) "degraded_reads";
    resync_ms = resync.Amoeba_sim.Stats.mean /. 1000.;
  }

type resync_point = { disk_mb : int; resync_ms : float }

(* "Recovery is simply done by copying the complete disk": resync cost is
   one full-disk sequential pass, so it scales with capacity, not with
   how much of the disk holds live files. *)
let resync_sweep ?(sector_counts = [ 16_384; 32_768; 65_536; 131_072 ]) () =
  let run sectors =
    let clock = Clock.create () in
    let geometry = Geometry.small ~sectors in
    let d1 = Dev.create ~id:"rs-1" ~geometry ~clock in
    let d2 = Dev.create ~id:"rs-2" ~geometry ~clock in
    let mirror = Mirror.create [ d1; d2 ] in
    let plan =
      Plan.create ~seed:1L
      |> fun p -> Plan.at p ~us:0 (Plan.Drive_fail 1)
      |> fun p -> Plan.at p ~us:1 Plan.Drive_recover
    in
    let injector = Injector.attach ~mirror ~clock plan in
    Clock.advance clock 1;
    Injector.poll injector;
    let resync = Amoeba_sim.Stats.summary (Injector.stats injector) "resync_us" in
    Injector.detach injector;
    {
      disk_mb = Geometry.capacity_bytes geometry / (1024 * 1024);
      resync_ms = resync.Amoeba_sim.Stats.mean /. 1000.;
    }
  in
  List.map run sector_counts

type reboot_point = { table_files : int; reboot_ms : float }

(* Crash-reboot time is dominated by the boot scan reading the whole
   inode table back into RAM, so it grows with the table size chosen at
   format time, independent of live data. *)
let reboot_sweep ?(max_files_list = [ 512; 2_048; 8_192; 32_768 ]) () =
  let run max_files =
    let clock = Clock.create () in
    let server = Server.boot ~seed:7L ~clock ~id:"rb" ~sectors:131_072 ~max_files () in
    let mirror = Server.mirror server in
    let (_ : Amoeba_cap.Capability.t) =
      Result.get_ok (Server.create server ~p_factor:2 (Bytes.make 4_096 'r'))
    in
    Server.crash server;
    let booted, us = Clock.elapsed clock (fun () -> Server.start ~seed:7L mirror) in
    let (_ : Server.t * Bullet_core.Inode_table.scan_report) = Result.get_ok booted in
    { table_files = max_files; reboot_ms = float_of_int us /. 1000. }
  in
  List.map run max_files_list

type loss_point = {
  loss_pct : float;
  loss_ops : int;
  loss_completed : int;
  loss_retries : int;
  loss_timeouts : int;
  duplicate_executions : int;
  goodput_kbs : float;
  loss_p50_ms : float;
  loss_p95_ms : float;
  loss_p99_ms : float;
}

(* Goodput of a create+read workload as the network degrades. Bounded
   retry with backoff rides out each lost message; xid dedup keeps
   retried CREATEs at-most-once (duplicate_executions counts server-side
   creates beyond the client's successful ones — it should stay 0). *)
let loss_sweep ?(loss_rates = [ 0.01; 0.02; 0.05; 0.10 ]) () =
  let file_bytes = 16_384 in
  let pairs = 60 in
  let run loss =
    let clock = Clock.create () in
    let server = Server.boot ~clock ~id:"ls" ~sectors:131_072 ~max_files:2048 () in
    let mirror = Server.mirror server in
    let transport = Transport.create ~clock in
    Bullet_core.Proto.serve server transport;
    let client = Client.connect ~attempts:10 ~backoff_us:20_000 transport (Server.port server) in
    let plan = Plan.create ~seed:0x10055L |> fun p -> Plan.at p ~us:0 (Plan.Message_loss loss) in
    let injector = Injector.attach ~transport ~mirror ~clock plan in
    let completed = ref 0 and ops = ref 0 and read_bytes = ref 0 in
    let start = Clock.now clock in
    for i = 1 to pairs do
      incr ops;
      match Client.create client ~p_factor:2 (Bytes.make file_bytes (Char.chr (97 + (i mod 26)))) with
      | cap -> (
        incr completed;
        incr ops;
        try
          let data = Client.read client cap in
          incr completed;
          read_bytes := !read_bytes + Bytes.length data
        with Status.Error _ -> ())
      | exception Status.Error _ -> ()
    done;
    let elapsed_us = Clock.now clock - start in
    let client_stats = Client.stats client in
    let creates_done = Amoeba_sim.Stats.count (Server.stats server) "creates" in
    Injector.detach injector;
    (* Per-transaction latency (retries and backoff included) from the
       client's log2 histogram, the tail the goodput number hides. *)
    let latency = Amoeba_sim.Stats.hist client_stats "trans_us" in
    let pct q = float_of_int (Amoeba_sim.Stats.Hist.percentile latency q) /. 1000. in
    {
      loss_pct = loss *. 100.;
      loss_ops = !ops;
      loss_completed = !completed;
      loss_retries = Amoeba_sim.Stats.count client_stats "retries";
      loss_timeouts = Amoeba_sim.Stats.count client_stats "timeouts";
      duplicate_executions = max 0 (creates_done - Server.live_files server);
      goodput_kbs =
        (if elapsed_us = 0 then 0.
         else float_of_int !read_bytes /. 1024. /. (float_of_int elapsed_us /. 1_000_000.));
      loss_p50_ms = pct 0.50;
      loss_p95_ms = pct 0.95;
      loss_p99_ms = pct 0.99;
    }
  in
  List.map run loss_rates

type crash_report = {
  crash_ops : int;
  crash_failed : int;
  outage_ms : float;
  crash_reboot_ms : float;
  crash_retries : int;
  pre_crash_file_ok : bool;
}

(* The full crash story: the server dies mid-workload (port unbound, RAM
   cache and pending writes gone), reboots 500 virtual ms later off the
   surviving disks with the same seed — so capabilities minted before the
   crash still verify — and clients ride the outage out on timeout +
   retry without a single failed operation. *)
let crash_recovery () =
  let clock = Clock.create () in
  let seed = 0xBEE5L in
  let config =
    { Server.default_config with cache_bytes = 512 * 1024; max_cached_files = 128 }
  in
  let first = Server.boot ~config ~seed ~clock ~id:"cr" ~sectors:131_072 ~max_files:2048 () in
  let mirror = Server.mirror first in
  let server = ref first in
  let port = Server.port first in
  let transport = Transport.create ~clock in
  Bullet_core.Proto.serve first transport;
  let client = Client.connect ~attempts:8 ~backoff_us:100_000 transport port in
  let file_bytes = 32_768 in
  let files =
    Array.init 20 (fun i ->
        Client.create client ~p_factor:2 (Bytes.make file_bytes (Char.chr (48 + (i mod 10)))))
  in
  Clock.reset clock;
  let crash_at = 2_000_000 and reboot_at = 2_500_000 and run_until = 5_000_000 in
  let plan =
    Plan.create ~seed:0xCAFEL
    |> fun p -> Plan.at p ~us:crash_at Plan.Server_crash
    |> fun p -> Plan.at p ~us:reboot_at Plan.Server_reboot
  in
  let on_crash () =
    Transport.unregister transport port;
    Server.crash !server
  in
  let on_reboot () =
    let booted, _ = Result.get_ok (Server.start ~config ~seed mirror) in
    server := booted;
    Bullet_core.Proto.serve booted transport
  in
  let injector = Injector.attach ~transport ~mirror ~on_crash ~on_reboot ~clock plan in
  let ops = ref 0 and failed = ref 0 and i = ref 0 in
  while Clock.now clock < run_until do
    (try ignore (Client.read client files.(!i mod Array.length files))
     with Status.Error _ -> incr failed);
    incr ops;
    incr i;
    Clock.advance clock 50_000
  done;
  Injector.poll injector;
  let reboot = Amoeba_sim.Stats.summary (Injector.stats injector) "reboot_us" in
  let pre_crash_file_ok =
    match Client.read client files.(0) with
    | data -> Bytes.length data = file_bytes && Bytes.get data 0 = '0'
    | exception Status.Error _ -> false
  in
  Injector.detach injector;
  {
    crash_ops = !ops;
    crash_failed = !failed;
    outage_ms = float_of_int (reboot_at - crash_at) /. 1000.;
    crash_reboot_ms = reboot.Amoeba_sim.Stats.mean /. 1000.;
    crash_retries = Amoeba_sim.Stats.count (Client.stats client) "retries";
    pre_crash_file_ok;
  }

(* ---- RESYNC: degraded-but-improving operation ---- *)

module Link = Amoeba_rpc.Link
module Federation = Amoeba_wan.Federation
module Dir_client = Amoeba_dir.Dir_client
module Pair = Amoeba_dir.Dir_pair

(* A fresh mirrored Bullet server on testbed drives, served on
   [transport], and a client bound to it: one store of a directory
   replica pair, or the file server of a rig. *)
let boot_served ~clock transport name seed =
  let server = Server.boot ~seed ~clock ~id:name ~sectors:testbed_sectors ~max_files:1024 () in
  Bullet_core.Proto.serve server transport;
  (server, Client.connect transport (Server.port server))

type resync_window = {
  w_start_ms : int;
  w_state : string;  (** mirror state at the end of the window *)
  w_remaining : int;  (** resync backlog (sectors) at the end of the window *)
  w_ops : int;
  w_p50_ms : float;
  w_p95_ms : float;
  w_p99_ms : float;
}

type resync_report = {
  rw_windows : resync_window list;
  rw_ops : int;
  rw_failed : int;
  rw_read_repairs : int;
  rw_fallthroughs : int;
  rw_resync_steps : int;
  rw_resync_sectors : int;
  rw_online_resync_ms : float;  (** fail-free wall time from rejoin to clean *)
  rw_step_cost_ms : float;  (** worst-case disk cost of one resync batch *)
  rw_normal_max_ms : float;  (** slowest op before the failure *)
  rw_max_op_ms : float;  (** slowest op anywhere, resync included *)
  rw_clean_at_end : bool;
}

(* The tentpole experiment: a drive dies at 2s and REJOINS at 4s — no
   stop-the-world whole-disk copy; instead the drive comes back fully
   dirty and the backlog drains one bounded batch per poll point,
   interleaved with (and charged against) the foreground read workload.
   The windowed percentiles show the shape the paper's recovery story
   cannot: latency rises while the resync runs, but every single op
   completes, and no op ever pays more than its own I/O plus a couple of
   batches. *)
let resync_experiment ?(sectors = 16_384) ?(batch = 256) () =
  let clock = Clock.create () in
  let config =
    { Server.default_config with cache_bytes = 256 * 1024; max_cached_files = 32 }
  in
  let server = Server.boot ~config ~clock ~id:"rj" ~sectors ~max_files:512 () in
  let mirror = Server.mirror server in
  let transport = Transport.create ~clock in
  Bullet_core.Proto.serve server transport;
  let client = Client.connect ~attempts:4 ~backoff_us:25_000 transport (Server.port server) in
  let file_bytes = 32_768 in
  let files =
    Array.init 32 (fun i ->
        Client.create client ~p_factor:2 (Bytes.make file_bytes (Char.chr (65 + (i mod 26)))))
  in
  Clock.reset clock;
  let fail_at = 2_000_000 and rejoin_at = 4_000_000 and run_until = 30_000_000 in
  let window_us = 2_000_000 in
  let n_windows = run_until / window_us in
  let plan =
    (* drive 0 — the read primary — so foreground reads during the
       resync hit dirty ranges, fall through to the survivor and
       read-repair what they touch *)
    Plan.create ~seed:0x5E5CL
    |> fun p -> Plan.at p ~us:fail_at (Plan.Drive_fail 0)
    |> fun p -> Plan.at p ~us:rejoin_at (Plan.Drive_rejoin batch)
  in
  let injector = Injector.attach ~transport ~mirror ~clock plan in
  let lat = Amoeba_sim.Stats.create "resync-windows" in
  let snapshots = Array.make n_windows ("", 0) in
  let ops = ref 0 and failed = ref 0 and i = ref 0 in
  let normal_max = ref 0 and overall_max = ref 0 in
  while Clock.now clock < run_until do
    let started = Clock.now clock in
    (* stride through the files (11 is coprime to 32) instead of scanning
       them in address order: right after the rejoin some reads land on
       high addresses the resync cursor has not reached yet, exercising
       the fall-through-and-repair path rather than trailing the scan *)
    (try ignore (Client.read client files.(!i * 11 mod Array.length files))
     with Status.Error _ -> incr failed);
    incr ops;
    incr i;
    let took = Clock.now clock - started in
    if started < fail_at then normal_max := max !normal_max took;
    overall_max := max !overall_max took;
    let w = min (n_windows - 1) (started / window_us) in
    Amoeba_sim.Stats.observe lat (Printf.sprintf "w%02d" w) (float_of_int took);
    let remaining =
      match Mirror.sync_state mirror with
      | Mirror.Resyncing { sectors_remaining } -> sectors_remaining
      | Mirror.Clean | Mirror.Degraded -> 0
    in
    snapshots.(w) <- (Mirror.sync_state_label mirror, remaining);
    Clock.advance clock 10_000;
    Injector.poll injector
  done;
  (* carry the last observed state into windows the workload skipped *)
  for w = 1 to n_windows - 1 do
    if fst snapshots.(w) = "" then snapshots.(w) <- snapshots.(w - 1)
  done;
  let online = Amoeba_sim.Stats.summary (Injector.stats injector) "online_resync_us" in
  let mstats = Mirror.stats mirror in
  Injector.detach injector;
  let window w =
    let key = Printf.sprintf "w%02d" w in
    let state, remaining = snapshots.(w) in
    let pct q = Amoeba_sim.Stats.percentile lat key q /. 1000. in
    {
      w_start_ms = w * window_us / 1000;
      w_state = (if state = "" then "clean" else state);
      w_remaining = remaining;
      w_ops = (Amoeba_sim.Stats.summary lat key).Amoeba_sim.Stats.count;
      w_p50_ms = pct 0.50;
      w_p95_ms = pct 0.95;
      w_p99_ms = pct 0.99;
    }
  in
  let geometry = Mirror.geometry mirror in
  let batch_bytes = batch * geometry.Geometry.sector_bytes in
  let step_cost =
    Geometry.access_us geometry ~sequential:false ~write:false batch_bytes
    + Geometry.access_us geometry ~sequential:false ~write:true batch_bytes
  in
  {
    rw_windows = List.init n_windows window;
    rw_ops = !ops;
    rw_failed = !failed;
    rw_read_repairs = Amoeba_sim.Stats.count mstats "read_repairs";
    rw_fallthroughs = Amoeba_sim.Stats.count mstats "resync_fallthroughs";
    rw_resync_steps = Amoeba_sim.Stats.count mstats "resync_steps";
    rw_resync_sectors = Amoeba_sim.Stats.count mstats "resync_sectors";
    rw_online_resync_ms = online.Amoeba_sim.Stats.mean /. 1000.;
    rw_step_cost_ms = float_of_int step_cost /. 1000.;
    rw_normal_max_ms = float_of_int !normal_max /. 1000.;
    rw_max_op_ms = float_of_int !overall_max /. 1000.;
    rw_clean_at_end = Mirror.sync_state mirror = Mirror.Clean;
  }

type wan_fault_report = {
  wf_wide_ops : int;
  wf_wide_failed : int;  (** during the loss phase, after retries *)
  wf_partition_ops : int;
  wf_partition_failed : int;  (** must equal [wf_partition_ops] *)
  wf_healed_ok : bool;
  wf_local_ops : int;
  wf_local_failed : int;
  wf_link_request_drops : int;
  wf_link_reply_drops : int;
  wf_partition_drops : int;
  wf_retries : int;
  wf_quiet_local_us : int;  (** one warm local fetch before any fault *)
  wf_faulted_local_us : int;  (** the same fetch while the wide line is down *)
}

(* Fault the international line, not the network: a [Link_loss]/
   [Link_partition] plan applies only to transactions tagged Wide, so
   cross-border fetches degrade (and, with retries, mostly survive)
   while local traffic at either end never even consumes a random draw —
   the quiet and faulted local fetch times must be identical. *)
let wan_fault_experiment ?(file_bytes = 65_536) () =
  let f = Federation.create ~attempts:6 ~backoff_us:100_000 () in
  let clock = Federation.clock f in
  Federation.add_site f ~name:"tokyo" ~region:"jp";
  let data = Bytes.make file_bytes 'w' in
  let (_ : Amoeba_cap.Capability.t) =
    Federation.publish f ~from:"home" ~name:"wan-file" ~replicate_to:[ "tokyo" ] data
  in
  let wide_fetch () = Federation.fetch_from_replica f ~from:"home" "wan-file" ~replica:"tokyo" in
  let local_fetch () = Federation.fetch_from_replica f ~from:"home" "wan-file" ~replica:"home" in
  (* warm every cache so later fetches are byte-for-byte comparable *)
  ignore (wide_fetch ());
  ignore (local_fetch ());
  Clock.reset clock;
  (* Phase boundaries leave generous virtual headroom: a fully-retried
     wide op against a dead line costs minutes of virtual time (6
     attempts x 10 s timeout per transaction), and a phase's ops must
     not run the clock past the next phase's event. *)
  let loss_at = 1_000_000 and partition_at = 10_000_000_000 and heal_at = 20_000_000_000 in
  let plan =
    Plan.create ~seed:0x3A9L
    |> fun p -> Plan.at p ~us:loss_at (Plan.Link_loss (Link.Wide, 0.25))
    |> fun p -> Plan.at p ~us:partition_at (Plan.Link_partition Link.Wide)
    |> fun p -> Plan.at p ~us:heal_at (Plan.Link_heal Link.Wide)
  in
  let injector = Injector.attach ~transport:(Federation.transport f) ~clock plan in
  let wide_ops = ref 0 and wide_failed = ref 0 in
  let local_ops = ref 0 and local_failed = ref 0 in
  let timed_local () =
    incr local_ops;
    match Clock.elapsed clock (fun () -> local_fetch ()) with
    | _, us -> us
    | exception Status.Error _ ->
      incr local_failed;
      0
  in
  let quiet_local_us = timed_local () in
  (* --- loss phase: 25% per-direction drop on the wide line only --- *)
  Clock.advance_to clock loss_at;
  Injector.poll injector;
  for _ = 1 to 12 do
    incr wide_ops;
    (try ignore (wide_fetch ()) with Status.Error _ -> incr wide_failed);
    ignore (timed_local ())
  done;
  (* --- partition phase: the line is cut; every wide op fails --- *)
  Clock.advance_to clock partition_at;
  Injector.poll injector;
  let partition_ops = ref 0 and partition_failed = ref 0 in
  for _ = 1 to 3 do
    incr partition_ops;
    (try ignore (wide_fetch ()) with Status.Error _ -> incr partition_failed)
  done;
  let faulted_local_us = timed_local () in
  (* --- heal: loss rate and partition both clear --- *)
  Clock.advance_to clock heal_at;
  Injector.poll injector;
  let healed_ok = match wide_fetch () with _ -> true | exception Status.Error _ -> false in
  let istats = Injector.stats injector in
  Injector.detach injector;
  {
    wf_wide_ops = !wide_ops;
    wf_wide_failed = !wide_failed;
    wf_partition_ops = !partition_ops;
    wf_partition_failed = !partition_failed;
    wf_healed_ok = healed_ok;
    wf_local_ops = !local_ops;
    wf_local_failed = !local_failed;
    wf_link_request_drops = Amoeba_sim.Stats.count istats "link_request_drops";
    wf_link_reply_drops = Amoeba_sim.Stats.count istats "link_reply_drops";
    wf_partition_drops = Amoeba_sim.Stats.count istats "link_partition_drops";
    wf_retries = Amoeba_sim.Stats.count istats "link_request_drops";
    wf_quiet_local_us = quiet_local_us;
    wf_faulted_local_us = faulted_local_us;
  }

type pair_report = {
  pr_ops : int;
  pr_failed : int;
  pr_outage_ops : int;  (** mutations applied while the primary was down *)
  pr_diverged : string option;
  pr_state_match : bool;
  pr_healed : bool;
}

(* The directory pair under a plan: the primary replica dies in the
   middle of a stream of mutations, the backup serves alone, and the
   heal replays the backup's state onto the primary through a lockstep
   checkpoint copy. Afterwards the two replicas must agree not just
   structurally (no divergence) but byte-for-byte in their checkpoints —
   same object numbers, same capabilities, same serialisation. *)
let dir_pair_recovery () =
  let clock = Clock.create () in
  let transport = Transport.create ~clock in
  let _, primary_store = boot_served ~clock transport "pairx-p" 11L in
  let _, backup_store = boot_served ~clock transport "pairx-b" 22L in
  let pair = Pair.create ~primary_store ~backup_store () in
  Pair.serve pair transport;
  let dirs = Dir_client.connect transport (Pair.port pair) in
  let root = Pair.root pair in
  Clock.reset clock;
  let crash_at = 1_000_000 and heal_at = 3_000_000 and run_until = 5_000_000 in
  let plan =
    Plan.create ~seed:0xD1BL
    |> fun p -> Plan.at p ~us:crash_at Plan.Server_crash
    |> fun p -> Plan.at p ~us:heal_at Plan.Server_reboot
  in
  let injector =
    Injector.attach ~transport
      ~on_crash:(fun () -> Pair.fail_primary pair)
      ~on_reboot:(fun () -> Pair.heal_primary pair)
      ~clock plan
  in
  let ops = ref 0 and failed = ref 0 and outage_ops = ref 0 in
  let i = ref 0 in
  while Clock.now clock < run_until do
    let during_outage = not (Pair.primary_alive pair) in
    (try
       let d = Dir_client.make_dir dirs in
       Dir_client.enter dirs root (Printf.sprintf "entry-%03d" !i) d;
       if during_outage then incr outage_ops
     with Status.Error _ -> incr failed);
    incr ops;
    incr i;
    Clock.advance clock 40_000;
    Injector.poll injector
  done;
  Injector.poll injector;
  Injector.detach injector;
  let dump_p, dump_b = Pair.replica_dumps pair in
  {
    pr_ops = !ops;
    pr_failed = !failed;
    pr_outage_ops = !outage_ops;
    pr_diverged = Pair.divergence pair;
    pr_state_match = String.equal dump_p dump_b;
    pr_healed = Pair.primary_alive pair;
  }

(* ---- LOAD: multi-station concurrency and overload control ---- *)

module Sched = Amoeba_sched.Sched
module Backoff = Amoeba_fault.Backoff

(* Station indexes shared by both server models; the NFS model simply
   never routes work to the second arm. *)
let st_cpu = 0

let st_net = 1

let st_arm0 = 2

let st_arm1 = 3

let load_station_names = [| "cpu"; "net"; "arm0"; "arm1" |]

(* The CPU round-robins between requests (the real server is threaded);
   the wire and each mirrored drive arm serve one transfer at a time. *)
let load_stations ~arms =
  [
    Sched.station "cpu" ~layer:Amoeba_trace.Sink.Cpu (Sched.Round_robin 1_000);
    Sched.station "net" ~layer:Amoeba_trace.Sink.Net Sched.Fifo;
  ]
  @ List.init arms (fun i ->
        Sched.station load_station_names.(st_arm0 + i) ~layer:Amoeba_trace.Sink.Disk Sched.Fifo)

type load_profile = {
  lpr_class : string;
  lpr_segments : (string * int) list;  (** (station name, µs), in request order *)
  lpr_traced_us : int;  (** attributed end-to-end time of the traced op *)
}

type load_point = {
  lp_clients : int;
  lp_throughput : float;
  lp_mean_ms : float;
  lp_p50_ms : float;
  lp_p95_ms : float;
  lp_p99_ms : float;
  lp_util : (string * float) list;
}

type overload_point = {
  ov_policy : string;
  ov_goodput : float;
  ov_p99_ms : float;
  ov_offered : int;
  ov_completed : int;
  ov_failed : int;
  ov_shed : int;
  ov_deadline_misses : int;
  ov_abandoned : int;
  ov_retried : int;
  ov_late : int;
}

type server_load = {
  sl_name : string;
  sl_profiles : load_profile list;
  sl_knee : float;
  sl_serial_cap_per_sec : float;  (** one-at-a-time upper bound *)
  sl_knee_throughput : float;  (** measured, clients = ceil knee *)
  sl_points : load_point list;
}

type load_report = {
  lr_bullet : server_load;
  lr_nfs : server_load;
  lr_overload_clients : int;
  lr_peak_goodput : float;
  lr_overload : overload_point list;
}

(* Convert one traced operation's attribution segments into scheduler
   demands.  Net time goes to the wire station, disk time to a drive arm
   (a fixed arm for reads, alternating for the mirrored writes of
   create), and everything else — CPU, cache memcpy, alloc, server and
   client self-time — to the CPU station.  Every microsecond of the
   trace lands on exactly one station, so the segment sum equals the
   attributed end-to-end time by construction. *)
let profile_of_segments ~disk segs =
  let next_arm = ref st_arm0 in
  let station_of = function
    | Amoeba_trace.Sink.Net -> st_net
    | Amoeba_trace.Sink.Disk -> (
      match disk with
      | `Arm i -> st_arm0 + i
      | `Alternate ->
        let a = !next_arm in
        next_arm := if a = st_arm0 then st_arm1 else st_arm0;
        a)
    | Amoeba_trace.Sink.Cpu | Amoeba_trace.Sink.Cache | Amoeba_trace.Sink.Alloc
    | Amoeba_trace.Sink.Server | Amoeba_trace.Sink.Client ->
      st_cpu
  in
  List.fold_left
    (fun acc (layer, us) ->
      let st = station_of layer in
      match acc with
      | (prev, sum) :: tl when prev = st -> (prev, sum + us) :: tl
      | _ -> (st, us) :: acc)
    [] segs
  |> List.rev

let load_profile_of_spans ~cls ~disk spans =
  let traced_us = (Amoeba_trace.Attrib.of_spans spans).Amoeba_trace.Attrib.total_us in
  let segments = profile_of_segments ~disk (Amoeba_trace.Attrib.segments spans) in
  let segment_sum = List.fold_left (fun acc (_, us) -> acc + us) 0 segments in
  if segment_sum <> traced_us then
    failwith
      (Printf.sprintf "load: %s profile sums to %d us but the trace attributes %d us" cls
         segment_sum traced_us);
  ( { Sched.pr_name = cls; pr_segments = segments },
    {
      lpr_class = cls;
      lpr_segments = List.map (fun (st, us) -> (load_station_names.(st), us)) segments;
      lpr_traced_us = traced_us;
    } )

(* Trace the real Bullet server once per operation class.  A small cache
   makes the cold-read class honest: two 64 KB fillers evict the target
   between create and read. *)
let bullet_load_profiles () =
  let config = { Server.default_config with Server.cache_bytes = 160 * 1024; max_cached_files = 8 } in
  let traced ~cls ~disk f =
    let bed = make_bullet_bed ~config () in
    let tracer = Amoeba_trace.Trace.create ~clock:bed.b_clock () in
    let sink = Amoeba_trace.Trace.sink tracer in
    let measured = f bed in
    Amoeba_rpc.Transport.set_tracer (Client.transport bed.b_client) (Some tracer);
    Server.set_tracer bed.b_server (Some tracer);
    measured ();
    Amoeba_rpc.Transport.set_tracer (Client.transport bed.b_client) None;
    Server.set_tracer bed.b_server None;
    load_profile_of_spans ~cls ~disk (Amoeba_trace.Sink.spans sink)
  in
  let hot =
    traced ~cls:"read4k" ~disk:(`Arm 0) (fun bed ->
        let cap = Client.create bed.b_client (Bytes.make 4_096 'h') in
        ignore (Client.read bed.b_client cap);
        fun () -> ignore (Client.read bed.b_client cap))
  in
  let cold =
    traced ~cls:"read64k" ~disk:(`Arm 0) (fun bed ->
        let target = Client.create bed.b_client (Bytes.make 65_536 'c') in
        (* evict the target so the traced read pays the disk *)
        let f1 = Client.create bed.b_client (Bytes.make 65_536 '1') in
        let f2 = Client.create bed.b_client (Bytes.make 65_536 '2') in
        ignore (Client.read bed.b_client f1);
        ignore (Client.read bed.b_client f2);
        fun () -> ignore (Client.read bed.b_client target))
  in
  let create =
    traced ~cls:"create64k" ~disk:`Alternate (fun bed ->
        let data = Bytes.make 65_536 'w' in
        fun () -> ignore (Client.create bed.b_client data))
  in
  (hot, cold, create)

(* Same protocol against the NFS baseline.  The NFS server itself emits
   no spans, so its CPU shows up as root self-time ([Server] layer); the
   transport and the traced block device supply the net and disk
   segments. *)
let nfs_load_profiles () =
  let traced ~cls ~disk f =
    let clock = Clock.create () in
    let geometry = Geometry.small ~sectors:testbed_sectors in
    let dev = Dev.create ~id:"nfs-load" ~geometry ~clock in
    Nfs.format dev ~max_files:2048;
    let server = Result.get_ok (Nfs.mount dev) in
    let transport = Amoeba_rpc.Transport.create ~clock in
    Nfs_baseline.Nfs_proto.serve server transport;
    let client = Nfs_client.connect transport (Nfs.port server) in
    let tracer = Amoeba_trace.Trace.create ~clock () in
    let sink = Amoeba_trace.Trace.sink tracer in
    let measured = f server client in
    Amoeba_rpc.Transport.set_tracer transport (Some tracer);
    Dev.set_tracer dev (Some tracer);
    measured ();
    Amoeba_rpc.Transport.set_tracer transport None;
    Dev.set_tracer dev None;
    load_profile_of_spans ~cls ~disk (Amoeba_trace.Sink.spans sink)
  in
  let hot =
    traced ~cls:"read4k" ~disk:(`Arm 0) (fun _server client ->
        let fh = Nfs_client.create client in
        Nfs_client.write_file client fh (Bytes.make 4_096 'h');
        ignore (Nfs_client.read_at client fh ~off:0 ~len:4_096);
        fun () -> ignore (Nfs_client.read_at client fh ~off:0 ~len:4_096))
  in
  let cold =
    traced ~cls:"read64k" ~disk:(`Arm 0) (fun server client ->
        let fh = Nfs_client.create client in
        Nfs_client.write_file client fh (Bytes.make 65_536 'c');
        Nfs.age_cache server;
        Nfs.age_cache server;
        fun () -> ignore (Nfs_client.read_file client fh ~size:65_536))
  in
  let create =
    traced ~cls:"create64k" ~disk:(`Arm 0) (fun _server client ->
        let data = Bytes.make 65_536 'w' in
        fun () ->
          let fh = Nfs_client.create client in
          Nfs_client.write_file client fh data)
  in
  (hot, cold, create)

let load_config ~arms ~profiles ~clients ~think_us ~requests_per_client ~overload =
  {
    Sched.stations = load_stations ~arms;
    profiles;
    clients;
    think_us;
    requests_per_client;
    overload;
  }

(* The client mix: hot reads, cold reads against each arm, creates.
   Duplicating the cold-read profile with its disk demand on the other
   arm is how the simulation spreads mirrored-read traffic the way the
   real server's balanced mirror does. *)
let bullet_mix (hot, cold, create) =
  let on_other_arm p =
    {
      Sched.pr_name = p.Sched.pr_name ^ "-arm1";
      pr_segments =
        List.map
          (fun (st, us) -> ((if st = st_arm0 then st_arm1 else st), us))
          p.Sched.pr_segments;
    }
  in
  [ hot; cold; on_other_arm cold; create ]

let nfs_mix (hot, cold, create) = [ hot; cold; create ]

let run_load_point config clients =
  let r = Sched.run { config with Sched.clients } in
  {
    lp_clients = clients;
    lp_throughput = r.Sched.throughput_per_sec;
    lp_mean_ms = r.Sched.mean_response_ms;
    lp_p50_ms = r.Sched.p50_response_ms;
    lp_p95_ms = r.Sched.p95_response_ms;
    lp_p99_ms = r.Sched.p99_response_ms;
    lp_util =
      List.map (fun s -> (s.Sched.sr_name, s.Sched.utilisation)) r.Sched.station_reports;
  }

let load_overload_policies = [ ("block", Sched.Block); ("shed", Sched.Shed) ]

(* The acceptance checks live in the experiment itself so every bench or
   CI run enforces them, not just the test suite. *)
let assert_load_invariants r =
  let check name cond =
    if not cond then failwith ("load experiment invariant violated: " ^ name)
  in
  List.iter
    (fun sl ->
      List.iter
        (fun p ->
          let sum = List.fold_left (fun acc (_, us) -> acc + us) 0 p.lpr_segments in
          check
            (Printf.sprintf "%s/%s profile sum = traced time" sl.sl_name p.lpr_class)
            (sum = p.lpr_traced_us))
        sl.sl_profiles)
    [ r.lr_bullet; r.lr_nfs ];
  (* (a) concurrency: at the knee the multi-station runtime beats the
     serial one-request-at-a-time bound *)
  check "bullet knee throughput exceeds the serial bound"
    (r.lr_bullet.sl_knee_throughput > r.lr_bullet.sl_serial_cap_per_sec);
  let find name = List.find (fun p -> String.equal p.ov_policy name) r.lr_overload in
  let block = find "block" and shed = find "shed" and deadline = find "deadline" in
  (* (b) overload: shedding keeps goodput at the peak, blocking collapses *)
  check "shed goodput within 10% of peak" (shed.ov_goodput >= 0.9 *. r.lr_peak_goodput);
  check "deadline goodput within 10% of peak"
    (deadline.ov_goodput >= 0.9 *. r.lr_peak_goodput);
  check "block goodput degrades below 90% of peak"
    (block.ov_goodput < 0.9 *. r.lr_peak_goodput);
  check "block goodput below shed goodput" (block.ov_goodput < shed.ov_goodput)

let load_experiment ?(client_counts = [ 1; 2; 4; 8; 16; 32; 64 ]) ?(think_ms = 50)
    ?(requests_per_client = 40) () =
  let think_us = think_ms * 1000 in
  let bullet_parts = bullet_load_profiles () in
  let nfs_parts = nfs_load_profiles () in
  let describe (a, b, c) = [ a; b; c ] in
  let server name ~arms mix parts =
    let profiles = mix (let (a, _), (b, _), (c, _) = parts in (a, b, c)) in
    let config =
      load_config ~arms ~profiles ~clients:1 ~think_us ~requests_per_client
        ~overload:Sched.no_overload
    in
    let knee = Sched.saturation_clients config in
    let knee_clients = max 1 (int_of_float (ceil knee)) in
    {
      sl_name = name;
      sl_profiles = List.map snd (describe parts);
      sl_knee = knee;
      sl_serial_cap_per_sec = Sched.serial_throughput_per_sec config;
      sl_knee_throughput = (run_load_point config knee_clients).lp_throughput;
      sl_points = List.map (run_load_point config) client_counts;
    }
  in
  let bullet = server "bullet" ~arms:2 bullet_mix bullet_parts in
  let nfs = server "nfs" ~arms:1 nfs_mix nfs_parts in
  (* Overload: drive the Bullet configuration at twice its saturation
     population with a bounded accept queue and retrying clients.  Under
     Block the abandoned-but-still-queued work turns into late
     completions and goodput collapses; Shed and Deadline keep goodput at
     the admitted-work ceiling. *)
  let bullet_profiles =
    bullet_mix (let (a, _), (b, _), (c, _) = bullet_parts in (a, b, c))
  in
  let peak_goodput =
    List.fold_left (fun acc p -> Float.max acc p.lp_throughput) 0. bullet.sl_points
  in
  (* Saturation in the measured curve, not the analytic knee: the
     smallest swept population within 5% of peak.  The analytic knee uses
     mean demands, so with a mixed workload the curve keeps climbing for
     a while past it. *)
  let saturation_pop =
    match
      List.find_opt (fun p -> p.lp_throughput >= 0.95 *. peak_goodput) bullet.sl_points
    with
    | Some p -> p.lp_clients
    | None -> List.length client_counts
  in
  let overload_clients = max 2 (2 * saturation_pop) in
  (* The accept limit is the concurrency that reaches peak throughput,
     so admission control binds without starving the bottleneck.  Client
     patience must then exceed the in-service response at that
     concurrency (~8 x the 78 ms bottleneck demand) or admitted requests
     abandon too; 2 s is comfortably above it and far below the
     unbounded queue waits Block builds up. *)
  let retry = Backoff.policy ~attempts:4 ~timeout_us:2_000_000 ~backoff_us:50_000 in
  let overload_point (name, policy) =
    let overload = { Sched.accept_limit = 8; policy; retry = Some retry } in
    let r =
      Sched.run
        (load_config ~arms:2 ~profiles:bullet_profiles ~clients:overload_clients ~think_us
           ~requests_per_client ~overload)
    in
    {
      ov_policy = name;
      ov_goodput = r.Sched.throughput_per_sec;
      ov_p99_ms = r.Sched.p99_response_ms;
      ov_offered = r.Sched.offered;
      ov_completed = r.Sched.completed;
      ov_failed = r.Sched.failed;
      ov_shed = r.Sched.shed_count;
      ov_deadline_misses = r.Sched.deadline_misses;
      ov_abandoned = r.Sched.abandoned;
      ov_retried = r.Sched.retried;
      ov_late = r.Sched.late;
    }
  in
  let overload =
    List.map overload_point
      (load_overload_policies @ [ ("deadline", Sched.Deadline 300_000) ])
  in
  let report =
    {
      lr_bullet = bullet;
      lr_nfs = nfs;
      lr_overload_clients = overload_clients;
      lr_peak_goodput = peak_goodput;
      lr_overload = overload;
    }
  in
  assert_load_invariants report;
  report

(* A small overloaded run with the tracer on: the deterministic trace
   the CI double-run diffs, and the input for [bullet_trace --sched]. *)
let load_sched_trace () =
  let (hot, _), (cold, _), (create, _) = bullet_load_profiles () in
  let profiles = bullet_mix (hot, cold, create) in
  (* Patience must clear the 233 ms create profile or only the 4 KB reads
     could ever complete; the tight deadline still drops plenty, so the
     trace shows ok, late, deadline and abandon outcomes side by side. *)
  let retry = Backoff.policy ~attempts:3 ~timeout_us:500_000 ~backoff_us:20_000 in
  let config =
    load_config ~arms:2 ~profiles ~clients:12 ~think_us:20_000 ~requests_per_client:6
      ~overload:{ Sched.accept_limit = 4; policy = Sched.Deadline 150_000; retry = Some retry }
  in
  let sink = Amoeba_trace.Sink.create () in
  let report = Sched.run ~sink config in
  (sink, report)

(* ---- LEASE: the zero-RPC read fast path ---- *)

module Dir_server = Amoeba_dir.Dir_server
module Station = Amoeba_lease.Station
module Cap = Amoeba_cap.Capability
module Sealer = Amoeba_cap.Sealer

(* One transport, three Bullet servers (file storage plus the two
   directory-pair stores), the replicated directory pair on top.  This is
   the full stack a leased station talks to: names and leases from the
   pair, bytes from the file server. *)
type lease_rig = {
  lz_clock : Clock.t;
  lz_transport : Transport.t;
  lz_files : Server.t;
  lz_files_client : Client.t;
  lz_pair : Pair.t;
  lz_dirs : Dir_client.t;
  lz_root : Cap.t;
}

(* Short leases keep the experiment clock small; every timing below is
   stated relative to this. *)
let lease_dir_config = { Dir_server.default_config with Dir_server.lease_us = 200_000 }

let make_lease_rig () =
  let clock = Clock.create () in
  let transport = Transport.create ~clock in
  let boot = boot_served ~clock transport in
  let files, files_client = boot "lease-files" 5L in
  let _, primary_store = boot "lease-dirp" 11L in
  let _, backup_store = boot "lease-dirb" 22L in
  let pair = Pair.create ~config:lease_dir_config ~primary_store ~backup_store () in
  Pair.serve pair transport;
  let dirs = Dir_client.connect transport (Pair.port pair) in
  {
    lz_clock = clock;
    lz_transport = transport;
    lz_files = files;
    lz_files_client = files_client;
    lz_pair = pair;
    lz_dirs = dirs;
    lz_root = Pair.root pair;
  }

let trusted_station ?config rig =
  Station.create ?config ~sealer:(Server.sealer rig.lz_files) ~store:rig.lz_files_client
    ~dirs:rig.lz_dirs ()

let untrusted_station ?config rig =
  Station.create ?config ~store:rig.lz_files_client ~dirs:rig.lz_dirs ()

let transactions rig = Amoeba_sim.Stats.count (Transport.stats rig.lz_transport) "transactions"

(* Run [f] and count the RPC transactions it issued. *)
let counting_rpcs rig f =
  let before = transactions rig in
  let v = f () in
  (v, transactions rig - before)

(* ---- no-stale-byte scenarios under fault plans ---- *)

type lease_fault = {
  lf_plan : string;
  lf_reads : int;
  lf_failed : int;  (** liveness losses: Not_found after removal, exhausted retries *)
  lf_stale : int;  (** reads returning old bytes after the mutation completed — must be 0 *)
  lf_revalidations : int;  (** renew + grant RPCs the station issued *)
  lf_consistent : bool;  (** pair replicas byte-identical at the end *)
}

(* The common reader loop: a station reads [name] every [step_us]; the
   writer replaces the binding at [mutate_at] (on the shared clock).  A
   read that completes at or after the replace completed and still
   returns the old bytes is a stale serve — the protocol's one forbidden
   outcome.  [mutate] performs the mutation and returns the completion
   time; reads that raise count as liveness failures only. *)
let stale_read_loop ~rig ~station ~name ~old_data ~step_us ~until_us ~mutate_at ~mutate
    ~(poll : unit -> unit) () =
  let reads = ref 0 and failed = ref 0 and stale = ref 0 in
  let mutated_at = ref max_int in
  while Clock.now rig.lz_clock < until_us do
    poll ();
    if Clock.now rig.lz_clock >= mutate_at && !mutated_at = max_int then
      mutated_at := mutate ();
    (match Station.read station ~dir:rig.lz_root name with
    | data ->
      incr reads;
      if Bytes.equal data old_data && Clock.now rig.lz_clock >= !mutated_at then incr stale
    | exception Status.Error _ -> incr failed);
    Clock.advance rig.lz_clock step_us
  done;
  (!reads, !failed, !stale)

let revalidations station =
  let s = Station.stats station in
  Amoeba_sim.Stats.count s "lease_renewals" + Amoeba_sim.Stats.count s "lease_grants"

(* Scenario 1: a replace racing lease expiry.  Reads are spaced so the
   mutation lands exactly while a granted lease is still outstanding —
   the directory pair must wait the horizon out before bumping. *)
let lease_fault_expiry_race () =
  let rig = make_lease_rig () in
  let station = trusted_station rig in
  let data_a = Bytes.make 4_096 'A' and data_b = Bytes.make 4_096 'B' in
  let cap_a = Client.create rig.lz_files_client data_a in
  Dir_client.enter rig.lz_dirs rig.lz_root "f" cap_a;
  ignore (Station.read station ~dir:rig.lz_root "f");
  let mutate () =
    let cap_b = Client.create rig.lz_files_client data_b in
    ignore (Dir_client.replace rig.lz_dirs rig.lz_root "f" cap_b);
    Clock.now rig.lz_clock
  in
  let start = Clock.now rig.lz_clock in
  let reads, failed, stale =
    stale_read_loop ~rig ~station ~name:"f" ~old_data:data_a ~step_us:60_000
      ~until_us:(start + 1_500_000) ~mutate_at:(start + 130_000) ~mutate
      ~poll:(fun () -> ())
      ()
  in
  {
    lf_plan = "expiry-races-replace";
    lf_reads = reads;
    lf_failed = failed;
    lf_stale = stale;
    lf_revalidations = revalidations station;
    lf_consistent = Option.is_none (Pair.divergence rig.lz_pair);
  }

(* Scenario 2: the directory primary crashes on the epoch-bumping
   mutation and heals later from the backup's checkpoint — which must
   carry the epoch, or healed clients could trust stale leases. *)
let lease_fault_primary_crash () =
  let rig = make_lease_rig () in
  let station = trusted_station rig in
  let data_a = Bytes.make 4_096 'A' and data_b = Bytes.make 4_096 'B' in
  let cap_a = Client.create rig.lz_files_client data_a in
  Dir_client.enter rig.lz_dirs rig.lz_root "f" cap_a;
  ignore (Station.read station ~dir:rig.lz_root "f");
  let start = Clock.now rig.lz_clock in
  let crash_at = start + 125_000 and heal_at = start + 900_000 in
  let plan =
    Plan.create ~seed:0x1EA5EL
    |> fun p -> Plan.at p ~us:crash_at Plan.Server_crash
    |> fun p -> Plan.at p ~us:heal_at Plan.Server_reboot
  in
  let injector =
    Injector.attach ~transport:rig.lz_transport
      ~on_crash:(fun () -> Pair.fail_primary rig.lz_pair)
      ~on_reboot:(fun () -> Pair.heal_primary rig.lz_pair)
      ~clock:rig.lz_clock plan
  in
  let mutate () =
    let cap_b = Client.create rig.lz_files_client data_b in
    ignore (Dir_client.replace rig.lz_dirs rig.lz_root "f" cap_b);
    Clock.now rig.lz_clock
  in
  let reads, failed, stale =
    stale_read_loop ~rig ~station ~name:"f" ~old_data:data_a ~step_us:60_000
      ~until_us:(start + 1_500_000)
      ~mutate_at:crash_at (* the bump lands in the crash window *)
      ~mutate
      ~poll:(fun () -> Injector.poll injector)
      ()
  in
  Injector.poll injector;
  Injector.detach injector;
  let dump_p, dump_b = Pair.replica_dumps rig.lz_pair in
  let epochs_agree =
    match
      ( Dir_server.epoch (Pair.primary rig.lz_pair) (Dir_server.root (Pair.primary rig.lz_pair)),
        Dir_server.epoch (Pair.backup rig.lz_pair) (Dir_server.root (Pair.backup rig.lz_pair)) )
    with
    | Ok a, Ok b -> a = b
    | _ -> false
  in
  {
    lf_plan = "dir-primary-crash";
    lf_reads = reads;
    lf_failed = failed;
    lf_stale = stale;
    lf_revalidations = revalidations station;
    lf_consistent =
      Pair.primary_alive rig.lz_pair
      && Option.is_none (Pair.divergence rig.lz_pair)
      && String.equal dump_p dump_b && epochs_agree;
  }

(* Scenario 3: message loss while leases are being revalidated.  Reads
   are spaced past the lease term so every read needs a renewal RPC, and
   30% of messages vanish; the station's retries carry it through (or
   fail the read — a liveness loss, never a stale serve). *)
let lease_fault_loss_on_revalidate () =
  let rig = make_lease_rig () in
  let station = trusted_station rig in
  let data_a = Bytes.make 4_096 'A' and data_b = Bytes.make 4_096 'B' in
  let cap_a = Client.create rig.lz_files_client data_a in
  Dir_client.enter rig.lz_dirs rig.lz_root "f" cap_a;
  ignore (Station.read station ~dir:rig.lz_root "f");
  let start = Clock.now rig.lz_clock in
  let plan =
    Plan.create ~seed:0x10FFL
    |> fun p -> Plan.at p ~us:(start + 200_000) (Plan.Message_loss 0.3)
    |> fun p -> Plan.at p ~us:(start + 2_200_000) (Plan.Message_loss 0.)
  in
  let injector = Injector.attach ~transport:rig.lz_transport ~clock:rig.lz_clock plan in
  let mutate () =
    let cap_b = Client.create rig.lz_files_client data_b in
    ignore (Dir_client.replace rig.lz_dirs rig.lz_root "f" cap_b);
    Clock.now rig.lz_clock
  in
  let reads, failed, stale =
    stale_read_loop ~rig ~station ~name:"f" ~old_data:data_a ~step_us:250_000
      ~until_us:(start + 3_200_000)
      ~mutate_at:(start + 2_400_000) (* after the loss window clears *)
      ~mutate
      ~poll:(fun () -> Injector.poll injector)
      ()
  in
  Injector.detach injector;
  {
    lf_plan = "loss-on-revalidation";
    lf_reads = reads;
    lf_failed = failed;
    lf_stale = stale;
    lf_revalidations = revalidations station;
    lf_consistent = Option.is_none (Pair.divergence rig.lz_pair);
  }

(* Scenario 4: a skewed client lease clock, scripted through the plan
   DSL (this also exercises the lease_skew grammar).  The clock jumps
   forward mid-lease, then steps backwards — the backward step must drop
   every lease.  The binding is removed after the skewing; a skewed
   client may fail reads early (liveness) but never serves after the
   removal completed. *)
let lease_fault_clock_skew () =
  let rig = make_lease_rig () in
  let station = trusted_station rig in
  let data_a = Bytes.make 4_096 'A' in
  let cap_a = Client.create rig.lz_files_client data_a in
  Dir_client.enter rig.lz_dirs rig.lz_root "f" cap_a;
  ignore (Station.read station ~dir:rig.lz_root "f");
  let start = Clock.now rig.lz_clock in
  let plan_text =
    Printf.sprintf "seed 77\nat %d lease_skew 150000\nat %d lease_skew -50000\n"
      (start + 200_000) (start + 700_000)
  in
  let plan = match Plan.parse plan_text with Ok p -> p | Error e -> failwith e in
  let injector =
    Injector.attach ~transport:rig.lz_transport ~on_lease_skew:(Station.set_skew station)
      ~clock:rig.lz_clock plan
  in
  let mutate () =
    Dir_client.remove_name rig.lz_dirs rig.lz_root "f";
    Clock.now rig.lz_clock
  in
  let reads, failed, stale =
    stale_read_loop ~rig ~station ~name:"f" ~old_data:data_a ~step_us:60_000
      ~until_us:(start + 1_800_000) ~mutate_at:(start + 900_000) ~mutate
      ~poll:(fun () -> Injector.poll injector)
      ()
  in
  Injector.detach injector;
  let steps_back = Amoeba_sim.Stats.count (Station.stats station) "lease_clock_steps_back" in
  {
    lf_plan = "lease-clock-skew";
    lf_reads = reads;
    lf_failed = failed;
    lf_stale = stale;
    lf_revalidations = revalidations station;
    lf_consistent = steps_back >= 1 && Option.is_none (Pair.divergence rig.lz_pair);
  }

(* ---- the leased LOAD profile: what the scheduler sees ---- *)

(* Trace one warm leased read.  No transport tracer is attached, and
   none is needed: the fast path never touches the transport, which is
   the point — the trace must contain zero "rpc" spans. *)
let leased_hot_profile () =
  let rig = make_lease_rig () in
  let station = trusted_station rig in
  let cap = Client.create rig.lz_files_client (Bytes.make 4_096 'h') in
  Dir_client.enter rig.lz_dirs rig.lz_root "hot" cap;
  ignore (Station.read station ~dir:rig.lz_root "hot");
  ignore (Station.read station ~dir:rig.lz_root "hot");
  let tracer = Amoeba_trace.Trace.create ~clock:rig.lz_clock () in
  let sink = Amoeba_trace.Trace.sink tracer in
  Amoeba_rpc.Transport.set_tracer rig.lz_transport (Some tracer);
  Station.set_tracer station (Some tracer);
  ignore (Station.read station ~dir:rig.lz_root "hot");
  Station.set_tracer station None;
  Amoeba_rpc.Transport.set_tracer rig.lz_transport None;
  let spans = Amoeba_trace.Sink.spans sink in
  let profile, lpr = load_profile_of_spans ~cls:"leased.read" ~disk:(`Arm 0) spans in
  (profile, lpr, Amoeba_trace.Attrib.rpc_count spans)

type lease_report = {
  le_cold_rpcs : int;  (** first read: lease grant + SIZE + READ *)
  le_warm_reads : int;
  le_warm_rpcs : int;  (** across all warm reads — must be 0 *)
  le_warm_read_us : int;  (** one warm read: local verify + memcpy only *)
  le_trusted_hit_us : int;
  le_untrusted_hit_us : int;
  le_untrusted_hit_rpcs : int;  (** the verification round trip *)
  le_renew_rpcs : int;  (** read after expiry: the one cheap epoch check *)
  le_forged_rejected : bool;  (** forged check field fails local verification *)
  le_faults : lease_fault list;
  le_hot_profile : load_profile;
  le_hot_rpc_count : int;  (** "rpc" spans in the traced warm read — must be 0 *)
  le_baseline_hot : load_profile;
  le_baseline_knee : float;
  le_baseline_knee_throughput : float;
  le_leased_knee : float;
  le_leased_knee_throughput : float;
  le_server_evicted_bytes : int;  (** under pressure, from the server RAM cache *)
  le_client_evicted_bytes : int;  (** same counter, client side *)
}

(* Memory pressure on both ends: small server and client caches, a
   working set that fits in neither. Both caches evict, and both account
   the displaced data under the same [bytes_evicted] counter, so a bench
   can put the two eviction streams side by side. *)
let lease_cache_pressure () =
  let clock = Clock.create () in
  let transport = Transport.create ~clock in
  let config =
    { Server.default_config with Server.cache_bytes = 96 * 1024; max_cached_files = 4 }
  in
  let server =
    Server.boot ~config ~seed:33L ~clock ~id:"lp" ~sectors:testbed_sectors ~max_files:256 ()
  in
  Bullet_core.Proto.serve server transport;
  let store = Client.connect transport (Server.port server) in
  let dirs = Dir_server.create ~config:lease_dir_config ~store () in
  Amoeba_dir.Dir_proto.serve dirs transport;
  let dclient = Dir_client.connect transport (Dir_server.port dirs) in
  let station =
    Station.create
      ~config:{ Station.cache_bytes = 96 * 1024 }
      ~sealer:(Server.sealer server) ~store ~dirs:dclient ()
  in
  let root = Dir_server.root dirs in
  for i = 0 to 9 do
    let cap = Client.create store (Bytes.make 16_384 (Char.chr (Char.code 'a' + i))) in
    Dir_client.enter dclient root (Printf.sprintf "f%d" i) cap
  done;
  for _round = 1 to 2 do
    for i = 0 to 9 do
      ignore (Station.read station ~dir:root (Printf.sprintf "f%d" i))
    done
  done;
  ( Server.cache_bytes_evicted server,
    Amoeba_lease.File_cache.bytes_evicted (Station.cache station) )

let assert_lease_invariants r =
  let check name cond =
    if not cond then failwith ("lease experiment invariant violated: " ^ name)
  in
  check "warm leased reads issue zero RPCs" (r.le_warm_rpcs = 0 && r.le_warm_reads > 0);
  check "warm leased read spends no network time (sub-millisecond)" (r.le_warm_read_us < 1_000);
  check "traced leased read contains zero rpc spans" (r.le_hot_rpc_count = 0);
  check "cold read pays the lease grant and the fetch" (r.le_cold_rpcs >= 3);
  check "untrusted hit pays exactly one verification RPC" (r.le_untrusted_hit_rpcs = 1);
  check "trusted hit is faster than untrusted hit" (r.le_trusted_hit_us < r.le_untrusted_hit_us);
  check "expired lease revalidates with one RPC" (r.le_renew_rpcs = 1);
  check "forged capability rejected locally" r.le_forged_rejected;
  check "at least three fault scenarios" (List.length r.le_faults >= 3);
  List.iter
    (fun f ->
      check (f.lf_plan ^ ": no stale serve, ever") (f.lf_stale = 0);
      check (f.lf_plan ^ ": reads actually ran") (f.lf_reads > 0);
      check (f.lf_plan ^ ": replicas consistent") f.lf_consistent)
    r.le_faults;
  check "dir-primary crash scenario present"
    (List.exists (fun f -> String.equal f.lf_plan "dir-primary-crash") r.le_faults);
  check "leased clients move the LOAD knee right"
    (r.le_leased_knee_throughput > r.le_baseline_knee_throughput);
  check "server cache evicted bytes under pressure" (r.le_server_evicted_bytes > 0);
  check "client cache evicted bytes under pressure" (r.le_client_evicted_bytes > 0)

let lease_experiment () =
  (* phase A: zero-RPC warm reads on a trusted station *)
  let rig = make_lease_rig () in
  let station = trusted_station rig in
  let data = Bytes.make 4_096 'h' in
  let cap = Client.create rig.lz_files_client data in
  Dir_client.enter rig.lz_dirs rig.lz_root "hot" cap;
  let _, cold_rpcs = counting_rpcs rig (fun () -> Station.read station ~dir:rig.lz_root "hot") in
  let warm_reads = 10 in
  let warm_t0 = Clock.now rig.lz_clock in
  let _, warm_rpcs =
    counting_rpcs rig (fun () ->
        for _ = 1 to warm_reads do
          ignore (Station.read station ~dir:rig.lz_root "hot")
        done)
  in
  let warm_read_us = (Clock.now rig.lz_clock - warm_t0) / warm_reads in
  let trusted_hit_us = time rig.lz_clock (fun () -> ignore (Station.read station ~dir:rig.lz_root "hot")) in
  (* phase B: the untrusted path is unchanged — one verification RPC *)
  let ustation = untrusted_station rig in
  ignore (Station.read ustation ~dir:rig.lz_root "hot");
  let (_, untrusted_hit_rpcs), untrusted_hit_us =
    let r = ref (Bytes.empty, 0) in
    let us =
      time rig.lz_clock (fun () ->
          r := counting_rpcs rig (fun () -> Station.read ustation ~dir:rig.lz_root "hot"))
    in
    (!r, us)
  in
  let forged =
    let sealer = Server.sealer rig.lz_files in
    let bad = Cap.v ~port:cap.Cap.port ~obj:cap.Cap.obj ~rights:cap.Cap.rights
        ~check:(Int64.add cap.Cap.check 1L)
    in
    Sealer.verify_local sealer ~cap && not (Sealer.verify_local sealer ~cap:bad)
  in
  (* a lapsed lease costs exactly one renewal RPC before the cached serve *)
  Clock.advance rig.lz_clock (2 * lease_dir_config.Dir_server.lease_us);
  let _, renew_rpcs = counting_rpcs rig (fun () -> Station.read station ~dir:rig.lz_root "hot") in
  (* phase C: fault plans *)
  let faults =
    [
      lease_fault_expiry_race ();
      lease_fault_primary_crash ();
      lease_fault_loss_on_revalidate ();
      lease_fault_clock_skew ();
    ]
  in
  (* phase D: the LOAD knee with leased clients *)
  let (hot, hot_lpr), (cold, _), (create, _) = bullet_load_profiles () in
  let leased_hot, leased_lpr, hot_rpc_count = leased_hot_profile () in
  let knee_of profiles =
    let config =
      load_config ~arms:2 ~profiles ~clients:1 ~think_us:50_000 ~requests_per_client:40
        ~overload:Sched.no_overload
    in
    let knee = Sched.saturation_clients config in
    let knee_clients = max 1 (int_of_float (ceil knee)) in
    (knee, (run_load_point config knee_clients).lp_throughput)
  in
  let baseline_knee, baseline_tp = knee_of (bullet_mix (hot, cold, create)) in
  let leased_knee, leased_tp = knee_of (bullet_mix (leased_hot, cold, create)) in
  let server_evicted, client_evicted = lease_cache_pressure () in
  let report =
    {
      le_cold_rpcs = cold_rpcs;
      le_warm_reads = warm_reads;
      le_warm_rpcs = warm_rpcs;
      le_warm_read_us = warm_read_us;
      le_trusted_hit_us = trusted_hit_us;
      le_untrusted_hit_us = untrusted_hit_us;
      le_untrusted_hit_rpcs = untrusted_hit_rpcs;
      le_renew_rpcs = renew_rpcs;
      le_forged_rejected = forged;
      le_faults = faults;
      le_hot_profile = leased_lpr;
      le_hot_rpc_count = hot_rpc_count;
      le_baseline_hot = hot_lpr;
      le_baseline_knee = baseline_knee;
      le_baseline_knee_throughput = baseline_tp;
      le_leased_knee = leased_knee;
      le_leased_knee_throughput = leased_tp;
      le_server_evicted_bytes = server_evicted;
      le_client_evicted_bytes = client_evicted;
    }
  in
  assert_lease_invariants report;
  report

(* A small scripted scenario with the tracer on: grant, zero-RPC hits,
   expiry + renewal, revocation after a replace, and a failed read after
   removal.  Deterministic — the CI double-run diffs its dump, and
   [bullet_trace --lease] renders it. *)
let lease_trace () =
  let rig = make_lease_rig () in
  let station = trusted_station rig in
  let tracer = Amoeba_trace.Trace.create ~clock:rig.lz_clock () in
  let sink = Amoeba_trace.Trace.sink tracer in
  Amoeba_rpc.Transport.set_tracer rig.lz_transport (Some tracer);
  Server.set_tracer rig.lz_files (Some tracer);
  Station.set_tracer station (Some tracer);
  let data_a = Bytes.make 4_096 'A' and data_b = Bytes.make 4_096 'B' in
  let cap_a = Client.create rig.lz_files_client data_a in
  Dir_client.enter rig.lz_dirs rig.lz_root "f" cap_a;
  ignore (Station.read station ~dir:rig.lz_root "f");
  (* two zero-RPC hits *)
  ignore (Station.read station ~dir:rig.lz_root "f");
  ignore (Station.read station ~dir:rig.lz_root "f");
  (* lapse the lease: expire + renew, then serve from cache *)
  Clock.advance rig.lz_clock (2 * lease_dir_config.Dir_server.lease_us);
  ignore (Station.read station ~dir:rig.lz_root "f");
  (* replace: next revalidation sees the epoch move and revokes *)
  let cap_b = Client.create rig.lz_files_client data_b in
  ignore (Dir_client.replace rig.lz_dirs rig.lz_root "f" cap_b);
  Clock.advance rig.lz_clock (2 * lease_dir_config.Dir_server.lease_us);
  ignore (Station.read station ~dir:rig.lz_root "f");
  (* removal: the read fails after revalidation, leaving a raised span *)
  Dir_client.remove_name rig.lz_dirs rig.lz_root "f";
  Clock.advance rig.lz_clock (2 * lease_dir_config.Dir_server.lease_us);
  (try ignore (Station.read station ~dir:rig.lz_root "f")
   with Status.Error _ -> ());
  Station.set_tracer station None;
  Server.set_tracer rig.lz_files None;
  Amoeba_rpc.Transport.set_tracer rig.lz_transport None;
  sink

(* ---- METRICS: live health over scripted fault plans ---- *)

module Metrics = Amoeba_metrics.Metrics
module Health = Amoeba_metrics.Health

type metrics_scenario = {
  ms_name : string;
  ms_interval_us : int;
  ms_snapshots : Metrics.snapshot list;  (** the scrape ring, oldest first *)
  ms_transitions : (int * Health.state) list;
  ms_alerts : (int * string * bool) list;  (** SLO fire/clear edges *)
  ms_final : Health.state;
}

type metrics_report = {
  mx_scenarios : metrics_scenario list;
  mx_status_metrics : int;  (** samples in the STD_STATUS snapshot *)
  mx_status_bytes : int;  (** its binary encoding *)
  mx_roundtrip_ok : bool;  (** encode -> decode -> encode is byte-identical *)
}

let scenario_of ~name ~interval_us ~scraper ~health ~slo =
  {
    ms_name = name;
    ms_interval_us = interval_us;
    ms_snapshots = Metrics.Ring.snapshots (Metrics.Scraper.ring scraper);
    ms_transitions = Health.transitions health;
    ms_alerts = Health.Slo.transitions slo;
    ms_final = Health.state health;
  }

(* Scenario 1: the resync story as the health layer sees it.  A drive
   dies at 2 s and rejoins fully dirty at 4 s while a read workload
   (with a trickle of creates exercising the degraded write path) keeps
   running.  The server's own registry carries the mirror
   gauges, so the scraper reads exactly what STD_STATUS serves; the
   transition sequence must be Healthy -> Degraded -> Healthy with no
   flapping while the resync drains. *)
let metrics_drive_rejoin () =
  let interval_us = 500_000 in
  let clock = Clock.create () in
  let config =
    { Server.default_config with cache_bytes = 128 * 1024; max_cached_files = 16 }
  in
  let server = Server.boot ~config ~clock ~id:"mx" ~sectors:8_192 ~max_files:1024 () in
  let mirror = Server.mirror server in
  let transport = Transport.create ~clock in
  Bullet_core.Proto.serve server transport;
  let client = Client.connect ~attempts:4 ~backoff_us:25_000 transport (Server.port server) in
  let files =
    Array.init 16 (fun i ->
        Client.create client ~p_factor:2 (Bytes.make 32_768 (Char.chr (65 + i))))
  in
  Clock.reset clock;
  (* the Degraded entry payload is the prospective backlog: a rejoining
     drive starts fully dirty, so the gauge reports the offline drive's
     whole capacity until the resync cursor takes over *)
  let fail_at = 2_150_000 and rejoin_at = 4_000_000 and run_until = 16_000_000 in
  let plan =
    Plan.create ~seed:0xBEADL
    |> fun p -> Plan.at p ~us:fail_at (Plan.Drive_fail 0)
    |> fun p -> Plan.at p ~us:rejoin_at (Plan.Drive_rejoin 256)
  in
  let injector = Injector.attach ~transport ~mirror ~clock plan in
  let reg = Server.metrics server in
  Transport.register_metrics transport reg;
  Injector.register_metrics injector reg;
  let scraper = Metrics.Scraper.create ~registry:reg ~clock ~interval_us ~capacity:64 in
  let health = Health.create () in
  let slo =
    Health.Slo.create
      [
        {
          (* this workload is disk-bound from the first cold read: the
             latency SLO burns immediately and never recovers — the
             always-on alert STD_STATUS consumers see *)
          Health.Slo.al_name = "read-p99";
          objective = Health.Slo.P99_below { metric = "server.read_us"; limit = 25_000 };
          window = 6;
          enter_pct = 50;
          exit_pct = 16;
        };
        {
          (* the hysteresis demo: burns while the dirty backlog is
             non-zero, fires a few intervals into the resync and clears
             a few intervals after the mirror is clean *)
          Health.Slo.al_name = "resync-backlog";
          objective =
            Health.Slo.P99_below { metric = "mirror.sectors_remaining"; limit = 0 };
          window = 6;
          enter_pct = 50;
          exit_pct = 16;
        };
      ]
  in
  let i = ref 0 in
  while Clock.now clock < run_until do
    (try ignore (Client.read client files.(!i * 5 mod Array.length files))
     with Status.Error _ -> ());
    if !i mod 16 = 0 then ignore (Client.create client ~p_factor:2 (Bytes.make 8_192 'x'));
    incr i;
    Clock.advance clock 10_000;
    Injector.poll injector;
    match Metrics.Scraper.poll scraper with
    | None -> ()
    | Some snap ->
      ignore (Health.observe health snap);
      Health.Slo.observe slo snap
  done;
  Injector.detach injector;
  (* the STD_STATUS surface, exercised off the same live registry *)
  let status = Bullet_core.Proto.encode_status server in
  let roundtrip =
    match Bullet_core.Proto.decode_status status with
    | Error _ -> false
    | Ok snap -> Bytes.equal (Metrics.encode_snapshot snap) status
  in
  let n_samples =
    match Bullet_core.Proto.decode_status status with
    | Error _ -> 0
    | Ok snap -> List.length snap.Metrics.samples
  in
  ( scenario_of ~name:"drive-rejoin" ~interval_us ~scraper ~health ~slo,
    (n_samples, Bytes.length status, roundtrip),
    Mirror.sync_state mirror = Mirror.Clean )

(* Scenario 2: an overload storm through the scheduler.  Twice-saturated
   shedding admission: the health layer must call it Overloaded from the
   interval shed rate, the p99 SLO must burn through its window, and the
   goodput floor must fire when the storm drains and per-interval
   completions collapse. *)
let metrics_overload_storm () =
  let interval_us = 100_000 in
  let mclock = Clock.create () in
  let reg = Metrics.create "storm" in
  let scraper = Metrics.Scraper.create ~registry:reg ~clock:mclock ~interval_us ~capacity:128 in
  let health = Health.create () in
  let slo =
    Health.Slo.create
      [
        {
          Health.Slo.al_name = "response-p99";
          objective = Health.Slo.P99_below { metric = "sched.response_us"; limit = 8_000 };
          window = 5;
          enter_pct = 60;
          exit_pct = 20;
        };
        {
          Health.Slo.al_name = "goodput-floor";
          objective = Health.Slo.Delta_at_least { metric = "sched.completed"; floor = 10 };
          window = 5;
          enter_pct = 60;
          exit_pct = 20;
        };
        {
          (* error budget on shed work: fires once the run has rejected
             more attempts than the budget allows, never clears *)
          Health.Slo.al_name = "shed-budget";
          objective = Health.Slo.P99_below { metric = "sched.sheds"; limit = 100 };
          window = 5;
          enter_pct = 60;
          exit_pct = 20;
        };
      ]
  in
  let observer at =
    if at > Clock.now mclock then Clock.advance_to mclock at;
    match Metrics.Scraper.poll scraper with
    | None -> ()
    | Some snap ->
      ignore (Health.observe health snap);
      Health.Slo.observe slo snap
  in
  let retry = Backoff.policy ~attempts:3 ~timeout_us:500_000 ~backoff_us:20_000 in
  let config =
    {
      Sched.stations =
        [
          Sched.station "cpu" ~layer:Amoeba_trace.Sink.Cpu (Sched.Round_robin 1_000);
          Sched.station "net" ~layer:Amoeba_trace.Sink.Net Sched.Delay;
        ];
      profiles = [ { Sched.pr_name = "read4k"; pr_segments = [ (0, 3_000); (1, 1_000) ] } ];
      clients = 64;
      think_us = 10_000;
      requests_per_client = 40;
      overload = { Sched.accept_limit = 4; policy = Sched.Shed; retry = Some retry };
    }
  in
  let report = Sched.run ~metrics:reg ~observer config in
  (scenario_of ~name:"overload-storm" ~interval_us ~scraper ~health ~slo, report)

(* Scenario 3: lease churn under scripted clock skew.  A station reads a
   hot binding under short leases; the plan DSL jumps its lease clock
   forward (every read now renews) and then steps it backwards (drop all
   leases, re-grant).  The churn counter spikes and the evaluator must
   call it Lease_churning — never Degraded or Overloaded, which is what
   separates the three fault signatures. *)
let metrics_lease_skew () =
  let interval_us = 200_000 in
  let rig = make_lease_rig () in
  let station = trusted_station rig in
  let reg = Metrics.create "lease-skew" in
  Station.register_metrics station reg;
  Transport.register_metrics rig.lz_transport reg;
  let data = Bytes.make 4_096 'L' in
  let cap = Client.create rig.lz_files_client data in
  Dir_client.enter rig.lz_dirs rig.lz_root "hot" cap;
  ignore (Station.read station ~dir:rig.lz_root "hot");
  let start = Clock.now rig.lz_clock in
  let scraper =
    Metrics.Scraper.create ~registry:reg ~clock:rig.lz_clock ~interval_us ~capacity:64
  in
  (* the default threshold (3 events per interval) sits above the normal
     renewal cadence — one expiry + grant per lease horizon — so only
     the skew phases read as churn *)
  let health = Health.create () in
  let slo =
    Health.Slo.create
      [
        {
          (* the skew must cost lease traffic, not reads: the station
             keeps serving warm hits every interval, so this floor never
             burns — asserted below as an empty alert-edge list *)
          Health.Slo.al_name = "hit-floor";
          objective = Health.Slo.Delta_at_least { metric = "client_cache.hits"; floor = 1 };
          window = 4;
          enter_pct = 75;
          exit_pct = 25;
        };
      ]
  in
  let plan_text =
    Printf.sprintf "seed 41\nat %d lease_skew 150000\nat %d lease_skew -50000\n"
      (start + 300_000) (start + 900_000)
  in
  let plan = match Plan.parse plan_text with Ok p -> p | Error e -> failwith e in
  let injector =
    Injector.attach ~transport:rig.lz_transport ~on_lease_skew:(Station.set_skew station)
      ~clock:rig.lz_clock plan
  in
  while Clock.now rig.lz_clock < start + 2_400_000 do
    Injector.poll injector;
    (try ignore (Station.read station ~dir:rig.lz_root "hot") with Status.Error _ -> ());
    (match Metrics.Scraper.poll scraper with
    | None -> ()
    | Some snap ->
      ignore (Health.observe health snap);
      Health.Slo.observe slo snap);
    Clock.advance rig.lz_clock 60_000
  done;
  Injector.detach injector;
  scenario_of ~name:"lease-skew" ~interval_us ~scraper ~health ~slo

(* The acceptance checks live in the experiment so every bench or CI run
   enforces the exact transition shapes, not just the test suite. *)
let assert_metrics_invariants r =
  let check name cond =
    if not cond then failwith ("metrics experiment invariant violated: " ^ name)
  in
  let find name = List.find (fun s -> String.equal s.ms_name name) r.mx_scenarios in
  let kinds s = List.map snd s.ms_transitions in
  let fired s name = List.exists (fun (_, n, f) -> f && String.equal n name) s.ms_alerts in
  let rejoin = find "drive-rejoin" in
  (match kinds rejoin with
  | [ Health.Healthy; Health.Degraded { resync_backlog }; Health.Healthy ] ->
    check "drive-rejoin backlog positive at entry" (resync_backlog > 0)
  | _ -> check "drive-rejoin transitions are healthy -> degraded -> healthy" false);
  check "drive-rejoin ends healthy" (rejoin.ms_final = Health.Healthy);
  check "drive-rejoin read-p99 alert fired" (fired rejoin "read-p99");
  check "drive-rejoin resync-backlog alert fired" (fired rejoin "resync-backlog");
  check "drive-rejoin resync-backlog alert cleared"
    (List.exists
       (fun (_, n, f) -> (not f) && String.equal n "resync-backlog")
       rejoin.ms_alerts);
  check "drive-rejoin scraped through the run" (List.length rejoin.ms_snapshots >= 20);
  let storm = find "overload-storm" in
  (match kinds storm with
  | Health.Healthy :: Health.Overloaded { shed_rate } :: rest ->
    check "overload-storm shed rate positive" (shed_rate > 0);
    check "overload-storm never leaves overloaded except to healthy"
      (List.for_all (fun st -> st = Health.Healthy) rest)
  | _ -> check "overload-storm transitions enter overloaded" false);
  check "overload-storm shed-budget alert fired" (fired storm "shed-budget");
  check "overload-storm response-p99 alert fired" (fired storm "response-p99");
  check "overload-storm goodput-floor alert fired" (fired storm "goodput-floor");
  let skew = find "lease-skew" in
  check "lease-skew transitions are healthy -> lease_churning -> healthy"
    (match kinds skew with
    | [ Health.Healthy; Health.Lease_churning; Health.Healthy ] -> true
    | _ -> false);
  check "lease-skew hit-floor stays quiet" (skew.ms_alerts = []);
  check "status snapshot roundtrip is byte-identical" r.mx_roundtrip_ok;
  check "status snapshot carries the whole registry" (r.mx_status_metrics >= 20)

let metrics_experiment () =
  let rejoin, (status_metrics, status_bytes, roundtrip), clean = metrics_drive_rejoin () in
  let storm, _sched_report = metrics_overload_storm () in
  let skew = metrics_lease_skew () in
  let report =
    {
      mx_scenarios = [ rejoin; storm; skew ];
      mx_status_metrics = status_metrics;
      mx_status_bytes = status_bytes;
      mx_roundtrip_ok = roundtrip && clean;
    }
  in
  assert_metrics_invariants report;
  report

(* Deterministic text dump of the whole run — every snapshot, every
   transition, every alert edge.  The CI double-run diffs it byte for
   byte, and [bullet_top --replay] renders the same data as a
   dashboard. *)
let metrics_dump r =
  let buf = Buffer.create 65_536 in
  List.iter
    (fun s ->
      Buffer.add_string buf
        (Printf.sprintf "== scenario %s interval_us %d\n" s.ms_name s.ms_interval_us);
      List.iter (fun snap -> Buffer.add_string buf (Metrics.to_text snap)) s.ms_snapshots;
      Buffer.add_string buf "-- transitions\n";
      List.iter
        (fun (at, st) ->
          Buffer.add_string buf (Printf.sprintf "%d %s\n" at (Health.state_label st)))
        s.ms_transitions;
      Buffer.add_string buf "-- alerts\n";
      List.iter
        (fun (at, name, firing) ->
          Buffer.add_string buf
            (Printf.sprintf "%d %s %s\n" at name (if firing then "fire" else "clear")))
        s.ms_alerts;
      Buffer.add_string buf
        (Printf.sprintf "-- final %s\n" (Health.state_label s.ms_final)))
    r.mx_scenarios;
  Buffer.add_string buf
    (Printf.sprintf "status metrics %d bytes %d roundtrip %b\n" r.mx_status_metrics
       r.mx_status_bytes r.mx_roundtrip_ok);
  Buffer.contents buf

(* ---- TXN: atomic multi-object operations under fault plans ---- *)

module Txn = Amoeba_txn.Txn
module Txn_wal = Amoeba_txn.Wal
module Bullet_fsck = Bullet_core.Fsck

(* One transport, a Bullet file server and TWO replicated directory
   pairs (each on its own pair of stores) — the smallest stack on which
   all three multi-object scenarios run, including a rename whose two
   participants live on different pairs.  Everything hangs off one
   virtual clock, so every run is exactly reproducible. *)
type txn_rig = {
  tx_clock : Clock.t;
  tx_transport : Transport.t;
  tx_files : Server.t;
  tx_files_client : Client.t;
  tx_pair_a : Pair.t;
  tx_dirs_a : Dir_client.t;
  tx_pair_b : Pair.t;
  tx_dirs_b : Dir_client.t;
}

let make_txn_rig () =
  let clock = Clock.create () in
  let transport = Transport.create ~clock in
  let boot = boot_served ~clock transport in
  let files, files_client = boot "txn-files" 5L in
  let _, store_ap = boot "txn-dir-ap" 11L in
  let _, store_ab = boot "txn-dir-ab" 22L in
  let _, store_bp = boot "txn-dir-bp" 33L in
  let _, store_bb = boot "txn-dir-bb" 44L in
  (* distinct seeds: each pair mints its own service port and seals *)
  let pair_a = Pair.create ~seed:0xA11CEL ~primary_store:store_ap ~backup_store:store_ab () in
  let pair_b = Pair.create ~seed:0xB0BCA7L ~primary_store:store_bp ~backup_store:store_bb () in
  Pair.serve pair_a transport;
  Pair.serve pair_b transport;
  {
    tx_clock = clock;
    tx_transport = transport;
    tx_files = files;
    tx_files_client = files_client;
    tx_pair_a = pair_a;
    tx_dirs_a = Dir_client.connect transport (Pair.port pair_a);
    tx_pair_b = pair_b;
    tx_dirs_b = Dir_client.connect transport (Pair.port pair_b);
  }

let txn_bound dirs root name =
  match Dir_client.lookup dirs root name with
  | cap -> Some cap
  | exception Status.Error _ -> None

(* The reference roots for the orphan check: every capability the naming
   layer can still reach, including the older entries of each version
   stack.  The directory servers persist into their own stores, so the
   file server's live set must be covered by the listings alone. *)
let txn_reachable rig =
  let from_pair dirs pair =
    let root = Pair.root pair in
    List.concat_map
      (fun (name, _) -> Dir_client.versions dirs root name)
      (Dir_client.list dirs root)
  in
  from_pair rig.tx_dirs_a rig.tx_pair_a @ from_pair rig.tx_dirs_b rig.tx_pair_b

(* Prepared residue left anywhere after resolution — must be zero. *)
let txn_residue rig =
  Server.txn_pending_count rig.tx_files
  + Server.txn_condemned_count rig.tx_files
  + Dir_server.txn_pending_count (Pair.primary rig.tx_pair_a)
  + Dir_server.txn_pending_count (Pair.backup rig.tx_pair_a)
  + Dir_server.txn_pending_count (Pair.primary rig.tx_pair_b)
  + Dir_server.txn_pending_count (Pair.backup rig.tx_pair_b)

let txn_dumps_equal rig =
  let pa, ba = Pair.replica_dumps rig.tx_pair_a in
  let pb, bb = Pair.replica_dumps rig.tx_pair_b in
  String.equal pa ba && String.equal pb bb

(* Each scenario sets up its own initial state against the rig and
   returns its name, a driver (None = the coordinator crashed mid-run)
   and an atomicity oracle: given the resolved outcome, is the visible
   state exactly the committed state or exactly the initial state —
   never a mixture. *)
let txn_scenario_create rig =
  let data = Bytes.make 2_048 'N' in
  let root = Pair.root rig.tx_pair_a in
  let run txn =
    match
      Txn.create_and_bind txn ~bullet:rig.tx_files_client ~dir:rig.tx_dirs_a ~dir_cap:root
        ~name:"fresh" data
    with
    | outcome, _cap -> Some outcome
    | exception Txn.Crashed _ -> None
  in
  let atomic outcome =
    match txn_bound rig.tx_dirs_a root "fresh" with
    | Some cap ->
      String.equal outcome "committed"
      && (match Client.read rig.tx_files_client cap with
         | bytes -> Bytes.equal bytes data
         | exception Status.Error _ -> false)
    | None -> String.equal outcome "aborted"
  in
  ("create_and_bind", run, atomic)

let txn_scenario_rename rig =
  let data = Bytes.make 2_048 'R' in
  let cap = Client.create rig.tx_files_client data in
  let root_a = Pair.root rig.tx_pair_a and root_b = Pair.root rig.tx_pair_b in
  Dir_client.enter rig.tx_dirs_a root_a "from" cap;
  let run txn =
    match
      Txn.rename txn
        ~from:(rig.tx_dirs_a, root_a, "from")
        ~into:(rig.tx_dirs_b, root_b, "into")
    with
    | outcome -> Some outcome
    | exception Txn.Crashed _ -> None
  in
  let atomic outcome =
    match
      (outcome, txn_bound rig.tx_dirs_a root_a "from", txn_bound rig.tx_dirs_b root_b "into")
    with
    | "committed", None, Some c -> Cap.equal c cap
    | "aborted", Some c, None -> Cap.equal c cap
    | _ -> false
  in
  ("rename", run, atomic)

let txn_scenario_replace rig =
  let old_data = Bytes.make 2_048 'O' and new_data = Bytes.make 2_048 'W' in
  let old_cap = Client.create rig.tx_files_client old_data in
  let root = Pair.root rig.tx_pair_a in
  Dir_client.enter rig.tx_dirs_a root "doc" old_cap;
  let run txn =
    match
      Txn.replace_with_delete txn ~bullet:rig.tx_files_client ~dir:rig.tx_dirs_a ~dir_cap:root
        ~name:"doc" new_data
    with
    | outcome, _cap -> Some outcome
    | exception Txn.Crashed _ -> None
  in
  let atomic outcome =
    match txn_bound rig.tx_dirs_a root "doc" with
    | None -> false
    | Some now -> (
      let read cap =
        match Client.read rig.tx_files_client cap with
        | bytes -> Some bytes
        | exception Status.Error _ -> None
      in
      match (outcome, read now, read old_cap) with
      | "committed", Some bytes, None ->
        (not (Cap.equal now old_cap)) && Bytes.equal bytes new_data
      | "aborted", Some bytes, Some _ -> Cap.equal now old_cap && Bytes.equal bytes old_data
      | _ -> false)
  in
  ("replace_with_delete", run, atomic)

type txn_fault = {
  tf_plan : string;
  tf_scenario : string;
  tf_expected : string;  (** the outcome the plan must resolve to *)
  tf_outcome : string;  (** the post-recovery outcome: committed or aborted *)
  tf_crashed : bool;  (** a crash directive actually fired mid-protocol *)
  tf_in_doubt_before : int;  (** WAL in-doubt count when recovery starts *)
  tf_resolved_commits : int;
  tf_resolved_aborts : int;
  tf_atomic : bool;  (** visible state matches the outcome everywhere — never mixed *)
  tf_orphans : int;  (** fsck orphans on the file server after recovery — must be 0 *)
  tf_pending : int;  (** prepared residue anywhere after recovery — must be 0 *)
  tf_dumps_equal : bool;  (** both pairs byte-identical across replicas *)
  tf_stable : bool;  (** a second recovery pass finds nothing to do *)
}

(* Every edge of the protocol, one named plan each: the five crash
   points (scripted as [txn_crash] directives through the plan DSL) and
   loss / duplication on each of the four message legs.  The expected
   outcome is pinned per plan: a fault before the commit record must
   resolve to aborted-everywhere, after it to committed-everywhere. *)
let txn_fault_table =
  [
    ("coord-crash-before-prepare", "txn_crash coord_before_prepare", `Create, "aborted", 1);
    ("coord-crash-after-prepare", "txn_crash coord_after_prepare", `Create, "aborted", 1);
    ("coord-crash-after-commit-record", "txn_crash coord_after_commit", `Rename, "committed", 1);
    ("coord-crash-mid-decision", "txn_crash coord_mid_decision", `Replace, "committed", 1);
    ("participant-crash-after-prepare", "txn_crash participant_after_prepare", `Create,
      "committed", 0);
    ("drop-prepare-req", "txn_drop prepare_req 1", `Create, "aborted", 0);
    ("drop-prepare-reply", "txn_drop prepare_reply 1", `Rename, "aborted", 0);
    ("drop-decision-req", "txn_drop decision_req 1", `Create, "committed", 1);
    ("drop-decision-reply", "txn_drop decision_reply 1", `Replace, "committed", 1);
    ("dup-prepare-req", "txn_dup prepare_req", `Rename, "committed", 0);
    ("dup-prepare-reply", "txn_dup prepare_reply", `Create, "committed", 0);
    ("dup-decision-req", "txn_dup decision_req", `Replace, "committed", 0);
    ("dup-decision-reply", "txn_dup decision_reply", `Rename, "committed", 0);
  ]

let txn_run_case (plan_name, directive, which, expected, _expected_doubt) =
  let rig = make_txn_rig () in
  let scenario =
    match which with
    | `Create -> txn_scenario_create
    | `Rename -> txn_scenario_rename
    | `Replace -> txn_scenario_replace
  in
  let sc_name, run, atomic = scenario rig in
  let plan_text = Printf.sprintf "seed 424242\nat 0 %s\n" directive in
  let plan = match Plan.parse plan_text with Ok p -> p | Error e -> failwith e in
  (* the crash action defines what "crash" means per edge: coordinator
     edges unwind the coordinator (the WAL survives); the participant
     edge kills the directory pair's primary replica instead *)
  let injector =
    Injector.attach ~transport:rig.tx_transport
      ~on_txn_crash:(fun edge ->
        match edge with
        | Plan.Participant_after_prepare -> Pair.fail_primary rig.tx_pair_a
        | edge -> raise (Txn.Crashed edge))
      ~clock:rig.tx_clock plan
  in
  let txn =
    Txn.create ~injector ~metrics:(Server.metrics rig.tx_files)
      ~bullets:[ rig.tx_files_client ]
      ~dirs:[ rig.tx_dirs_a; rig.tx_dirs_b ]
      ()
  in
  let ran = run txn in
  let participant_down = not (Pair.primary_alive rig.tx_pair_a) in
  let in_doubt_before = Txn.in_doubt_count txn in
  (* recovery: heal the crashed replica first (it restores from the
     surviving checkpoint, intents and all), then resolve the WAL *)
  if participant_down then Pair.heal_primary rig.tx_pair_a;
  let resolved = Txn.recover txn in
  let again = Txn.recover txn in
  Injector.detach injector;
  let outcome =
    match ran with
    | Some o -> Txn.outcome_name o
    | None -> if resolved.Txn.resolved_commits > 0 then "committed" else "aborted"
  in
  {
    tf_plan = plan_name;
    tf_scenario = sc_name;
    tf_expected = expected;
    tf_outcome = outcome;
    tf_crashed = ran = None || participant_down;
    tf_in_doubt_before = in_doubt_before;
    tf_resolved_commits = resolved.Txn.resolved_commits;
    tf_resolved_aborts = resolved.Txn.resolved_aborts;
    tf_atomic = atomic outcome;
    tf_orphans = List.length (Bullet_fsck.orphans rig.tx_files ~reachable:(txn_reachable rig));
    tf_pending = txn_residue rig;
    tf_dumps_equal = txn_dumps_equal rig;
    tf_stable = again.Txn.resolved_commits = 0 && again.Txn.resolved_aborts = 0;
  }

(* The unfaulted baseline: all three scenarios through one coordinator,
   every one committing cleanly. *)
let txn_quiet_run () =
  let rig = make_txn_rig () in
  let scenarios = [ txn_scenario_create rig; txn_scenario_rename rig; txn_scenario_replace rig ] in
  let txn =
    Txn.create
      ~bullets:[ rig.tx_files_client ]
      ~dirs:[ rig.tx_dirs_a; rig.tx_dirs_b ]
      ()
  in
  let outcomes =
    List.map
      (fun (name, run, atomic) ->
        let outcome =
          match run txn with Some o -> Txn.outcome_name o | None -> "crashed"
        in
        (name, outcome, atomic outcome))
      scenarios
  in
  let clean =
    List.for_all (fun (_, _, ok) -> ok) outcomes
    && Txn.in_doubt_count txn = 0
    && txn_residue rig = 0
    && txn_dumps_equal rig
    && Bullet_fsck.orphans rig.tx_files ~reachable:(txn_reachable rig) = []
  in
  (List.map (fun (n, o, _) -> (n, o)) outcomes, Txn_wal.length (Txn.wal txn), clean)

(* The health story: a coordinator dies between two decision legs and
   stays dead.  The [txn.in_doubt] gauge (mounted on the file server's
   registry, so STD_STATUS serves it) reads 1; one scrape of doubt is a
   decision leg in flight, two consecutive flips the health state to
   Txn_stuck; recovery drains the gauge and hysteresis walks the state
   back to Healthy. *)
let txn_health_story () =
  let rig = make_txn_rig () in
  let plan =
    match Plan.parse "seed 9\nat 0 txn_crash coord_mid_decision\n" with
    | Ok p -> p
    | Error e -> failwith e
  in
  let injector =
    Injector.attach ~transport:rig.tx_transport
      ~on_txn_crash:(fun edge -> raise (Txn.Crashed edge))
      ~clock:rig.tx_clock plan
  in
  let registry = Server.metrics rig.tx_files in
  let txn =
    Txn.create ~injector ~metrics:registry
      ~bullets:[ rig.tx_files_client ]
      ~dirs:[ rig.tx_dirs_a; rig.tx_dirs_b ]
      ()
  in
  let _, run, _ = txn_scenario_create rig in
  (match run txn with
  | None -> ()
  | Some _ -> failwith "txn health story: the armed crash did not fire");
  Injector.detach injector;
  let interval_us = 500_000 in
  let scraper =
    Metrics.Scraper.create ~registry ~clock:rig.tx_clock ~interval_us ~capacity:32
  in
  let health = Health.create () in
  let scrape n =
    for _ = 1 to n do
      Clock.advance rig.tx_clock interval_us;
      match Metrics.Scraper.poll scraper with
      | Some snap -> ignore (Health.observe health snap)
      | None -> ()
    done
  in
  scrape 3;
  let stuck = Health.state health in
  let (_ : Txn.recovery) = Txn.recover txn in
  scrape 3;
  let status = Bullet_core.Proto.encode_status rig.tx_files in
  let has_gauges =
    match Bullet_core.Proto.decode_status status with
    | Error _ -> false
    | Ok snap ->
      Option.is_some (Metrics.find snap "txn.in_doubt")
      && Option.is_some (Metrics.find snap "txn.committed")
      && Option.is_some (Metrics.find snap "txn.aborted")
      && Option.is_some (Metrics.find snap "txn.prepared")
  in
  let transitions =
    List.map (fun (at, st) -> (at, Health.state_label st)) (Health.transitions health)
  in
  (transitions, Health.state_label stuck, has_gauges)

type txn_report = {
  tx_quiet : (string * string) list;  (** scenario name, outcome of the unfaulted run *)
  tx_quiet_wal : int;  (** WAL records after the three quiet commits *)
  tx_quiet_clean : bool;  (** quiet runs atomic, residue-free, orphan-free *)
  tx_faults : txn_fault list;
  tx_health : (int * string) list;  (** health transitions of the stuck-coordinator run *)
  tx_stuck_label : string;  (** the state while the coordinator stayed dead *)
  tx_status_has_gauges : bool;  (** STD_STATUS carries the [txn.*] surface *)
}

let assert_txn_invariants r =
  let check name cond =
    if not cond then failwith (Printf.sprintf "TXN invariant violated: %s" name)
  in
  check "quiet runs all commit"
    (List.for_all (fun (_, o) -> String.equal o "committed") r.tx_quiet);
  check "quiet runs leave no residue and full WAL coverage"
    (r.tx_quiet_clean && r.tx_quiet_wal = 16);
  List.iter
    (fun f ->
      let ck what cond = check (Printf.sprintf "%s: %s" f.tf_plan what) cond in
      ck (Printf.sprintf "resolves to %s" f.tf_expected)
        (String.equal f.tf_outcome f.tf_expected);
      ck "atomic (never mixed)" f.tf_atomic;
      ck "no orphaned objects" (f.tf_orphans = 0);
      ck "no prepared residue" (f.tf_pending = 0);
      ck "replica dumps byte-identical" f.tf_dumps_equal;
      ck "recovery idempotent" f.tf_stable)
    r.tx_faults;
  check "every crash plan actually crashed"
    (List.for_all
       (fun f ->
         (not (String.length f.tf_plan > 4 && String.sub f.tf_plan 0 4 = "coor"))
         && not (String.length f.tf_plan > 4 && String.sub f.tf_plan 0 4 = "part")
         || f.tf_crashed)
       r.tx_faults);
  check "stuck coordinator reads txn_stuck:1" (String.equal r.tx_stuck_label "txn_stuck:1");
  check "health walks healthy -> txn_stuck -> healthy"
    (match List.map snd r.tx_health with
    | [ "healthy"; "txn_stuck:1"; "healthy" ] -> true
    | _ -> false);
  check "STD_STATUS carries the txn gauges" r.tx_status_has_gauges

let txn_experiment () =
  let quiet, quiet_wal, quiet_clean = txn_quiet_run () in
  let faults = List.map txn_run_case txn_fault_table in
  let health, stuck_label, has_gauges = txn_health_story () in
  let report =
    {
      tx_quiet = quiet;
      tx_quiet_wal = quiet_wal;
      tx_quiet_clean = quiet_clean;
      tx_faults = faults;
      tx_health = health;
      tx_stuck_label = stuck_label;
      tx_status_has_gauges = has_gauges;
    }
  in
  assert_txn_invariants report;
  report

(* Deterministic text dump — one line per quiet run, per fault plan and
   per health transition.  The CI double-run diffs it byte for byte. *)
let txn_dump r =
  let buf = Buffer.create 4_096 in
  List.iter
    (fun (name, outcome) -> Buffer.add_string buf (Printf.sprintf "quiet %s %s\n" name outcome))
    r.tx_quiet;
  Buffer.add_string buf
    (Printf.sprintf "quiet wal_records %d clean %b\n" r.tx_quiet_wal r.tx_quiet_clean);
  List.iter
    (fun f ->
      Buffer.add_string buf
        (Printf.sprintf
           "plan %s scenario %s outcome %s crashed %b in_doubt %d resolved %d/%d atomic %b \
            orphans %d pending %d dumps_equal %b stable %b\n"
           f.tf_plan f.tf_scenario f.tf_outcome f.tf_crashed f.tf_in_doubt_before
           f.tf_resolved_commits f.tf_resolved_aborts f.tf_atomic f.tf_orphans f.tf_pending
           f.tf_dumps_equal f.tf_stable))
    r.tx_faults;
  List.iter
    (fun (at, label) -> Buffer.add_string buf (Printf.sprintf "health %d %s\n" at label))
    r.tx_health;
  Buffer.add_string buf
    (Printf.sprintf "stuck %s status_gauges %b\n" r.tx_stuck_label r.tx_status_has_gauges);
  Buffer.contents buf

(* ---- CLUSTER: a sharded multi-server Bullet with live rebalancing ---- *)

module Cluster = Amoeba_cluster.Cluster
module Cluster_ring = Amoeba_cluster.Ring

(* The episode's fixed cast: 48 objects over the default 64-shard space,
   three servers in two regions, two more joining mid-run (two joins can
   replace BOTH members of a group, which is what forces fall-through
   routing — a single membership change always keeps one old owner, so
   one join alone can never orphan a group) and one of the originals
   scripted to die mid-migration, leaving N = 4 live. *)
let cluster_keys = List.init 48 (fun i -> Printf.sprintf "obj-%03d" i)

let cluster_payload i =
  Bytes.make (512 + (97 * i mod 1_536)) (Char.chr (Char.code 'a' + (i mod 26)))

(* Virtual time after the join at which the plan kills [bee] — tuned to
   land while the join delta is still draining, which the invariants
   then pin. *)
let cluster_kill_offset = 4_000_000

type cluster_report = {
  cl_scenario : metrics_scenario;
  cl_objects : int;
  cl_live_servers : int;
  cl_join_delta : int;  (** dirty shards right after the two joins *)
  cl_join_expected : int;  (** ring-computed delta — must match exactly *)
  cl_untouched : int;  (** keys whose shard the whole episode never disturbed *)
  cl_untouched_moved : int;  (** of those, holders changed — must be 0 *)
  cl_kill_fired : bool;  (** the scripted [shard_kill] fired while rebalancing *)
  cl_polled_reads : int;  (** foreground reads issued during the episode *)
  cl_unreadable : int;  (** reads that failed or returned wrong bytes — must be 0 *)
  cl_fallthroughs : int;
  cl_read_repairs : int;
  cl_migrated : int;  (** objects copied by the rebalancer *)
  cl_under_peak : int;  (** worst under-replication seen after the kill *)
  cl_under_final : int;  (** must be 0 after the heal *)
  cl_spread : int * int;  (** min/max live copies per key at the end — must be (R, R) *)
  cl_checkpoint : string;  (** canonical cluster-directory dump *)
  cl_checkpoint_parses : bool;
  cl_double_run_identical : bool;  (** second full run, byte-identical checkpoint *)
  cl_status_has_gauges : bool;  (** STD_STATUS carries the [cluster.*] surface *)
}

(* One full episode: boot three servers, load the keyspace, join two
   more (marking exactly the ring-delta shards), then drain the backlog
   in bounded steps while foreground reads keep flowing and a scripted
   shard_kill fells [bee] mid-migration.  The health layer watches the
   cluster gauges off [ant]'s registry — the same registry STD_STATUS
   serves. *)
let cluster_run () =
  let c = Cluster.create () in
  let clock = Cluster.clock c in
  List.iter
    (fun (name, region) -> Cluster.add_server c ~name ~region)
    [ ("ant", "west"); ("bee", "west"); ("cow", "east") ];
  (* bootstrap deltas cover only empty shards — drain them so the join
     below starts from a clean map *)
  ignore (Cluster.rebalance c);
  let contents = List.mapi (fun i key -> (key, cluster_payload i)) cluster_keys in
  List.iter (fun (key, data) -> Cluster.put c ~from:"west" ~key data) contents;
  let hold0 = List.map (fun key -> (key, Cluster.holders c key)) cluster_keys in
  let ring0 = Cluster.ring c in
  let reg = Server.metrics (Cluster.server c "ant") in
  Cluster.register_metrics c reg;
  let interval_us = 500_000 in
  let scraper = Metrics.Scraper.create ~registry:reg ~clock ~interval_us ~capacity:192 in
  let health = Health.create () in
  let slo =
    Health.Slo.create
      [
        {
          (* migration must not starve foreground traffic: at least one
             routed read per scrape interval, asserted quiet below *)
          Health.Slo.al_name = "route-floor";
          objective = Health.Slo.Delta_at_least { metric = "cluster.routed_reads"; floor = 1 };
          window = 4;
          enter_pct = 75;
          exit_pct = 25;
        };
      ]
  in
  let start = Clock.now clock in
  let plan_text =
    Printf.sprintf "seed 7\nat %d shard_kill bee\n" (start + cluster_kill_offset)
  in
  let plan = match Plan.parse plan_text with Ok p -> p | Error e -> failwith e in
  let kill_mid = ref false in
  let injector =
    Injector.attach ~transport:(Cluster.transport c)
      ~on_shard_kill:(fun name ->
        kill_mid := Cluster.rebalancing c;
        Cluster.kill_server c name)
      ~clock plan
  in
  let shard_moved ~before ~after i =
    Cluster_ring.owners before ~r:Cluster.replicas (Cluster.shard_key i)
    <> Cluster_ring.owners after ~r:Cluster.replicas (Cluster.shard_key i)
  in
  Cluster.add_server c ~name:"dog" ~region:"east";
  Cluster.add_server c ~name:"emu" ~region:"west";
  let join_delta = Cluster.shards_remaining c in
  let join_expected =
    List.length
      (List.filter
         (shard_moved ~before:ring0 ~after:(Cluster.ring c))
         (List.init Cluster.shards Fun.id))
  in
  let polled = ref 0 and unreadable = ref 0 and under_peak = ref 0 and idx = ref 0 in
  let read key =
    incr polled;
    match Cluster.get c ~from:"west" key with
    | data -> if not (Bytes.equal data (List.assoc key contents)) then incr unreadable
    | exception (Failure _ | Not_found | Status.Error _) -> incr unreadable
  in
  (* the double join replaced BOTH owners of some groups; read those
     keys before the rebalancer reaches their shards — each read must
     fall through to an old holder and read-repair, which is the
     migration fast path the invariants pin *)
  List.iter
    (fun key ->
      let holders = Cluster.holders c key in
      let group = Cluster.desired c key in
      if holders <> [] && List.for_all (fun srv -> not (List.mem srv group)) holders then
        read key)
    cluster_keys;
  let step () =
    Injector.poll injector;
    let key = List.nth cluster_keys (!idx mod List.length cluster_keys) in
    incr idx;
    read key;
    ignore (Cluster.rebalance_step c);
    under_peak := max !under_peak (List.length (Cluster.under_replicated c));
    (match Metrics.Scraper.poll scraper with
    | None -> ()
    | Some snap ->
      ignore (Health.observe health snap);
      Health.Slo.observe slo snap);
    Clock.advance clock 10_000
  in
  while Cluster.rebalancing c || Injector.pending injector > 0 do
    step ()
  done;
  (* tail: enough clean scrapes for hysteresis to walk the state home *)
  let tail_until = Clock.now clock + (3 * interval_us) + 10_000 in
  while Clock.now clock < tail_until do
    step ()
  done;
  Injector.detach injector;
  (* the oracle sweep: every object readable with the right bytes *)
  List.iter
    (fun (key, data) ->
      match Cluster.get c ~from:"east" key with
      | got -> if not (Bytes.equal got data) then incr unreadable
      | exception (Failure _ | Not_found | Status.Error _) -> incr unreadable)
    contents;
  let ring_final = Cluster.ring c in
  let untouched =
    List.filter
      (fun key -> not (shard_moved ~before:ring0 ~after:ring_final (Cluster.shard_of key)))
      cluster_keys
  in
  let untouched_moved =
    List.length
      (List.filter (fun key -> Cluster.holders c key <> List.assoc key hold0) untouched)
  in
  let spread =
    List.fold_left
      (fun (lo, hi) key ->
        let n = List.length (Cluster.holders c key) in
        (min lo n, max hi n))
      (max_int, 0) cluster_keys
  in
  let ck = Cluster.checkpoint c in
  let parses =
    match Cluster.parse_checkpoint ck with
    | Ok info ->
      info.Cluster.ck_shards = Cluster.shards
      && info.Cluster.ck_replicas = Cluster.replicas
      && List.length info.Cluster.ck_servers = 5
      && List.length info.Cluster.ck_objects = List.length cluster_keys
    | Error _ -> false
  in
  let status = Bullet_core.Proto.encode_status (Cluster.server c "ant") in
  let has_gauges =
    match Bullet_core.Proto.decode_status status with
    | Error _ -> false
    | Ok snap ->
      Option.is_some (Metrics.find snap "cluster.shards_remaining")
      && Option.is_some (Metrics.find snap "cluster.objects_total")
      && Option.is_some (Metrics.find snap "cluster.under_replicated")
      && Option.is_some (Metrics.find snap "cluster.migrations_active")
  in
  let st = Cluster.stats c in
  {
    cl_scenario = scenario_of ~name:"cluster-rebalance" ~interval_us ~scraper ~health ~slo;
    cl_objects = Cluster.objects_total c;
    cl_live_servers = List.length (Cluster.live_servers c);
    cl_join_delta = join_delta;
    cl_join_expected = join_expected;
    cl_untouched = List.length untouched;
    cl_untouched_moved = untouched_moved;
    cl_kill_fired = !kill_mid && List.mem ("bee", "west", "dead") (Cluster.servers c);
    cl_polled_reads = !polled;
    cl_unreadable = !unreadable;
    cl_fallthroughs = Amoeba_sim.Stats.count st "fallthroughs";
    cl_read_repairs = Amoeba_sim.Stats.count st "read_repairs";
    cl_migrated = Amoeba_sim.Stats.count st "migrated_objects";
    cl_under_peak = !under_peak;
    cl_under_final = List.length (Cluster.under_replicated c);
    cl_spread = spread;
    cl_checkpoint = ck;
    cl_checkpoint_parses = parses;
    cl_double_run_identical = false;
    cl_status_has_gauges = has_gauges;
  }

let assert_cluster_invariants r =
  let check name cond =
    if not cond then failwith ("CLUSTER invariant violated: " ^ name)
  in
  check "join marks exactly the ring-delta shards" (r.cl_join_delta = r.cl_join_expected);
  check "join delta is a strict subset of the shard space"
    (r.cl_join_delta > 0 && r.cl_join_delta < Cluster.shards);
  check "some shards lie outside every delta" (r.cl_untouched > 0);
  check "untouched shards never moved" (r.cl_untouched_moved = 0);
  check "the scripted kill fired mid-migration" r.cl_kill_fired;
  check "every foreground read readable throughout" (r.cl_unreadable = 0);
  check "migration ran under foreground traffic"
    (r.cl_polled_reads > List.length cluster_keys);
  check "fallthrough reads happened and were repaired"
    (r.cl_fallthroughs > 0 && r.cl_read_repairs > 0);
  check "the kill cost replicas" (r.cl_under_peak > 0);
  check "healed: zero under-replicated" (r.cl_under_final = 0);
  check "healed: exactly R live copies everywhere"
    (r.cl_spread = (Cluster.replicas, Cluster.replicas));
  check "all objects survive" (r.cl_objects = List.length cluster_keys);
  check "four servers remain live" (r.cl_live_servers = 4);
  (match List.map snd r.cl_scenario.ms_transitions with
  | [ Health.Healthy; Health.Rebalancing { shards_remaining }; Health.Healthy ] ->
    check "rebalancing backlog positive at entry" (shards_remaining > 0)
  | _ -> check "transitions are healthy -> rebalancing -> healthy" false);
  check "ends healthy" (r.cl_scenario.ms_final = Health.Healthy);
  check "route floor stays quiet" (r.cl_scenario.ms_alerts = []);
  check "checkpoint parses back" r.cl_checkpoint_parses;
  check "double run byte-identical" r.cl_double_run_identical;
  check "STD_STATUS carries the cluster gauges" r.cl_status_has_gauges

let cluster_experiment () =
  let first = cluster_run () in
  let second = cluster_run () in
  let report =
    {
      first with
      cl_double_run_identical = String.equal first.cl_checkpoint second.cl_checkpoint;
    }
  in
  assert_cluster_invariants report;
  report

(* Deterministic text dump — the scenario's snapshots, transitions and
   alert edges, the episode scalars, then the canonical checkpoint.
   The CI double-run diffs it byte for byte. *)
let cluster_dump r =
  let buf = Buffer.create 65_536 in
  let s = r.cl_scenario in
  Buffer.add_string buf
    (Printf.sprintf "== scenario %s interval_us %d\n" s.ms_name s.ms_interval_us);
  List.iter (fun snap -> Buffer.add_string buf (Metrics.to_text snap)) s.ms_snapshots;
  Buffer.add_string buf "-- transitions\n";
  List.iter
    (fun (at, st) ->
      Buffer.add_string buf (Printf.sprintf "%d %s\n" at (Health.state_label st)))
    s.ms_transitions;
  Buffer.add_string buf "-- alerts\n";
  List.iter
    (fun (at, name, firing) ->
      Buffer.add_string buf
        (Printf.sprintf "%d %s %s\n" at name (if firing then "fire" else "clear")))
    s.ms_alerts;
  Buffer.add_string buf (Printf.sprintf "-- final %s\n" (Health.state_label s.ms_final));
  let lo, hi = r.cl_spread in
  Buffer.add_string buf
    (Printf.sprintf
       "objects %d live %d join_delta %d expected %d untouched %d moved %d kill %b polled %d \
        unreadable %d fallthroughs %d repairs %d migrated %d under_peak %d under_final %d \
        spread %d..%d\n"
       r.cl_objects r.cl_live_servers r.cl_join_delta r.cl_join_expected r.cl_untouched
       r.cl_untouched_moved r.cl_kill_fired r.cl_polled_reads r.cl_unreadable r.cl_fallthroughs
       r.cl_read_repairs r.cl_migrated r.cl_under_peak r.cl_under_final lo hi);
  Buffer.add_string buf
    (Printf.sprintf "parses %b double_run %b status_gauges %b\n" r.cl_checkpoint_parses
       r.cl_double_run_identical r.cl_status_has_gauges);
  Buffer.add_string buf "-- checkpoint\n";
  Buffer.add_string buf r.cl_checkpoint;
  Buffer.contents buf

(* ---- CLUSTER bench: rebalance cost and goodput under migration ---- *)

type cluster_bench_point = {
  cb_objects : int;
  cb_delta_shards : int;  (** shards the fourth join disturbs *)
  cb_steps : int;  (** bounded rebalance steps to drain *)
  cb_copied : int;  (** objects copied *)
  cb_rebalance_us : int;  (** virtual time the drain charged *)
}

type cluster_bench = {
  cb_points : cluster_bench_point list;  (** rebalance cost vs object count *)
  cb_quiet_reads : int;
  cb_quiet_us : int;  (** virtual time the quiet reads charged *)
  cb_migrate_reads : int;
  cb_migrate_us : int;  (** the same read mix interleaved with the drain *)
}

let cluster_bench_rig n =
  let c = Cluster.create () in
  List.iter
    (fun (name, region) -> Cluster.add_server c ~name ~region)
    [ ("ant", "west"); ("bee", "west"); ("cow", "east") ];
  ignore (Cluster.rebalance c);
  for i = 0 to n - 1 do
    Cluster.put c ~from:"west" ~key:(Printf.sprintf "obj-%03d" i)
      (Bytes.make (512 + (97 * i mod 1_536)) 'b')
  done;
  c

let cluster_bench_join c =
  let before = Cluster.ring c in
  Cluster.add_server c ~name:"dog" ~region:"east";
  let r = Cluster.replicas in
  let shards = Cluster.shards in
  List.length
    (List.filter
       (fun i ->
         Cluster_ring.owners before ~r (Cluster.shard_key i)
         <> Cluster_ring.owners (Cluster.ring c) ~r (Cluster.shard_key i))
       (List.init shards Fun.id))

let cluster_bench () =
  let clock_of c = Cluster.clock c in
  let point n =
    let c = cluster_bench_rig n in
    let delta = cluster_bench_join c in
    let t0 = Clock.now (clock_of c) in
    let steps = ref 0 and copied = ref 0 in
    while Cluster.rebalancing c do
      copied := !copied + Cluster.rebalance_step c;
      incr steps
    done;
    {
      cb_objects = n;
      cb_delta_shards = delta;
      cb_steps = !steps;
      cb_copied = !copied;
      cb_rebalance_us = Clock.now (clock_of c) - t0;
    }
  in
  let points = List.map point [ 16; 32; 64; 128 ] in
  (* goodput: the same 96-read mix against a quiet cluster and against
     one draining a join, reads interleaved one per rebalance step *)
  let reads = 96 in
  let key i = Printf.sprintf "obj-%03d" (i mod 64) in
  let quiet =
    let c = cluster_bench_rig 64 in
    let t0 = Clock.now (clock_of c) in
    for i = 0 to reads - 1 do
      ignore (Cluster.get c ~from:"west" (key i))
    done;
    Clock.now (clock_of c) - t0
  in
  let migrating =
    let c = cluster_bench_rig 64 in
    ignore (cluster_bench_join c);
    let t0 = Clock.now (clock_of c) in
    for i = 0 to reads - 1 do
      ignore (Cluster.get c ~from:"west" (key i));
      ignore (Cluster.rebalance_step c)
    done;
    ignore (Cluster.rebalance c);
    Clock.now (clock_of c) - t0
  in
  {
    cb_points = points;
    cb_quiet_reads = reads;
    cb_quiet_us = quiet;
    cb_migrate_reads = reads;
    cb_migrate_us = migrating;
  }
