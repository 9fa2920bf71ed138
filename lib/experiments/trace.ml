open Common

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

let run () =
  header "TRACE - BSD-style trace replay, Bullet vs NFS end to end";
  let r = trace_replay () in
  Printf.printf "  operations                       %d\n" r.ops;
  Printf.printf "  Bullet total                     %10.1f ms\n" (ms r.bullet_total_us);
  Printf.printf "  NFS total                        %10.1f ms\n" (ms r.nfs_total_us);
  Printf.printf "  speedup                          %10.2f x\n" r.speedup;
  Printf.printf "  per-op latency p50 / p99         Bullet %.1f / %.1f ms, NFS %.1f / %.1f ms\n"
    r.bullet_p50_ms r.bullet_p99_ms r.nfs_p50_ms r.nfs_p99_ms;
  Printf.printf "\n  speedup vs update-heaviness (where immutability costs):\n";
  Printf.printf "  %-18s %10s\n" "update fraction" "speedup";
  List.iter
    (fun (fraction, speedup) -> Printf.printf "  %-18.2f %9.2fx\n" fraction speedup)
    (mix_sweep ());
  Printf.printf
    "  (small in-place updates make Bullet copy the whole file; the paper\n\
    \   concedes this regime to the log server and to sharding)\n";
  []
