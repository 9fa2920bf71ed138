open Common

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

let scale_experiment ?(client_counts = [ 1; 2; 4; 8; 16; 32; 64; 128 ]) () =
  let think_ms = 100 in
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

let run () =
  header "SCALE - closed-loop pool processors reading 4 KB files (100 ms think)";
  let r = scale_experiment () in
  Printf.printf "  measured server demand per read: Bullet %.2f ms, NFS %.2f ms\n"
    (ms r.bullet_service_us) (ms r.nfs_service_us);
  Printf.printf "  analytic saturation population:  Bullet %.0f clients, NFS %.0f clients\n\n"
    r.bullet_knee r.nfs_knee;
  Printf.printf "  %-8s | %26s | %26s\n" "" "Bullet" "NFS baseline";
  Printf.printf "  %-8s | %10s %10s %4s | %10s %10s %4s\n" "clients" "ops/s" "resp ms" "util"
    "ops/s" "resp ms" "util";
  List.iter2
    (fun (b : scale_point) (n : scale_point) ->
      Printf.printf "  %-8d | %10.1f %10.1f %3.0f%% | %10.1f %10.1f %3.0f%%\n" b.clients
        b.throughput_per_sec b.mean_response_ms (100. *. b.utilisation)
        n.throughput_per_sec n.mean_response_ms (100. *. n.utilisation))
    r.bullet_points r.nfs_points;
  Printf.printf
    "  (\"whole file transfer minimizes the load on the file server ...\n\
    \   allowing the service to be used on a larger scale\" - paper section 5)\n";
  []
