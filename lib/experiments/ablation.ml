open Common

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

type immediate_report = {
  plain_write_us : int;
  immediate_write_us : int;
  plain_read_us : int;
  immediate_read_us : int;
  bullet_read_us : int;
}

(* ABL3 — reference [1]'s "immediate files" retrofitted onto the block
   baseline: small-file operations touch only the inode.  Narrows the
   small-file gap; leaves the large-file gap untouched (that one is the
   Bullet design itself). *)
let immediate_ablation () =
  let measure config =
    let { n_clock = clock; n_server = server; n_client = client; _ } = make_nfs_bed ~config () in
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

let run () =
  header "ABL1 - allocation policy ablation (first-fit vs best-fit)";
  let r = allocation_ablation () in
  Printf.printf "  %-12s %16s %16s\n" "policy" "fragmentation" "create failures";
  Printf.printf "  %-12s %16.3f %16d\n" "first-fit" r.first_fit_frag r.first_fit_failures;
  Printf.printf "  %-12s %16.3f %16d\n" "best-fit" r.best_fit_frag r.best_fit_failures;
  header "ABL2 - the append problem (50 x 120 B onto a 64 KB file)";
  let a = append_ablation () in
  Printf.printf "  %-34s %12s\n" "strategy" "total (ms)";
  Printf.printf "  %-34s %12.1f\n" "log server (segment chain)" (ms a.log_server_us);
  Printf.printf "  %-34s %12.1f\n" "BULLET.MODIFY (server-side copy)" (ms a.modify_us);
  Printf.printf "  %-34s %12.1f\n" "naive read + re-create" (ms a.naive_us);
  Printf.printf
    "  (the paper: \"For log files we have implemented a separate server\")\n";
  header "ABL3 - immediate files (reference [1]) on the block baseline (60 B file)";
  let i = immediate_ablation () in
  Printf.printf "  %-28s %14s %14s\n" "" "write (ms)" "read (ms)";
  Printf.printf "  %-28s %14.2f %14.2f\n" "stock baseline" (ms i.plain_write_us) (ms i.plain_read_us);
  Printf.printf "  %-28s %14.2f %14.2f\n" "with immediate files" (ms i.immediate_write_us)
    (ms i.immediate_read_us);
  Printf.printf "  %-28s %14s %14.2f\n" "Bullet (for scale)" "-" (ms i.bullet_read_us);
  Printf.printf
    "  (inode-inline data removes the per-file data-block access; the\n\
    \   large-file gap is untouched - that one is the Bullet design)\n";
  []
