open Common

type naming_report = {
  depth : int;
  local_resolve_us : int;
  local_stepwise_us : int;
  wide_resolve_us : int;
  wide_stepwise_us : int;
}

let naming_experiment () =
  let depth = 5 in
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

let run () =
  header "NAMING - path resolution: server-side resolve vs stepwise lookups";
  let r = naming_experiment () in
  Printf.printf "  resolving a %d-component path:\n" r.depth;
  Printf.printf "  %-26s %14s %14s\n" "" "resolve (1 RPC)" "stepwise (N)";
  Printf.printf "  %-26s %13.1f %15.1f\n" "same Ethernet (ms)" (ms r.local_resolve_us)
    (ms r.local_stepwise_us);
  Printf.printf "  %-26s %13.1f %15.1f\n" "directory server abroad" (ms r.wide_resolve_us)
    (ms r.wide_stepwise_us);
  Printf.printf
    "  (one wide-area round trip vs one per component - why Amoeba's\n\
    \   directory server walks paths itself)\n";
  []
