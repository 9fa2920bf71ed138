open Common

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

let run () =
  header "FIG3 - SUN NFS baseline: READ and CREATE (paper Fig. 3)";
  print_rows ~write:"CREATE" (fig3_nfs ());
  []
