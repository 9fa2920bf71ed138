open Common

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

let run () =
  header "FIG2 - Bullet file server: READ and CREATE+DELETE (paper Fig. 2)";
  print_rows ~write:"CREATE+DEL" (fig2_bullet ());
  []
