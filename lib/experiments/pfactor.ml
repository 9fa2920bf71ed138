open Common

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

let pfactor_sweep ?(size = 65_536) () = snd (List.hd (pfactor_matrix ~sizes:[ size ] ()))

let run () =
  header "PFACT - create delay vs Paranoia Factor (64 KB file)";
  Printf.printf "  %-10s %14s\n" "P-FACTOR" "CREATE (msec)";
  List.iter (fun (p, us) -> Printf.printf "  %-10d %14.2f\n" p (ms us)) (pfactor_sweep ());
  Printf.printf
    "  (p=0 replies from RAM; p=1 waits for one disk; p=2 waits for both,\n\
    \   written in parallel - the paper's measurement configuration)\n";
  []
