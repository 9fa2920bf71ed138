(* Prints the golden rules for every row of the bench section table:
   run the row under the tie-race sanitizer, then diff its stdout against
   <name>.stdout and each file it writes against the file's golden, which
   drops the BENCH_ prefix.  The dune file next to this one diffs the
   output against the committed dune.inc. *)

let golden file =
  let prefix = "BENCH_" in
  if String.starts_with ~prefix file then
    String.sub file (String.length prefix) (String.length file - String.length prefix)
  else file

let diff expected actual =
  Printf.printf "\n(rule\n (alias runtest)\n (action\n  (diff %s %s)))\n" expected actual

let () =
  print_string "; Generated by gen.exe from Experiments.Sections.all; do not edit.\n";
  List.iter
    (fun { Experiments.Sections.name; files; _ } ->
      Printf.printf
        "\n\
         (rule\n\
        \ (targets %s)\n\
        \ (action\n\
        \  (setenv\n\
        \   AMOEBA_TIE_CHECK\n\
        \   1\n\
        \   (with-stdout-to\n\
        \    %s.out\n\
        \    (run %%{exe:../../bench/main.exe} %s)))))\n"
        (String.concat " " ((name ^ ".out") :: files))
        name name;
      diff (name ^ ".stdout") (name ^ ".out");
      List.iter (fun file -> diff (golden file) file) files)
    Experiments.Sections.all
