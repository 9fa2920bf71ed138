(* Command-line driver behind bin/amoeba_vet. Composes the Parsetree
   lint (pass "lint") with the typedtree passes ("proto", "clock",
   "taint") from Vet, over lib/ and bin/ paths. *)

let usage prog =
  Printf.eprintf
    "usage: %s [--list-rules] [--passes lint,proto,clock,taint] [--json] [--out FILE] [path ...]\n\
    \       (default paths: lib bin; default passes: all)\n"
    prog;
  2

let list_rules () =
  List.iter
    (fun (id, description) -> Printf.printf "%-24s %s\n" id description)
    (Lint.rules @ Vet.rules);
  0

(* ---- cmt discovery ----

   The compiled artifacts live in hidden .objs/.eobjs directories next
   to each dune stanza: under the given paths directly when we run
   inside _build/default (the dune rule does), or under
   _build/default/<path> when run from the repo root. *)

let rec cmts_under path =
  if Sys.file_exists path && Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort String.compare
    |> List.filter (fun name -> name <> "" && name <> "_build")
    |> List.concat_map (fun name -> cmts_under (Filename.concat path name))
  else if Filename.check_suffix path ".cmt" then [ path ]
  else []

let discover_cmts paths =
  List.concat_map
    (fun p ->
      match cmts_under p with
      | [] -> cmts_under (Filename.concat (Filename.concat "_build" "default") p)
      | cmts -> cmts)
    paths

let read_source file =
  let try_read path =
    if Sys.file_exists path && not (Sys.is_directory path) then (
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> Some (really_input_string ic (in_channel_length ic))))
    else None
  in
  match try_read file with
  | Some s -> Some s
  | None -> try_read (Filename.concat (Filename.concat "_build" "default") file)

(* ---- argument parsing ---- *)

type options = {
  mutable list_rules : bool;
  mutable passes : string list;
  mutable json : bool;
  mutable out : string option;
  mutable paths : string list;
  mutable bad : string option;
}

let all_passes = [ "lint"; "proto"; "clock"; "taint" ]

let parse_args argv =
  let o = { list_rules = false; passes = all_passes; json = false; out = None; paths = []; bad = None } in
  let rec go = function
    | [] -> ()
    | ("--help" | "-h") :: _ -> o.bad <- Some "help"
    | "--list-rules" :: rest ->
      o.list_rules <- true;
      go rest
    | "--json" :: rest ->
      o.json <- true;
      go rest
    | "--out" :: file :: rest ->
      o.out <- Some file;
      go rest
    | "--passes" :: spec :: rest ->
      let names = List.filter (fun s -> s <> "") (String.split_on_char ',' spec) in
      if names = [] then o.bad <- Some "--passes needs a comma-separated list"
      else begin
        List.iter
          (fun n ->
            if not (List.exists (String.equal n) all_passes) then
              o.bad <- Some (Printf.sprintf "unknown pass %S (have: %s)" n (String.concat ", " all_passes)))
          names;
        o.passes <- List.filter (fun p -> List.exists (String.equal p) names) all_passes;
        go rest
      end
    | [ "--out" ] -> o.bad <- Some "--out needs a file argument"
    | [ "--passes" ] -> o.bad <- Some "--passes needs an argument"
    | arg :: rest ->
      if String.length arg > 0 && arg.[0] = '-' then
        o.bad <- Some (Printf.sprintf "unknown option %S" arg)
      else begin
        o.paths <- o.paths @ [ arg ];
        go rest
      end
  in
  go (List.tl (Array.to_list argv));
  o

let main ~prog argv =
  let o = parse_args argv in
  match o.bad with
  | Some "help" -> usage prog
  | Some msg ->
    Printf.eprintf "%s: %s\n" prog msg;
    usage prog
  | None ->
    if o.list_rules then list_rules ()
    else
      let paths = match o.paths with [] -> [ "lib"; "bin" ] | paths -> paths in
      let missing = List.filter (fun p -> not (Sys.file_exists p)) paths in
      (match missing with
      | p :: _ ->
        Printf.eprintf "%s: no such path %S\n" prog p;
        2
      | [] -> (
        let lint_diags =
          if List.exists (String.equal "lint") o.passes then Lint.lint_paths paths else []
        in
        let typed_passes = List.filter_map Vet.pass_of_name o.passes in
        let typed_result =
          if typed_passes = [] then
            Ok { Vet.diagnostics = []; inventory = { inv_cmds = []; inv_codecs = []; inv_spans = []; inv_hooks = []; inv_metrics = [] } }
          else
            match discover_cmts paths with
            | [] ->
              Error
                (Printf.sprintf
                   "no .cmt files found under %s; run `dune build @check` first (or select \
                    --passes lint)"
                   (String.concat " " paths))
            | cmts -> Vet.analyze ~read_source ~passes:typed_passes cmts
        in
        match typed_result with
        | Error e ->
          Printf.eprintf "%s: %s\n" prog e;
          2
        | Ok report ->
          let diagnostics = Vet.order_diagnostics (lint_diags @ report.Vet.diagnostics) in
          let emit out =
            if o.json then
              output_string out
                (Vet.to_json ~passes:o.passes ~diagnostics report.Vet.inventory)
            else
              List.iter (fun d -> output_string out (Lint.to_string d ^ "\n")) diagnostics
          in
          (match o.out with
          | Some file ->
            let oc = open_out_bin file in
            Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> emit oc)
          | None -> emit stdout);
          (match diagnostics with
          | [] -> 0
          | _ :: _ ->
            Printf.eprintf "%s: %d diagnostic(s)\n" prog (List.length diagnostics);
            1)))
