(* Tests for amoeba-vet's typedtree passes and the tie-race sanitizer.

   The typed passes run over test/fixtures — deliberately-broken modules
   compiled as the [vet_fixtures] library — and every seeded bug must be
   reported at its exact file:line. The sanitizer tests drive
   Amoeba_sim.Event_queue directly; main.ml enables the check for the
   whole test binary and the final [global_ties] suite asserts the real
   simulations ran tie-free, so tests here that provoke ties on purpose
   clear the accumulator before returning. *)

open Helpers
module Vet = Amoeba_analysis.Vet
module Lint = Amoeba_analysis.Lint
module Eq = Amoeba_sim.Event_queue

(* ---- fixture plumbing: the test binary runs from _build/default/test,
   so the fixture cmts sit under fixtures/ and the cmt-recorded source
   paths (test/fixtures/...) resolve one directory up ---- *)

let fixture_cmt_dir = "fixtures/.vet_fixtures.objs/byte"

let fixture_cmts () =
  match Sys.readdir fixture_cmt_dir with
  | exception Sys_error _ ->
    Alcotest.fail ("fixture cmts missing at " ^ fixture_cmt_dir ^ " — build the vet_fixtures library")
  | names ->
    Array.to_list names
    |> List.filter (fun n -> Filename.check_suffix n ".cmt")
    |> List.sort String.compare
    |> List.map (Filename.concat fixture_cmt_dir)

let read_source file =
  let read path =
    if Sys.file_exists path then Some (In_channel.with_open_bin path In_channel.input_all)
    else None
  in
  match read file with Some s -> Some s | None -> read (Filename.concat ".." file)

let analyze passes =
  match Vet.analyze ~read_source ~passes (fixture_cmts ()) with
  | Ok report -> report
  | Error e -> Alcotest.fail e

let contains_sub hay needle =
  let hl = String.length hay and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let located report =
  Vet.order_diagnostics report.Vet.diagnostics
  |> List.map (fun d -> (Filename.basename d.Lint.file, d.Lint.line, d.Lint.rule))

let loc = Alcotest.(list (triple string int string))

(* ---- each pass catches its seeded fixture bug at the exact line ---- *)

let test_fixture_proto () =
  Alcotest.check loc "proto diagnostics"
    [
      ("fixture_metrics.ml", 13, "vet-proto-duplicate-metric");
      ("fixture_proto.ml", 7, "vet-proto-unhandled-cmd");
      ("fixture_proto.ml", 8, "vet-proto-duplicate-cmd");
      ("fixture_proto.ml", 8, "vet-proto-unhandled-cmd");
      ("fixture_proto.ml", 9, "vet-proto-orphan-codec");
    ]
    (located (analyze [ Vet.Proto ]))

let test_fixture_clock () =
  (* only the innermost offender: charged_read reaches the same effects
     but advances the clock, so it must stay clean *)
  Alcotest.check loc "clock diagnostics"
    [ ("fixture_clock.ml", 7, "vet-clock-free-work") ]
    (located (analyze [ Vet.Clock ]))

let test_fixture_taint () =
  (* persist_sorted (line 13) carries a justified source-site allow and
     must not appear *)
  let report = analyze [ Vet.Taint ] in
  Alcotest.check loc "taint diagnostics"
    [ ("fixture_taint.ml", 9, "vet-taint-persist"); ("fixture_taint.ml", 11, "vet-taint-persist") ]
    (located report);
  let interprocedural =
    List.exists
      (fun d -> d.Lint.line = 9 && contains_sub d.Lint.message "snapshot")
      report.Vet.diagnostics
  in
  check_bool "witness chain names the helper" true interprocedural

let test_fixture_inventory () =
  let inv = (analyze [ Vet.Proto ]).Vet.inventory in
  Alcotest.(check (list (triple string string int)))
    "cmd inventory"
    [
      ("Vet_fixtures.Fixture_proto", "cmd_echo", 2);
      ("Vet_fixtures.Fixture_proto", "cmd_ping", 1);
      ("Vet_fixtures.Fixture_proto", "cmd_pong", 2);
    ]
    inv.Vet.inv_cmds;
  Alcotest.(check (list (pair string string)))
    "codec inventory"
    [ ("Vet_fixtures.Fixture_proto", "encode_frame") ]
    inv.Vet.inv_codecs;
  Alcotest.(check (list (pair string string)))
    "metric inventory"
    [
      ("Vet_fixtures.Fixture_metrics", "fixture.depth");
      ("Vet_fixtures.Fixture_metrics", "fixture.requests");
    ]
    inv.Vet.inv_metrics

(* ---- the JSON report is byte-identical across double runs ---- *)

let test_json_double_run () =
  let run () =
    let report = analyze [ Vet.Proto; Vet.Clock; Vet.Taint ] in
    Vet.to_json ~passes:[ "proto"; "clock"; "taint" ]
      ~diagnostics:(Vet.order_diagnostics report.Vet.diagnostics)
      report.Vet.inventory
  in
  let first = run () and second = run () in
  check_string "byte-identical JSON" first second;
  check_bool "non-empty" true (String.length first > 0);
  check_bool "trailing newline" true (first.[String.length first - 1] = '\n')

(* ---- tie-race sanitizer ---- *)

let with_clean_ties f =
  (* main.ml enables the check globally; isolate this test's ties from
     the end-of-run zero-ties assertion *)
  Eq.clear_ties ();
  Fun.protect ~finally:Eq.clear_ties f

let test_tie_unpinned () =
  with_clean_ties (fun () ->
      let q = Eq.create () in
      Eq.push q ~site:"a" ~time:5 ();
      Eq.push q ~site:"b" ~time:5 ();
      match Eq.ties () with
      | [ t ] ->
        check_int "time" 5 t.Eq.tie_at;
        check_string "first site" "a" t.Eq.tie_first;
        check_string "second site" "b" t.Eq.tie_second;
        check_bool "reason mentions pin" true (contains_sub t.Eq.tie_reason "~pin")
      | ties -> Alcotest.failf "expected exactly one tie, got %d" (List.length ties))

let test_tie_unpinned_anonymous () =
  with_clean_ties (fun () ->
      let q = Eq.create () in
      Eq.push q ~time:5 ();
      Eq.push q ~time:5 ();
      match Eq.ties () with
      | [ t ] -> check_string "anonymous site" "<unpinned>" t.Eq.tie_first
      | ties -> Alcotest.failf "expected exactly one tie, got %d" (List.length ties))

let test_tie_pinned_monotone () =
  with_clean_ties (fun () ->
      let q = Eq.create () in
      Eq.push q ~pin:1 ~time:5 ();
      Eq.push q ~pin:2 ~time:5 ();
      Eq.push q ~pin:7 ~time:5 ();
      check_int "monotone pins are race-free" 0 (List.length (Eq.ties ())))

let test_tie_pinned_contradiction () =
  with_clean_ties (fun () ->
      let q = Eq.create () in
      Eq.push q ~pin:2 ~site:"late" ~time:5 ();
      Eq.push q ~pin:1 ~site:"early" ~time:5 ();
      match Eq.ties () with
      | [ t ] -> check_bool "reason names the pins" true (contains_sub t.Eq.tie_reason "pins 2 then 1")
      | ties -> Alcotest.failf "expected exactly one tie, got %d" (List.length ties))

let test_tie_scoped_to_time () =
  with_clean_ties (fun () ->
      let q = Eq.create () in
      Eq.push q ~time:5 ();
      Eq.push q ~time:6 ();
      check_int "different times never tie" 0 (List.length (Eq.ties ())))

let test_tie_cleared_by_pop () =
  with_clean_ties (fun () ->
      let q = Eq.create () in
      Eq.push q ~time:5 ();
      check_bool "popped" true (Eq.pop q <> None);
      Eq.push q ~time:5 ();
      check_int "popped events no longer collide" 0 (List.length (Eq.ties ())))

let test_tie_ordering_unchanged () =
  (* the sanitizer is observational: pop order is (time, seq) whether or
     not pins are supplied, and regardless of the mode *)
  with_clean_ties (fun () ->
      let q = Eq.create () in
      Eq.push q ~pin:5 ~time:5 "first";
      Eq.push q ~pin:9 ~time:5 "second";
      Eq.push q ~time:5 "unpinned";
      let pops = List.init 3 (fun _ -> Option.map snd (Eq.pop q)) in
      check_bool "insertion order" true
        (pops = [ Some "first"; Some "second"; Some "unpinned" ]);
      ignore (Eq.ties ()))

let suite =
  ( "vet",
    [
      Alcotest.test_case "proto fixture bugs at exact lines" `Quick test_fixture_proto;
      Alcotest.test_case "clock fixture bug at exact line" `Quick test_fixture_clock;
      Alcotest.test_case "taint fixture bugs at exact lines" `Quick test_fixture_taint;
      Alcotest.test_case "fixture inventory" `Quick test_fixture_inventory;
      Alcotest.test_case "JSON double run is byte-identical" `Quick test_json_double_run;
      Alcotest.test_case "tie: unpinned collision" `Quick test_tie_unpinned;
      Alcotest.test_case "tie: anonymous sites" `Quick test_tie_unpinned_anonymous;
      Alcotest.test_case "tie: monotone pins pass" `Quick test_tie_pinned_monotone;
      Alcotest.test_case "tie: contradictory pins" `Quick test_tie_pinned_contradiction;
      Alcotest.test_case "tie: scoped to time" `Quick test_tie_scoped_to_time;
      Alcotest.test_case "tie: pop clears the collision set" `Quick test_tie_cleared_by_pop;
      Alcotest.test_case "tie: ordering is unchanged by the mode" `Quick test_tie_ordering_unchanged;
    ] )

(* Run last (main.ml places it at the end): every simulation exercised by
   the suites above ran with the sanitizer enabled, and none may have
   scheduled two same-time events without pinning their order. *)
let global_ties =
  ( "tie-check",
    [
      Alcotest.test_case "no unpinned ties anywhere in the test run" `Quick (fun () ->
          match Eq.ties () with
          | [] -> ()
          | ties ->
            Alcotest.failf "%d tie(s):\n%s" (List.length ties)
              (String.concat "\n" (List.map Eq.tie_to_string ties)));
    ] )
