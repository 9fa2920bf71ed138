(* Seeded metric-registry bug: two instruments registered under the same
   literal name in one module. Nothing here runs at link time — the
   registrations live inside a function nobody calls — but the vet proto
   pass must still flag the second site, because calling [wire] against
   any registry raises Duplicate_metric. test/test_vet.ml asserts the
   exact line below — keep it in sync when editing. *)

module M = Amoeba_metrics.Metrics

let wire reg =
  M.gauge reg "fixture.requests" (fun () -> 1);
  M.gauge reg "fixture.depth" (fun () -> 0);
  M.gauge reg "fixture.requests" (fun () -> 0)
