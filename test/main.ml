(* The whole test binary runs with the event-queue tie-race sanitizer
   enabled: any simulation that schedules two same-(time, priority)
   events without pinning their relative order is recorded, and the
   final [tie-check] suite fails on a non-empty accumulator. *)
let () = Amoeba_sim.Event_queue.set_tie_check true

let () =
  Alcotest.run "bullet"
    [
      Test_sim.suite;
      Test_disk.suite;
      Test_capability.suite;
      Test_rpc.suite;
      Test_extent_alloc.suite;
      Test_cache.suite;
      Test_layout.suite;
      Test_server.suite;
      Test_proto.suite;
      Test_nfs.suite;
      Test_directory.suite;
      Test_logsrv.suite;
      Test_unix_emu.suite;
      Test_workload.suite;
      Test_wire.suite;
      Test_formats.suite;
      Test_wan.suite;
      Test_cluster.suite;
      Test_fuzz.suite;
      Test_dir_pair.suite;
      Test_worm.suite;
      Test_sparse.suite;
      Test_sched.suite;
      Test_fault.suite;
      Test_lease.suite;
      Test_trace.suite;
      Test_metrics.suite;
      Test_txn.suite;
      Test_lint.suite;
      Test_vet.suite;
      Test_determinism.suite;
      Test_tools.suite;
      Test_claims.suite;
      Test_vet.global_ties;
    ]
