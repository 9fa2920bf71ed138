(* Seeded clock-discipline bug on the one-copy read path: [free_load]
   observes the virtual clock and reads through the mirror straight into
   a caller's buffer, but never charges simulated time.
   test/test_vet.ml asserts the exact line below. *)

let free_load clock mirror dst =
  let t = Amoeba_sim.Clock.now clock in
  Amoeba_disk.Mirror.read_into mirror ~sector:0 ~count:1 ~dst ~dst_off:0 ~len:(Bytes.length dst);
  t
