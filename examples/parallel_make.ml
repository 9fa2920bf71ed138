(* Parallel make on the processor pool (paper §2.1: "we have implemented
   a parallel make" — Amoeba's pool processors all hammer the file
   server at once, which is why file-server throughput matters).

   A 40-module project is compiled: every job reads its source from the
   file server, burns CPU, and writes the object file back. Job
   durations are measured on the virtual clock; the pool makespan comes
   from list-scheduling those durations onto N processors (the server is
   assumed unsaturated, as in the paper's configuration of one dedicated
   server machine).

   Run with:  dune exec examples/parallel_make.exe *)

module Clock = Amoeba_sim.Clock
module Server = Bullet_core.Server
module Client = Bullet_core.Client

let modules = 40

let compile_us_per_kb = 30_000 (* a 1989 C compiler: ~30 ms of CPU per KB of source *)

let source_bytes i = 4_096 + (i * 631 mod 20_000)

(* schedule measured durations onto [lanes] processors (longest first) *)
let makespan lanes durations =
  let lane_finish = Array.make lanes 0 in
  let sorted = List.sort (fun a b -> compare b a) durations in
  List.iter
    (fun d ->
      let best = ref 0 in
      Array.iteri (fun i f -> if f < lane_finish.(!best) then best := i) lane_finish;
      lane_finish.(!best) <- lane_finish.(!best) + d)
    sorted;
  Array.fold_left max 0 lane_finish

let () =
  let clock = Clock.create () in
  let server = Server.boot ~clock ~id:"bullet" ~sectors:131_072 ~max_files:1024 () in
  let transport = Amoeba_rpc.Transport.create ~clock in
  Bullet_core.Proto.serve server transport;
  let bullet = Client.connect transport (Server.port server) in

  (* check the sources in *)
  let sources =
    List.init modules (fun i -> Client.create bullet (Bytes.make (source_bytes i) ';'))
  in
  Printf.printf "%d source modules on the Bullet server\n" modules;

  (* compile each module once, measuring its wall time on the pool
     processor: read source + compile CPU + write object *)
  let compile cap =
    let _, us =
      Clock.elapsed clock (fun () ->
          let source = Client.read bullet cap in
          let kb = (Bytes.length source + 1023) / 1024 in
          Clock.advance clock (kb * compile_us_per_kb);
          let obj = Bytes.make (Bytes.length source / 2) 'o' in
          ignore (Client.create bullet ~p_factor:1 obj))
    in
    us
  in
  let durations = List.map compile sources in
  let sequential = List.fold_left ( + ) 0 durations in
  Printf.printf "sequential build: %.1f s (file I/O + compilation)\n"
    (float_of_int sequential /. 1e6);
  List.iter
    (fun lanes ->
      let span = makespan lanes durations in
      Printf.printf "  %2d pool processors: %6.1f s  (speedup %.2fx)\n" lanes
        (float_of_int span /. 1e6)
        (float_of_int sequential /. float_of_int span))
    [ 1; 2; 4; 8; 16 ];

  (* the file-server share of one compile: why a 3x faster server moves
     a whole build *)
  let io_only cap =
    let _, us = Clock.elapsed clock (fun () -> ignore (Client.read bullet cap)) in
    us
  in
  let io_sample =
    match sources with
    | first :: _ -> io_only first
    | [] -> 0
  in
  Printf.printf "file-server time per compile is ~%.0f%% of the job\n"
    (100.
    *. float_of_int (2 * io_sample)
    /. float_of_int (sequential / modules))
