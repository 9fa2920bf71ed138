(* The log-file problem (paper §2): "Each append to a log file ... would
   require the whole file to be copied. ... For log files we have
   implemented a separate server."

   An application appends 200 records to a growing log three ways and
   prints what each costs. Also shows the durability seam: unsynced tail
   bytes die with the log server, sealed segments do not.

   Run with:  dune exec examples/log_append.exe *)

module Clock = Amoeba_sim.Clock
module Server = Bullet_core.Server
module Client = Bullet_core.Client
module Log = Log_server.Log_store

let make_bed () =
  let clock = Clock.create () in
  let server = Server.boot ~clock ~id:"bullet" ~sectors:131_072 ~max_files:2048 () in
  let transport = Amoeba_rpc.Transport.create ~clock in
  Bullet_core.Proto.serve server transport;
  (clock, Client.connect transport (Server.port server))

let appends = 200

let entry i = Bytes.of_string (Printf.sprintf "%06d request handled in %d us\n" i (1000 + i))

let () =
  let ok = function Ok v -> v | Error e -> failwith (Amoeba_rpc.Status.to_string e) in

  (* 1: the log server - appends buffer in RAM, segments seal as
     immutable Bullet files. *)
  let clock, bullet = make_bed () in
  let log = Log.create ~store:bullet () in
  let cap = Log.create_log log in
  let _, log_us =
    Clock.elapsed clock (fun () ->
        for i = 1 to appends do
          ignore (ok (Log.append log cap (entry i)))
        done;
        ok (Log.sync log cap))
  in
  Printf.printf "log server:      %8.1f ms for %d appends (%d segments)\n" (Clock.to_ms log_us)
    appends
    (List.length (ok (Log.segments log cap)));

  (* durability: sealed segments survive a log-server crash, the
     unsynced tail does not *)
  ignore (ok (Log.append log cap (Bytes.of_string "lost on crash\n")));
  let before_crash = ok (Log.length log cap) in
  Log.crash log;
  Printf.printf "  crash: length %d -> %d (unsynced tail lost, segments intact)\n" before_crash
    (ok (Log.length log cap));

  (* 2: BULLET.MODIFY - server-side copy per append, only the record on
     the wire. *)
  let clock, bullet = make_bed () in
  let file = ref (Client.create bullet (Bytes.create 0)) in
  let _, modify_us =
    Clock.elapsed clock (fun () ->
        for i = 1 to appends do
          let fresh = Client.append bullet !file (entry i) in
          Client.delete bullet !file;
          file := fresh
        done)
  in
  Printf.printf "BULLET.MODIFY:   %8.1f ms (server-side whole-file copy per append)\n"
    (Clock.to_ms modify_us);

  (* 3: naive - the client reads the whole log, appends, re-creates. *)
  let clock, bullet = make_bed () in
  let file = ref (Client.create bullet (Bytes.create 0)) in
  let _, naive_us =
    Clock.elapsed clock (fun () ->
        for i = 1 to appends do
          let contents = Client.read bullet !file in
          let fresh = Client.create bullet (Bytes.cat contents (entry i)) in
          Client.delete bullet !file;
          file := fresh
        done)
  in
  Printf.printf "naive re-create: %8.1f ms (whole log over the wire, twice, per append)\n"
    (Clock.to_ms naive_us)
