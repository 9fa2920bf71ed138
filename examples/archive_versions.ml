(* Version archival to write-once optical storage (paper §2: the version
   mechanism "presents the possibility of keeping versions on write-once
   storage such as optical disks").

   A document accumulates versions on the Bullet server; the nightly
   archiver burns everything but the newest to a WORM platter, freeing
   mirrored magnetic space while keeping history forever. Any old
   version can be recalled later.

   Run with:  dune exec examples/archive_versions.exe *)

module Clock = Amoeba_sim.Clock
module Server = Bullet_core.Server
module Client = Bullet_core.Client
module Dir = Amoeba_dir.Dir_server
module Worm = Amoeba_worm.Worm_device
module Archiver = Amoeba_worm.Archiver

let () =
  let clock = Clock.create () in
  let server = Server.boot ~clock ~id:"bullet" ~sectors:65_536 ~max_files:1024 () in
  let transport = Amoeba_rpc.Transport.create ~clock in
  Bullet_core.Proto.serve server transport;
  let bullet = Client.connect transport (Server.port server) in
  let dirs = Dir.create ~config:{ Dir.default_config with Dir.max_versions = 10 } ~store:bullet () in
  let root = Dir.root dirs in
  let ok = function Ok v -> v | Error e -> failwith (Amoeba_rpc.Status.to_string e) in

  (* a contract goes through five drafts *)
  let publish i =
    let text = Printf.sprintf "contract draft %d: the party of the first part...\n" i in
    let cap = Client.create bullet (Bytes.of_string (text ^ String.make 20_000 '.')) in
    ignore (ok (Dir.replace dirs root "contract" cap))
  in
  for i = 1 to 5 do
    publish i
  done;
  Printf.printf "5 drafts on magnetic storage: %d Bullet files, %d retained versions\n"
    (Server.live_files server)
    (List.length (ok (Dir.versions dirs root "contract")));

  (* the 3 a.m. job: burn history to optical, keep only the newest hot *)
  let platter = Worm.create ~capacity:10_000_000 ~clock in
  let archiver = Archiver.create ~store:bullet ~platter in
  let burned, archive_us =
    Clock.elapsed clock (fun () -> ok (Archiver.archive_name archiver ~dirs ~dir:root "contract"))
  in
  Printf.printf "archived %d versions to the WORM platter (%.1f ms, %d KB burned)\n" burned
    (Clock.to_ms archive_us) (Worm.used platter / 1024);
  Printf.printf "magnetic now holds %d Bullet files; binding has %d version\n"
    (Server.live_files server)
    (List.length (ok (Dir.versions dirs root "contract")));

  (* the newest draft still answers instantly from the Bullet server *)
  let newest = ok (Dir.lookup dirs root "contract") in
  let first_line data =
    match String.index_opt (Bytes.to_string data) '\n' with
    | Some i -> String.sub (Bytes.to_string data) 0 i
    | None -> Bytes.to_string data
  in
  Printf.printf "current: %s\n" (first_line (Client.read bullet newest));

  (* legal wants draft 2 back *)
  let history = Archiver.history archiver "contract" in
  Printf.printf "optical history: %d versions (sequences %s)\n" (List.length history)
    (String.concat ", "
       (List.map (fun a -> string_of_int a.Archiver.sequence) history));
  let draft2 = List.nth history 2 in
  let recalled, recall_us =
    Clock.elapsed clock (fun () -> ok (Archiver.recall archiver "contract" ~sequence:draft2.Archiver.sequence))
  in
  Printf.printf "recalled sequence %d from optical (%.1f ms): %s\n" draft2.Archiver.sequence
    (Clock.to_ms recall_us)
    (first_line (Client.read bullet recalled));

  (* and write-once really means write-once *)
  (try ignore (Worm.overwrite platter 0 (Bytes.of_string "rewrite history"))
   with Worm.Write_once_violation -> Printf.printf "rewriting optical history: refused\n")
