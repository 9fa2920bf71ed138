(* The UNIX emulation (paper §5): ordinary open/read/write/lseek/close
   code running unchanged on top of immutable Bullet files and the
   directory service. A tiny "shell session" builds a project tree,
   edits a file (new version on close), renames, and lists.

   Run with:  dune exec examples/unix_session.exe *)

module Clock = Amoeba_sim.Clock
module Server = Bullet_core.Server
module Client = Bullet_core.Client
module Dir = Amoeba_dir.Dir_server
module Dir_client = Amoeba_dir.Dir_client
module Fs = Unix_emu.Posix_fs

let () =
  let clock = Clock.create () in
  let server = Server.boot ~clock ~id:"bullet" ~sectors:65_536 ~max_files:1024 () in
  let transport = Amoeba_rpc.Transport.create ~clock in
  Bullet_core.Proto.serve server transport;
  let bullet = Client.connect transport (Server.port server) in
  let dirs = Dir.create ~store:bullet () in
  Amoeba_dir.Dir_proto.serve dirs transport;
  let dclient = Dir_client.connect transport (Dir.port dirs) in
  let fs = Fs.mount ~bullet ~dirs:dclient ~root:(Dir_client.get_root dclient) in

  (* $ mkdir -p project/src; echo ... > files *)
  Fs.mkdir fs "project";
  Fs.mkdir fs "project/src";
  Fs.write_whole fs "project/README" "A file server reproduction.\n";
  Fs.write_whole fs "project/src/main.ml" "let () = print_endline \"hello\"\n";

  (* $ cat project/src/main.ml *)
  Printf.printf "$ cat project/src/main.ml\n%s" (Fs.read_whole fs "project/src/main.ml");

  (* $ edit: append a line via open/lseek/write/close *)
  let fd = Fs.openfile fs "project/src/main.ml" [ Fs.O_RDWR; Fs.O_APPEND ] in
  let (_ : int) = Fs.write fd (Bytes.of_string "let () = exit 0\n") in
  Fs.close fs fd;
  Printf.printf "$ cat project/src/main.ml   (after edit)\n%s" (Fs.read_whole fs "project/src/main.ml");

  (* every close published a new immutable version *)
  let info = Fs.stat fs "project/src/main.ml" in
  Printf.printf "versions retained of main.ml: %d\n" info.Fs.st_versions;

  (* $ mv project/README project/README.md ; ls project *)
  Fs.rename fs "project/README" "project/README.md";
  Printf.printf "$ ls project\n";
  List.iter (Printf.printf "  %s\n") (Fs.readdir fs "project");

  (* read with a window, like dd bs=16 count=1 skip=1 *)
  Fs.with_file fs "project/src/main.ml" [ Fs.O_RDONLY ] (fun fd ->
      let (_ : int) = Fs.lseek fd 16 `SET in
      let buf = Bytes.create 16 in
      let n = Fs.read fd buf 16 in
      Printf.printf "$ dd skip=16 bs=16: %S\n" (Bytes.sub_string buf 0 n));

  (* $ rm -r ... unlink reclaims every version from the Bullet server *)
  let files_before = Server.live_files server in
  Fs.unlink fs "project/src/main.ml";
  Printf.printf "unlink reclaimed %d Bullet files\n" (files_before - Server.live_files server);
  Printf.printf "total virtual time: %.2f ms\n" (Clock.to_ms (Clock.now clock))
