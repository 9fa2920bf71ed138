(* Versioned document store: the paper's §5 story. A document is edited
   through immutable versions; the directory service gives each name a
   version stack, lookup/compare makes client caching trivially
   consistent, and old versions stay readable until trimmed.

   Run with:  dune exec examples/versioned_store.exe *)

module Clock = Amoeba_sim.Clock
module Server = Bullet_core.Server
module Client = Bullet_core.Client
module Dir = Amoeba_dir.Dir_server
module Cap = Amoeba_cap.Capability

let () =
  let clock = Clock.create () in
  let server = Server.boot ~clock ~id:"bullet" ~sectors:65_536 ~max_files:1024 () in
  let transport = Amoeba_rpc.Transport.create ~clock in
  Bullet_core.Proto.serve server transport;
  let bullet = Client.connect transport (Server.port server) in

  (* Directory server: keeps the last 3 versions of every binding and
     deletes trimmed ones from the Bullet server. *)
  let dirs = Dir.create ~store:bullet () in
  let root = Dir.root dirs in
  let ok = function Ok v -> v | Error e -> failwith (Amoeba_rpc.Status.to_string e) in

  (* Publish four drafts of the same document. *)
  let publish text =
    let file = Client.create bullet (Bytes.of_string text) in
    ignore (ok (Dir.replace dirs root "paper.txt" file))
  in
  publish "draft 1: block-based file servers considered\n";
  publish "draft 2: contiguous files, immutable\n";
  publish "draft 3: add the NFS comparison\n";
  publish "camera ready: The Design of a High-Performance File Server\n";

  (* The newest version answers lookups... *)
  let current = ok (Dir.lookup dirs root "paper.txt") in
  Printf.printf "current : %s" (Bytes.to_string (Client.read bullet current));

  (* ...and the retained history is still readable (immutability). *)
  let versions = ok (Dir.versions dirs root "paper.txt") in
  Printf.printf "%d versions retained (max 3):\n" (List.length versions);
  List.iteri
    (fun i cap -> Printf.printf "  [%d] %s" i (Bytes.to_string (Client.read bullet cap)))
    versions;

  (* Client caching of immutable files: a cached copy is current iff its
     capability still equals the directory's answer. *)
  let my_cached_copy = current in
  let still_current = Cap.equal my_cached_copy (ok (Dir.lookup dirs root "paper.txt")) in
  Printf.printf "cached copy current? %b\n" still_current;
  publish "errata: fix table 2\n";
  let still_current = Cap.equal my_cached_copy (ok (Dir.lookup dirs root "paper.txt")) in
  Printf.printf "after a new version lands: cached copy current? %b\n" still_current;

  (* Draft 1 was trimmed from the stack AND deleted from the Bullet
     server - storage is reclaimed automatically. *)
  Printf.printf "live Bullet files: %d (directory files + 3 retained versions)\n"
    (Server.live_files server);
  Printf.printf "total virtual time: %.2f ms\n" (Clock.to_ms (Clock.now clock))
