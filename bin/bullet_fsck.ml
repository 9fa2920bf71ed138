(* bullet_fsck: offline checker / repairer / compactor for Bullet drive
   images — the operational counterpart of the server's boot-time
   consistency scan and its "3 a.m." compaction.

     bullet_fsck IMG [IMG2]                    check only
     bullet_fsck IMG [IMG2] --repair           persist the scan's repairs
     bullet_fsck IMG [IMG2] --compact          also squeeze out the holes
     bullet_fsck IMG --reachable CAPS          list orphaned objects
     bullet_fsck IMG --reachable CAPS --gc     delete them too
     bullet_fsck --cluster CHECKPOINT [--member name=img[,img]]...
                                               cross-check a cluster directory

   CAPS is a text file holding one capability per line (the
   [port:obj:rights:check] form of Capability.to_string) — the caps the
   naming layer can still reach; everything live on disk but absent from
   that set and from the server's pending-transaction table is an
   orphan, e.g. a 2PC participant's prepared object whose coordinator
   died and whose RAM pending table a reboot emptied. *)

module Layout = Bullet_core.Layout
module Inode_table = Bullet_core.Inode_table
module Server = Bullet_core.Server
module Cluster = Amoeba_cluster.Cluster

let load_images paths =
  let clock = Amoeba_sim.Clock.create () in
  let load i path =
    match Amoeba_disk.Image.load ~id:(Printf.sprintf "drive%d" i) ~clock path with
    | Ok device -> device
    | Error e ->
      Printf.eprintf "%s: %s\n" path e;
      exit 1
  in
  (clock, Amoeba_disk.Mirror.create (List.mapi load paths))

let report_table table scan =
  let desc = Inode_table.descriptor table in
  Printf.printf "block size        %d bytes\n" desc.Layout.block_size;
  Printf.printf "inode table       %d blocks (%d inodes)\n" desc.Layout.control_size
    (Layout.max_inode desc);
  Printf.printf "file area         %d blocks\n" desc.Layout.data_size;
  Printf.printf "live files        %d\n" scan.Inode_table.files;
  let used = ref 0 in
  Inode_table.iter_live table (fun _ inode ->
      used := !used + ((inode.Layout.size_bytes + desc.Layout.block_size - 1) / desc.Layout.block_size));
  Printf.printf "blocks in use     %d (%.1f%%)\n" !used
    (100. *. float_of_int !used /. float_of_int desc.Layout.data_size);
  match scan.Inode_table.repaired with
  | [] -> Printf.printf "consistency       clean\n"
  | bad ->
    Printf.printf "consistency       %d inode(s) repaired: %s\n" (List.length bad)
      (String.concat ", " (List.map string_of_int bad))

let load_reachable path =
  let ic = open_in path in
  let caps = ref [] in
  (try
     while true do
       let line = String.trim (input_line ic) in
       if line <> "" then
         match Amoeba_cap.Capability.of_string line with
         | cap -> caps := cap :: !caps
         | exception Invalid_argument _ ->
           Printf.eprintf "%s: malformed capability %S\n" path line;
           exit 2
     done
   with End_of_file -> close_in ic);
  List.rev !caps

let run paths repair compact reachable gc =
  if gc && reachable = None then begin
    prerr_endline "--gc needs --reachable";
    exit 2
  end;
  if paths = [] then begin
    prerr_endline "need at least one image";
    exit 2
  end;
  let clock, mirror = load_images paths in
  (match Inode_table.load mirror with
  | Error e ->
    Printf.eprintf "not a valid Bullet image: %s\n" e;
    exit 1
  | Ok (table, scan) ->
    report_table table scan;
    let dirty = scan.Inode_table.repaired <> [] in
    if dirty && not repair then
      Printf.printf "(run with --repair to persist the repairs)\n";
    if repair && dirty then begin
      Inode_table.flush_all table ~sync:(Amoeba_disk.Mirror.live_count mirror);
      Printf.printf "repairs written back\n"
    end);
  if compact || reachable <> None then begin
    match Server.start mirror with
    | Error e ->
      Printf.eprintf "cannot boot for checks: %s\n" e;
      exit 1
    | Ok (server, _) ->
      (match reachable with
      | None -> ()
      | Some caps_file ->
        let caps = load_reachable caps_file in
        let orphans = Bullet_core.Fsck.orphans server ~reachable:caps in
        (match orphans with
        | [] -> Printf.printf "orphans           none\n"
        | objs ->
          Printf.printf "orphans           %d object(s): %s\n" (List.length objs)
            (String.concat ", " (List.map string_of_int objs)));
        if gc then begin
          let removed = Bullet_core.Fsck.gc server ~reachable:caps in
          Printf.printf "gc                deleted %d object(s)\n" removed
        end
        else if orphans <> [] then Printf.printf "(run with --gc to delete them)\n");
      if compact then begin
        let frag_before = Server.disk_fragmentation server in
        let moved = Server.compact_disk server in
        Printf.printf "compaction        moved %d blocks (fragmentation %.3f -> %.3f)\n" moved
          frag_before (Server.disk_fragmentation server)
      end
  end;
  if repair || compact || gc then begin
    Amoeba_disk.Mirror.drain mirror;
    List.iteri
      (fun i path ->
        Amoeba_disk.Image.save (List.nth (Amoeba_disk.Mirror.drives mirror) i) path)
      paths;
    Printf.printf "images saved\n"
  end;
  ignore clock

(* ---- cluster mode: cross-check inode tables vs a cluster directory ----

   The checkpoint says which servers hold which objects; the member
   images say what is actually on disk. A replica the directory claims
   but the disk cannot serve, or a key with fewer verified live copies
   than R, is an inconsistency — exit 1, the rebalancer (or an operator)
   has work to do. *)

let read_text path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let parse_member spec =
  match String.index_opt spec '=' with
  | None | Some 0 ->
    Printf.eprintf "--member %s: expected name=img[,img]\n" spec;
    exit 2
  | Some i ->
    let name = String.sub spec 0 i in
    let paths =
      List.filter
        (fun p -> p <> "")
        (String.split_on_char ',' (String.sub spec (i + 1) (String.length spec - i - 1)))
    in
    if paths = [] then begin
      Printf.eprintf "--member %s: no images\n" spec;
      exit 2
    end;
    (name, paths)

let run_cluster ck_path member_specs =
  let info =
    match Cluster.parse_checkpoint (read_text ck_path) with
    | Ok info -> info
    | Error e ->
      Printf.eprintf "%s: %s\n" ck_path e;
      exit 1
  in
  let members = List.map parse_member member_specs in
  List.iter
    (fun (name, _) ->
      if not (List.exists (fun (n, _, _) -> n = name) info.Cluster.ck_servers) then begin
        Printf.eprintf "--member %s: not a server of this checkpoint\n" name;
        exit 2
      end)
    members;
  let live = List.filter (fun (_, _, status) -> status <> "dead") info.Cluster.ck_servers in
  Printf.printf "cluster directory  %s\n" ck_path;
  Printf.printf "shards            %d\n" info.Cluster.ck_shards;
  Printf.printf "replicas          %d\n" info.Cluster.ck_replicas;
  Printf.printf "servers           %d (%d live)\n"
    (List.length info.Cluster.ck_servers)
    (List.length live);
  Printf.printf "objects           %d\n" (List.length info.Cluster.ck_objects);
  (* boot each provided member off its images with the seed the cluster
     used (FNV-1a over the name), so the directory's capabilities unseal *)
  let boot (name, paths) =
    let _clock, mirror = load_images paths in
    match Server.start ~seed:(Amoeba_sim.Prng.seed_of_string name) mirror with
    | Ok (server, _scan) -> (name, server)
    | Error e ->
      Printf.eprintf "--member %s: not a valid Bullet image set: %s\n" name e;
      exit 1
  in
  let booted = List.map boot members in
  let missing =
    List.concat_map
      (fun (key, holds) ->
        List.filter_map
          (fun (srv, cap) ->
            match List.assoc_opt srv booted with
            | None -> None
            | Some server -> (
              match Server.read server cap with
              | Ok _ -> None
              | Error _ -> Some (key, srv)))
          holds)
      info.Cluster.ck_objects
  in
  List.iter
    (fun (key, srv) -> Printf.printf "MISSING           %s: replica on %s not on disk\n" key srv)
    missing;
  if booted <> [] && missing = [] then
    Printf.printf "inode tables      %d member(s) back every claimed replica\n"
      (List.length booted);
  (* a replica missing on disk is no copy *)
  let on_disk (key, holds) =
    (key, List.filter (fun (srv, _) -> not (List.mem (key, srv) missing)) holds)
  in
  let want, under =
    Cluster.replication { info with Cluster.ck_objects = List.map on_disk info.Cluster.ck_objects }
  in
  (match under with
  | [] -> Printf.printf "replication       every object at %d live cop%s\n" want
            (if want = 1 then "y" else "ies")
  | _ ->
    List.iter
      (fun (key, n) ->
        Printf.printf "UNDER-REPLICATED  %s: %d live cop%s, want %d\n" key n
          (if n = 1 then "y" else "ies")
          want)
      under);
  if under <> [] || missing <> [] then exit 1

let main paths repair compact reachable gc cluster members =
  match cluster with
  | Some ck_path ->
    if repair || compact || gc || reachable <> None || paths <> [] then begin
      prerr_endline "--cluster takes only --member arguments";
      exit 2
    end;
    run_cluster ck_path members
  | None ->
    if members <> [] then begin
      prerr_endline "--member needs --cluster";
      exit 2
    end;
    run paths repair compact reachable gc

open Cmdliner

let images = Arg.(value & pos_all file [] & info [] ~docv:"IMAGE")

let repair = Arg.(value & flag & info [ "repair" ] ~doc:"Write scan repairs back to the images.")

let compact =
  Arg.(value & flag & info [ "compact" ] ~doc:"Compact the file area (implies saving).")

let reachable =
  Arg.(
    value
    & opt (some file) None
    & info [ "reachable" ] ~docv:"CAPS"
        ~doc:
          "File of reachable capabilities (one per line); live objects absent from it and from \
           the pending-transaction table are reported as orphans.")

let gc =
  Arg.(
    value & flag
    & info [ "gc" ]
        ~doc:"Delete the orphans found via $(b,--reachable) (implies saving the images).")

let cluster =
  Arg.(
    value
    & opt (some file) None
    & info [ "cluster" ] ~docv:"CHECKPOINT"
        ~doc:
          "Cross-check a cluster directory checkpoint instead of a drive image: report every \
           under-replicated object (and, with $(b,--member), every replica the directory claims \
           that the member's inode table cannot back). Exit 1 on any inconsistency.")

let members =
  Arg.(
    value & opt_all string []
    & info [ "member" ] ~docv:"NAME=IMG[,IMG]"
        ~doc:
          "A cluster member's drive images, for the $(b,--cluster) on-disk cross-check. \
           Repeatable.")

let cmd =
  let doc = "check, repair and compact Bullet drive images" in
  Cmd.v (Cmd.info "bullet_fsck" ~doc)
    Term.(const main $ images $ repair $ compact $ reachable $ gc $ cluster $ members)

let () = exit (Cmd.eval cmd)
