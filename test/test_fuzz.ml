(* Fuzz / robustness properties: malformed and random inputs must never
   crash a server — they produce error replies or repairs. *)

open Helpers
module Message = Amoeba_rpc.Message
module Status = Amoeba_rpc.Status
module Cap = Amoeba_cap.Capability
module Port = Amoeba_cap.Port
module Prng = Amoeba_sim.Prng

(* random messages aimed at a dispatcher *)
let arbitrary_message =
  QCheck.make
    ~print:(fun (command, obj, rights, check, arg0, arg1, body) ->
      Printf.sprintf "cmd=%d obj=%d rights=%d check=%Ld arg0=%d arg1=%d body=%d" command obj rights
        check arg0 arg1 (String.length body))
    QCheck.Gen.(
      tup7 (int_range 0 15) (int_range 0 300) (int_range 0 255) (map Int64.of_int int)
        (int_range (-100) 1_000_000) (int_range (-100) 1_000_000) (string_size (int_range 0 200)))

let fuzz_service name make_dispatch =
  qtest name ~count:300 arbitrary_message (fun (command, obj, rights, check, arg0, arg1, body) ->
      let dispatch, port = make_dispatch () in
      let cap = Cap.v ~port ~obj ~rights:(Amoeba_cap.Rights.of_int rights) ~check in
      let request =
        Message.request ~port ~command ~cap ~arg0 ~arg1 ~body:(Bytes.of_string body) ()
      in
      match dispatch request with
      | (_ : Message.t) -> true
      | exception _ -> false)

(* share one rig across iterations: fuzzing must not corrupt it either *)
let bullet_rig = lazy (make_bullet ())

let fuzz_bullet =
  fuzz_service "bullet dispatcher survives random requests" (fun () ->
      let b = Lazy.force bullet_rig in
      (Bullet_core.Proto.dispatch b.server, Bullet_core.Server.port b.server))

let nfs_rig =
  lazy
    (let clock = Amoeba_sim.Clock.create () in
     let geometry = Amoeba_disk.Geometry.small ~sectors:16_384 in
     let dev = Amoeba_disk.Block_device.create ~id:"fz" ~geometry ~clock in
     Nfs_baseline.Nfs_server.format dev ~max_files:64;
     Result.get_ok (Nfs_baseline.Nfs_server.mount dev))

let fuzz_nfs =
  fuzz_service "nfs dispatcher survives random requests" (fun () ->
      let server = Lazy.force nfs_rig in
      (Nfs_baseline.Nfs_proto.dispatch server, Nfs_baseline.Nfs_server.port server))

let dir_rig =
  lazy
    (let b = make_bullet () in
     Amoeba_dir.Dir_server.create ~store:b.client ())

let fuzz_dir =
  fuzz_service "directory dispatcher survives random requests" (fun () ->
      let dirs = Lazy.force dir_rig in
      (Amoeba_dir.Dir_proto.dispatch dirs, Amoeba_dir.Dir_server.port dirs))

(* the bullet rig still works after the beating *)
let test_bullet_survives_fuzzing () =
  let b = Lazy.force bullet_rig in
  let cap = Bullet_core.Client.create b.client (payload 100) in
  check_bytes "still serving" (payload 100) (Bullet_core.Client.read b.client cap)

(* the printable capability form must round-trip exactly — leased client
   caches key on it, so a collision or a lossy field would alias files *)
let test_cap_string_roundtrip () =
  let prng = Prng.create ~seed:0xCA9AB171E5L in
  for _ = 1 to 1_000 do
    let cap =
      Cap.v ~port:(Port.random prng)
        ~obj:(Prng.int prng 0x4000_0000)
        ~rights:(Amoeba_cap.Rights.of_int (Prng.int prng 0x1_0000))
        ~check:(Prng.next_int64 prng)
    in
    let back = Cap.of_string (Cap.to_string cap) in
    if not (Cap.equal cap back) then Alcotest.failf "round trip broke: %s" (Cap.to_string cap)
  done

(* decoding of arbitrary bytes: each result-returning decoder of wire
   or stored bytes answers Ok or Error, never an exception *)
let fuzz_decode =
  qtest "decoders never raise on random bytes" ~count:500
    QCheck.(string_of_size (QCheck.Gen.int_range 0 300))
    (fun s ->
      let b = Bytes.of_string s in
      let never_raises = function Ok _ | Error _ -> true in
      never_raises (Amoeba_rpc.Wire.decode b)
      && never_raises (Amoeba_txn.Wal.decode_record b)
      && never_raises (Amoeba_metrics.Metrics.decode_snapshot b)
      && never_raises (Amoeba_disk.Image.decode_header b))

(* a disk full of garbage must load with repairs or a clean error *)
let fuzz_garbage_disk =
  qtest "boot scan survives a corrupted inode table" ~count:60 QCheck.int64 (fun seed ->
      let rig = make_rig ~sectors:1024 () in
      let (_ : Bullet_core.Layout.descriptor) =
        Bullet_core.Inode_table.format rig.mirror ~max_files:63
      in
      (* splatter random bytes over the inode table (sectors 1..1), keep
         the descriptor intact *)
      let prng = Prng.create ~seed in
      let garbage = Prng.bytes prng 512 in
      Amoeba_disk.Block_device.poke rig.drive1 ~sector:1 garbage;
      Amoeba_disk.Block_device.poke rig.drive2 ~sector:1 garbage;
      match Bullet_core.Inode_table.load rig.mirror with
      | Error _ -> true
      | Ok (table, _report) ->
        (* whatever survived the scan must be internally consistent:
           no overlapping live files, all within the data area *)
        let desc = Bullet_core.Inode_table.descriptor table in
        let lo = Bullet_core.Layout.data_start desc in
        let hi = lo + desc.Bullet_core.Layout.data_size in
        let extents = ref [] in
        let ok = ref true in
        Bullet_core.Inode_table.iter_live table (fun _ inode ->
            let blocks = (inode.Bullet_core.Layout.size_bytes + 511) / 512 in
            let start = inode.Bullet_core.Layout.first_block in
            if start < lo || start + blocks > hi then ok := false;
            if blocks > 0 then extents := (start, blocks) :: !extents);
        let sorted = List.sort compare !extents in
        let rec no_overlap = function
          | (s1, n1) :: ((s2, _) :: _ as rest) -> s1 + n1 <= s2 && no_overlap rest
          | _ -> true
        in
        !ok && no_overlap sorted)

(* a server booted from a garbage disk still serves new files *)
let test_server_boots_from_repaired_disk () =
  let rig = make_rig ~sectors:1024 () in
  Bullet_core.Server.format rig.mirror ~max_files:63;
  let prng = Prng.create ~seed:0xBADL in
  Amoeba_disk.Block_device.poke rig.drive1 ~sector:1 (Prng.bytes prng 512);
  Amoeba_disk.Block_device.poke rig.drive2 ~sector:1 (Prng.bytes prng 512);
  match Bullet_core.Server.start ~config:small_bullet_config rig.mirror with
  | Error e -> Alcotest.failf "boot failed: %s" e
  | Ok (server, _report) ->
    let cap = ok_exn (Bullet_core.Server.create server (payload 700)) in
    check_bytes "serves after repair" (payload 700) (ok_exn (Bullet_core.Server.read server cap))

(* the UNIX emulation against an in-memory reference file system *)
let fuzz_unix_emu_model =
  qtest "unix emulation matches a reference model" ~count:40
    QCheck.(pair int64 (small_list (int_range 0 5)))
    (fun (seed, ops) ->
      let b = make_bullet () in
      let dirs = Amoeba_dir.Dir_server.create ~store:b.client () in
      Amoeba_dir.Dir_proto.serve dirs b.transport;
      let dclient = Amoeba_dir.Dir_client.connect b.transport (Amoeba_dir.Dir_server.port dirs) in
      let fs =
        Unix_emu.Posix_fs.mount ~bullet:b.client ~dirs:dclient
          ~root:(Amoeba_dir.Dir_client.get_root dclient)
      in
      let reference : (string, string) Hashtbl.t = Hashtbl.create 8 in
      let prng = Prng.create ~seed in
      let names = [| "a"; "b"; "c"; "d" |] in
      let pick () = names.(Prng.int prng (Array.length names)) in
      let ok = ref true in
      let apply op =
        match op with
        | 0 | 1 ->
          (* write random contents *)
          let name = pick () in
          let contents = Bytes.to_string (Prng.bytes prng (Prng.int prng 2000)) in
          Unix_emu.Posix_fs.write_whole fs name contents;
          Hashtbl.replace reference name contents
        | 2 ->
          (* read and compare *)
          let name = pick () in
          let expected = Hashtbl.find_opt reference name in
          let actual =
            match Unix_emu.Posix_fs.read_whole fs name with
            | contents -> Some contents
            | exception Unix_emu.Posix_fs.Unix_error _ -> None
          in
          if expected <> actual then ok := false
        | 3 ->
          (* unlink *)
          let name = pick () in
          (match Unix_emu.Posix_fs.unlink fs name with
          | () -> if not (Hashtbl.mem reference name) then ok := false
          | exception Unix_emu.Posix_fs.Unix_error _ ->
            if Hashtbl.mem reference name then ok := false);
          Hashtbl.remove reference name
        | 4 ->
          (* rename *)
          let from_name = pick () and to_name = pick () in
          (match Unix_emu.Posix_fs.rename fs from_name to_name with
          | () -> (
            if from_name <> to_name then
              match Hashtbl.find_opt reference from_name with
              | Some contents ->
                Hashtbl.remove reference from_name;
                Hashtbl.replace reference to_name contents
              | None -> ok := false)
          | exception Unix_emu.Posix_fs.Unix_error _ ->
            if Hashtbl.mem reference from_name then ok := false)
        | _ ->
          (* listing matches *)
          let listed = List.sort compare (Unix_emu.Posix_fs.readdir fs "") in
          let expected =
            List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) reference [])
          in
          if listed <> expected then ok := false
      in
      List.iter apply ops;
      (* final sweep: every reference file reads back identically *)
      Hashtbl.iter
        (fun name contents ->
          match Unix_emu.Posix_fs.read_whole fs name with
          | actual -> if actual <> contents then ok := false
          | exception Unix_emu.Posix_fs.Unix_error _ -> ok := false)
        reference;
      !ok)

(* durability contract under random workloads with crashes: a file
   created with P-FACTOR >= 1 and never deleted must survive every
   crash+reboot with its exact contents; a P-FACTOR 0 file may vanish,
   but if it is still readable it must be intact *)
let prop_durability_across_crashes =
  qtest "p>=1 files survive crashes intact" ~count:25
    QCheck.(pair int64 (small_list (int_range 0 3000)))
    (fun (seed, sizes) ->
      let rig = make_rig () in
      Bullet_core.Server.format rig.mirror ~max_files:256;
      let boot () =
        match Bullet_core.Server.start ~config:small_bullet_config rig.mirror with
        | Ok (server, _) -> server
        | Error e -> Alcotest.failf "boot failed: %s" e
      in
      let server = ref (boot ()) in
      let prng = Prng.create ~seed in
      let durable = ref [] in
      let volatile = ref [] in
      let ok = ref true in
      let step size =
        match Prng.int prng 5 with
        | 0 | 1 ->
          let data = Bytes.init size (fun i -> Char.chr ((i + size) land 0xff)) in
          let p = Prng.int_in prng 1 2 in
          (match Bullet_core.Server.create !server ~p_factor:p data with
          | Ok cap -> durable := (cap, data) :: !durable
          | Error _ -> ok := false)
        | 2 ->
          let data = Bytes.init size (fun i -> Char.chr (i land 0x7f)) in
          (match Bullet_core.Server.create !server ~p_factor:0 data with
          | Ok cap -> volatile := (cap, data) :: !volatile
          | Error _ -> ok := false)
        | 3 when !durable <> [] ->
          let idx = Prng.int prng (List.length !durable) in
          let cap, _ = List.nth !durable idx in
          durable := List.filteri (fun i _ -> i <> idx) !durable;
          (match Bullet_core.Server.delete !server cap with Ok () -> () | Error _ -> ok := false)
        | _ ->
          (* crash and reboot *)
          Bullet_core.Server.crash !server;
          server := boot ();
          (* p=0 survivors must still be intact; the lost ones are
             forgotten *)
          volatile :=
            List.filter
              (fun (cap, data) ->
                match Bullet_core.Server.read !server cap with
                | Ok contents ->
                  if not (Bytes.equal contents data) then ok := false;
                  true
                | Error _ -> false)
              !volatile
      in
      List.iter step sizes;
      (* final audit: every durable file reads back exactly *)
      Bullet_core.Server.crash !server;
      server := boot ();
      List.iter
        (fun (cap, data) ->
          match Bullet_core.Server.read !server cap with
          | Ok contents -> if not (Bytes.equal contents data) then ok := false
          | Error _ -> ok := false)
        !durable;
      !ok)

let suite =
  ( "fuzz",
    [
      fuzz_bullet;
      fuzz_nfs;
      fuzz_dir;
      Alcotest.test_case "bullet survives fuzzing" `Quick test_bullet_survives_fuzzing;
      Alcotest.test_case "capability string form round-trips" `Quick test_cap_string_roundtrip;
      fuzz_decode;
      fuzz_garbage_disk;
      Alcotest.test_case "server boots from repaired disk" `Quick
        test_server_boots_from_repaired_disk;
      fuzz_unix_emu_model;
      prop_durability_across_crashes;
    ] )
