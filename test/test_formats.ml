(* Byte-level pins of every persisted and wire format. Each test encodes
   one fixed value and compares the bytes with a hex literal; the values
   set bit 31 of a u32 and bit 63 of the check field, so a change of
   byte order or a lost high bit shows. Drive images and checkpoints
   written by earlier builds must keep loading: never edit a literal. *)

open Helpers
module Cap = Amoeba_cap.Capability
module Port = Amoeba_cap.Port
module Rights = Amoeba_cap.Rights
module Layout = Bullet_core.Layout
module Ufs = Nfs_baseline.Ufs_layout
module Message = Amoeba_rpc.Message
module Status = Amoeba_rpc.Status
module Wire = Amoeba_rpc.Wire
module Wal = Amoeba_txn.Wal
module Dir = Amoeba_dir.Dir_server
module Dir_proto = Amoeba_dir.Dir_proto
module Metrics = Amoeba_metrics.Metrics
module Archiver = Amoeba_worm.Archiver
module Client = Bullet_core.Client

let hex b =
  String.concat ""
    (List.map (fun c -> Printf.sprintf "%02x" (Char.code c)) (List.of_seq (Bytes.to_seq b)))

let check_hex msg expected b = check_string msg expected (hex b)

let port = Port.of_int64 0x8123_4567_89ABL

let cap = Cap.v ~port ~obj:0x8000_0001 ~rights:(Rights.of_int 0xA5) ~check:0x8000_0000_0000_0001L

let cap2 =
  Cap.v ~port:(Port.of_int64 0xFEDC_BA98_7654L) ~obj:7 ~rights:(Rights.of_int 0x01)
    ~check:0xFFFF_0000_1234_5678L

let test_capability () =
  let buf = Bytes.create Port.wire_size in
  Port.write port buf 0;
  check_hex "port" "8123456789ab" buf;
  check_hex "capability" "8123456789ab8000000100a58000000000000001" (Cap.to_bytes cap);
  check_bool "capability decodes" true (Cap.equal cap (Cap.of_bytes (Cap.to_bytes cap)))

let test_bullet_layout () =
  let inode =
    {
      Layout.random = 0x8000_0000_0001L;
      index = 0x8001;
      first_block = 0x8000_0002;
      size_bytes = 0xFFFF_FFFE;
    }
  in
  let buf = Bytes.create Layout.inode_bytes in
  Layout.encode_inode inode buf 0;
  check_hex "inode" "800000000001800180000002fffffffe" buf;
  check_bool "inode decodes" true (Layout.decode_inode buf 0 = inode);
  let d = { Layout.block_size = 512; control_size = 0x8000_0003; data_size = 0x7FFF_FFFF } in
  Layout.encode_descriptor d buf 0;
  check_hex "descriptor" "42554c4c00000200800000037fffffff" buf;
  check_bool "descriptor decodes" true (Layout.decode_descriptor buf 0 = Ok d)

let test_ufs_layout () =
  let inode =
    {
      Ufs.used = true;
      gen = 0x8000_0004;
      size_bytes = 0x9000_0000;
      direct = Array.init Ufs.direct_pointers (fun i -> 0x8000_0000 + i);
      indirect = 0xC000_0001;
      double = 0xC000_0002;
      inline = None;
    }
  in
  let buf = Bytes.make Ufs.inode_bytes '\000' in
  Ufs.encode_inode inode buf 0;
  check_hex "ufs inode"
    "000000018000000490000000800000008000000180000002800000038000000480000005800000068000000780000008800000098000000a8000000bc0000001c0000002000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000"
    buf;
  check_bool "ufs inode decodes" true (Ufs.decode_inode buf 0 = inode);
  let s = { Ufs.total_blocks = 0x8000_0005; inode_blocks = 2; bitmap_blocks = 3 } in
  let buf = Bytes.create 16 in
  Ufs.encode_superblock s buf 0;
  check_hex "superblock" "55465321800000050000000200000003" buf;
  check_bool "superblock decodes" true (Ufs.decode_superblock buf 0 = Ok s)

let test_image () =
  let geometry =
    {
      Amoeba_disk.Geometry.sector_bytes = 4;
      sector_count = 2;
      avg_seek_us = 0x8000_0006;
      rotation_us = 16_667;
      media_rate = 0xFFFF_FFFF;
      controller_us = 0;
    }
  in
  let clock = Amoeba_sim.Clock.create () in
  let device = Amoeba_disk.Block_device.create ~id:"pin" ~geometry ~clock in
  Amoeba_disk.Block_device.poke device ~sector:0 (Bytes.of_string "abcdefgh");
  let path = Filename.temp_file "pin" ".img" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Amoeba_disk.Image.save device path;
      let image = Bytes.of_string (In_channel.with_open_bin path In_channel.input_all) in
      (* magic, six u32 geometry fields, then the sectors *)
      check_hex "image"
        "42494d47303030310000000400000002800000060000411bffffffff000000006162636465666768" image)

let test_wire_frame () =
  let m =
    {
      (Message.request ~port ~command:0x8000_0007 ~cap ~arg0:(-2) ~arg1:0x1234 ~xid:0x8000_0000_0008
         ~body:(Bytes.of_string "body") ())
      with
      Message.status = Status.Not_found;
    }
  in
  let frame = Wire.encode m in
  check_hex "frame"
    "0000003f8123456789ab8000000700000004018123456789ab8000000100a58000000000000001fffffffffffffffe00000000000012340000800000000008626f6479"
    frame;
  match Wire.decode (Bytes.sub frame 4 (Bytes.length frame - 4)) with
  | Ok back -> check_int "xid decodes" m.Message.xid back.Message.xid
  | Error e -> Alcotest.fail e

let test_wal () =
  let record =
    Wal.Prepared (0x8000_0009, Wal.Dir_intent { dir = cap; name = "name"; op = Dir.Txn_replace cap2 })
  in
  let encoded = Wal.encode_record record in
  check_hex "wal record"
    "0180000009028123456789ab8000000100a5800000000000000101fedcba987654000000070001ffff00001234567800046e616d65"
    encoded;
  check_bool "wal record decodes" true (Wal.decode_record encoded = Ok record)

let test_directory () =
  let rig = make_bullet () in
  let dirs = Dir.create ~store:rig.client () in
  let root = Dir.root dirs in
  ok_exn (Dir.enter dirs root "alpha" cap);
  ok_exn (Dir.enter dirs root "beta" cap2);
  let (_ : Cap.t option) = ok_exn (Dir.replace dirs root "alpha" cap2) in
  ok_exn (Dir.txn_prepare dirs ~txn:0x8000_000A root "gamma" (Dir.Txn_enter cap));
  ok_exn (Dir.txn_prepare dirs ~txn:0x8000_000C root "beta" (Dir.Txn_replace cap));
  ok_exn (Dir.txn_commit dirs ~txn:0x8000_000C root "beta" (Dir.Txn_replace cap));
  let checkpoint = Client.read rig.client (ok_exn (Dir.checkpoint dirs)) in
  check_hex "checkpoint"
    "000000020000000100000001000000010000184ec0f257dd00000002015889ebf355c30000000100ff16da96c10e455560000000018000000a00000001008123456789ab8000000100a58000000000000001000567616d6d61000000018000000c00000001000462657461"
    checkpoint;
  (* header (next_obj, root_obj, count) then the root's obj, random,
     epoch and has-file flag precede its file capability *)
  let rows = Client.read rig.client (Cap.of_bytes (Bytes.sub checkpoint 29 Cap.wire_size)) in
  check_hex "rows"
    "000000020005616c7068610002fedcba987654000000070001ffff0000123456788123456789ab8000000100a5800000000000000100046265746100028123456789ab8000000100a58000000000000001fedcba987654000000070001ffff000012345678"
    rows;
  let listing = Dir_proto.encode_listing [ ("alpha", cap); ("beta", cap2) ] in
  check_hex "listing"
    "0005616c7068618123456789ab8000000100a58000000000000001000462657461fedcba987654000000070001ffff000012345678"
    listing;
  check_bool "listing decodes" true
    (Dir_proto.decode_listing listing = [ ("alpha", cap); ("beta", cap2) ])

(* An intent op is a tag byte (0 enter, 1 replace, 2 remove) and, for
   enter and replace, the target capability. The TXN request body ends
   with the bare name; checkpoints and WAL records give it a u16 length. *)
let test_intents () =
  check_hex "txn body, enter" "008123456789ab8000000100a580000000000000016e616d65"
    (Dir_proto.encode_txn_intent (Dir.Txn_enter cap) "name");
  check_hex "txn body, replace" "01fedcba987654000000070001ffff0000123456786e616d65"
    (Dir_proto.encode_txn_intent (Dir.Txn_replace cap2) "name");
  check_hex "txn body, remove" "026e616d65" (Dir_proto.encode_txn_intent Dir.Txn_remove "name");
  let wal op = Wal.encode_record (Wal.Prepared (1, Wal.Dir_intent { dir = cap2; name = "n"; op })) in
  check_hex "wal record, enter"
    "010000000102fedcba987654000000070001ffff000012345678008123456789ab8000000100a5800000000000000100016e"
    (wal (Dir.Txn_enter cap));
  check_hex "wal record, remove"
    "010000000102fedcba987654000000070001ffff0000123456780200016e"
    (wal Dir.Txn_remove);
  let rig = make_bullet () in
  let dirs = Dir.create ~store:rig.client () in
  let root = Dir.root dirs in
  ok_exn (Dir.enter dirs root "gone" cap);
  ok_exn (Dir.txn_prepare dirs ~txn:0x8000_000A root "new" (Dir.Txn_enter cap));
  ok_exn (Dir.txn_prepare dirs ~txn:0x8000_000B root "next" (Dir.Txn_replace cap2));
  ok_exn (Dir.txn_prepare dirs ~txn:0x8000_000C root "gone" Dir.Txn_remove);
  ok_exn (Dir.txn_commit dirs ~txn:0x8000_000D root "done" (Dir.Txn_enter cap2));
  check_hex "checkpoint with one intent of each op"
    "000000020000000100000001000000010000184ec0f257dd00000000015889ebf355c30000000100ffd940ec7de24e1bba000000038000000a00000001008123456789ab8000000100a5800000000000000100036e65778000000b0000000101fedcba987654000000070001ffff00001234567800046e6578748000000c00000001020004676f6e65000000018000000d000000010004646f6e65"
    (Client.read rig.client (ok_exn (Dir.checkpoint dirs)))

let test_metrics () =
  let snap =
    {
      Metrics.at_us = 0x8000_0000_000D;
      samples =
        [
          { Metrics.s_name = "a.count"; s_value = Metrics.Counter (-1) };
          { Metrics.s_name = "b.gauge"; s_value = Metrics.Gauge 0x8000_0000 };
          {
            Metrics.s_name = "c.hist";
            s_value =
              Metrics.Hist { count = 3; sum = 0x1_0000_0000; p50 = 5; p95 = 6; p99 = 7; max_value = 8 };
          };
        ];
    }
  in
  let encoded = Metrics.encode_snapshot snap in
  check_hex "snapshot"
    "000080000000000d000000030007612e636f756e7400ffffffffffffffff0007622e67617567650100000000800000000006632e6869737402000000000000000300000001000000000000000000000005000000000000000600000000000000070000000000000008"
    encoded;
  check_bool "snapshot decodes" true (Metrics.decode_snapshot encoded = Ok snap)

let test_archiver () =
  let rig = make_bullet () in
  let platter = Amoeba_worm.Worm_device.create ~capacity:1_000_000 ~clock:rig.rig.clock in
  let archiver = Archiver.create ~store:rig.client ~platter in
  let burn name contents =
    let (_ : Archiver.archived) =
      let file = Client.create rig.client (Bytes.of_string contents) in
      ok_exn (Archiver.archive_file archiver ~name file)
    in
    ()
  in
  burn "doc" "first";
  burn "doc" "second version";
  burn "notes" "n";
  check_hex "catalog"
    "000000040000000200000003646f6300000002000000010000000e00000002000000000000000500000001000000056e6f74657300000001000000020000000100000003"
    (Client.read rig.client (ok_exn (Archiver.checkpoint archiver)))

let test_stat_and_descriptor () =
  let stat =
    Bullet_core.Proto.decode_stat
      (Bytes.of_string
         "\x80\x00\x00\x01\x00\x00\x00\x02\xff\xff\xff\xff\x00\x00\x01\x00\x00\x01\x00\x00")
  in
  check_int "live_files" 0x8000_0001 stat.Bullet_core.Proto.live_files;
  check_int "free_blocks" 2 stat.Bullet_core.Proto.free_blocks;
  check_int "data_blocks" 0xFFFF_FFFF stat.Bullet_core.Proto.data_blocks;
  check_int "cache_used" 256 stat.Bullet_core.Proto.cache_used;
  check_int "cache_capacity" 65536 stat.Bullet_core.Proto.cache_capacity;
  let descriptor = Amoeba_wan.Federation.encode_descriptor [ ("home", cap); ("far", cap2) ] in
  check_hex "replica descriptor"
    "0204686f6d658123456789ab8000000100a5800000000000000103666172fedcba987654000000070001ffff000012345678"
    descriptor;
  check_bool "replica descriptor decodes" true
    (Amoeba_wan.Federation.decode_descriptor descriptor = [ ("home", cap); ("far", cap2) ])

let suite =
  ( "formats",
    [
      Alcotest.test_case "capability and port bytes" `Quick test_capability;
      Alcotest.test_case "bullet inode and descriptor bytes" `Quick test_bullet_layout;
      Alcotest.test_case "ufs inode and superblock bytes" `Quick test_ufs_layout;
      Alcotest.test_case "drive image bytes" `Quick test_image;
      Alcotest.test_case "wire frame bytes" `Quick test_wire_frame;
      Alcotest.test_case "wal record bytes" `Quick test_wal;
      Alcotest.test_case "directory checkpoint, rows and listing bytes" `Quick test_directory;
      Alcotest.test_case "directory intent op bytes" `Quick test_intents;
      Alcotest.test_case "metrics snapshot bytes" `Quick test_metrics;
      Alcotest.test_case "archiver catalog bytes" `Quick test_archiver;
      Alcotest.test_case "stat reply and replica descriptor bytes" `Quick test_stat_and_descriptor;
    ] )
