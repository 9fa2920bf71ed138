(* The paper's answer to databases under whole-file immutability (§2):
   "Data bases can be subdivided over many smaller Bullet files, for
   example based on the identifying keys."

   This example builds a tiny key-value store: records are hashed into
   buckets, each bucket is one Bullet file, and an update rewrites only
   its bucket (via BULLET.MODIFY when the record fits in place, or a
   bucket re-create when it grows). Compare the cost against the naive
   one-big-file design.

   Run with:  dune exec examples/database_shards.exe *)

module Clock = Amoeba_sim.Clock
module Server = Bullet_core.Server
module Client = Bullet_core.Client

let bucket_count = 16

let record_bytes = 256

let records = 512

let make_bed () =
  let clock = Clock.create () in
  let server = Server.boot ~clock ~id:"bullet" ~sectors:131_072 ~max_files:1024 () in
  let transport = Amoeba_rpc.Transport.create ~clock in
  Bullet_core.Proto.serve server transport;
  (clock, Client.connect transport (Server.port server))

let record key = Bytes.make record_bytes (Char.chr (Char.code 'a' + (key mod 26)))

let () =
  (* Sharded design: one file per bucket. *)
  let clock, client = make_bed () in
  let bucket_of key = key mod bucket_count in
  let slot_of key = key / bucket_count in
  let bucket_size = records / bucket_count * record_bytes in
  let buckets =
    Array.init bucket_count (fun _ -> Client.create client (Bytes.make bucket_size '\000'))
  in
  let insert key =
    let b = bucket_of key in
    buckets.(b) <-
      (let updated = Client.modify client buckets.(b) ~pos:(slot_of key * record_bytes) (record key) in
       Client.delete client buckets.(b);
       updated)
  in
  let load_start = Clock.now clock in
  for key = 0 to records - 1 do
    insert key
  done;
  let load_us = Clock.now clock - load_start in
  (* Point update: rewrite one record in one 8 KB bucket. *)
  let update_us =
    let _, us = Clock.elapsed clock (fun () -> insert 137) in
    us
  in
  (* Point lookup: read just the record's byte range from its bucket. *)
  let lookup_us =
    let _, us =
      Clock.elapsed clock (fun () ->
          ignore
            (Client.read_range client buckets.(bucket_of 137)
               ~pos:(slot_of 137 * record_bytes) ~len:record_bytes))
    in
    us
  in
  Printf.printf "sharded over %d buckets (%d B each):\n" bucket_count bucket_size;
  Printf.printf "  bulk load of %d records  %10.1f ms\n" records (Clock.to_ms load_us);
  Printf.printf "  point update             %10.2f ms\n" (Clock.to_ms update_us);
  Printf.printf "  point lookup             %10.2f ms\n" (Clock.to_ms lookup_us);

  (* Naive design: the whole database as one immutable file - every
     update copies the lot. *)
  let clock, client = make_bed () in
  let db = ref (Client.create client (Bytes.make (records * record_bytes) '\000')) in
  let insert key =
    let updated = Client.modify client !db ~pos:(key * record_bytes) (record key) in
    Client.delete client !db;
    db := updated
  in
  let update_us =
    insert 1;
    let _, us = Clock.elapsed clock (fun () -> insert 137) in
    us
  in
  Printf.printf "one %d KB file:\n" (records * record_bytes / 1024);
  Printf.printf "  point update             %10.2f ms  (whole-file copy on every write)\n"
    (Clock.to_ms update_us)
