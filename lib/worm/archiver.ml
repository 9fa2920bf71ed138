module Status = Amoeba_rpc.Status
module Cap = Amoeba_cap.Capability
module Client = Bullet_core.Client
module Codec = Amoeba_sim.Codec
module R = Codec.Reader

type archived = { slot : Worm_device.slot; size : int; sequence : int }

type t = {
  store : Client.t;
  platter : Worm_device.t;
  catalog : (string, archived list) Hashtbl.t; (* newest first *)
  mutable next_sequence : int;
}

let create ~store ~platter = { store; platter; catalog = Hashtbl.create 32; next_sequence = 1 }

let burn t ~name data =
  let slot = Worm_device.append t.platter data in
  let sequence = t.next_sequence in
  t.next_sequence <- sequence + 1;
  let entry = { slot; size = Bytes.length data; sequence } in
  let existing = Option.value (Hashtbl.find_opt t.catalog name) ~default:[] in
  Hashtbl.replace t.catalog name (entry :: existing);
  entry

let archive_file t ~name cap =
  match Client.read t.store cap with
  | exception Status.Error e -> Error e
  | data -> (
    match burn t ~name data with
    | exception Worm_device.Platter_full -> Error Status.No_space
    | entry ->
      (try Client.delete t.store cap with Status.Error _ -> ());
      Ok entry)

let archive_name t ~dirs ~dir name =
  match Amoeba_dir.Dir_server.versions dirs dir name with
  | Error e -> Error e
  | Ok [] | Ok [ _ ] -> Ok 0
  | Ok (newest :: older) ->
    (* burn oldest-first so catalog sequence reflects age *)
    let rec burn_all acc = function
      | [] -> Ok acc
      | cap :: rest -> (
        match archive_file t ~name cap with
        | Ok (_ : archived) -> burn_all (acc + 1) rest
        | Error e -> Error e)
    in
    let result = burn_all 0 (List.rev older) in
    (match result with
    | Ok n when n > 0 ->
      (* shrink the binding to just the newest version: remove and
         re-enter (the directory server has no truncate-versions op) *)
      (match Amoeba_dir.Dir_server.remove_name dirs dir name with
      | Ok () -> (
        match Amoeba_dir.Dir_server.enter dirs dir name newest with Ok () | Error _ -> ())
      | Error _ -> ())
    | _ -> ());
    result

let history t name = Option.value (Hashtbl.find_opt t.catalog name) ~default:[]

let recall t name ~sequence =
  match List.find_opt (fun a -> a.sequence = sequence) (history t name) with
  | None -> Error Status.Not_found
  | Some entry -> (
    let data = Worm_device.read t.platter entry.slot in
    match Client.create t.store data with
    | cap -> Ok cap
    | exception Status.Error e -> Error e)

let catalog_names t =
  Amoeba_sim.Tbl.sorted_keys String.compare t.catalog

(* ---- catalog persistence ---- *)

let checkpoint t =
  let buf = Buffer.create 256 in
  Codec.add_u32 buf t.next_sequence;
  Codec.add_u32 buf (Hashtbl.length t.catalog);
  let encode_name name entries =
    Codec.add_u32 buf (String.length name);
    Buffer.add_string buf name;
    Codec.add_u32 buf (List.length entries);
    List.iter
      (fun e ->
        Codec.add_u32 buf e.slot;
        Codec.add_u32 buf e.size;
        Codec.add_u32 buf e.sequence)
      entries
  in
  (* Sorted so the persisted catalog bytes never depend on hash order. *)
  Amoeba_sim.Tbl.sorted_iter String.compare encode_name t.catalog;
  match Client.create t.store (Buffer.to_bytes buf) with
  | cap -> Ok cap
  | exception Status.Error e -> Error e

let restore ~store ~platter cap =
  match Client.read store cap with
  | exception Status.Error e -> Error e
  | data -> (
    let r = R.of_bytes data in
    let rec entries n =
      if n = 0 then []
      else begin
        let slot = R.u32 r in
        let size = R.u32 r in
        let sequence = R.u32 r in
        { slot; size; sequence } :: entries (n - 1)
      end
    in
    try
      let next_sequence = R.u32 r in
      let t = { store; platter; catalog = Hashtbl.create 32; next_sequence } in
      for _ = 1 to R.u32 r do
        let name = R.string r (R.u32 r) in
        Hashtbl.replace t.catalog name (entries (R.u32 r))
      done;
      Ok t
    with Codec.Truncated -> Error Status.Bad_request)
