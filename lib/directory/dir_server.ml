module Status = Amoeba_rpc.Status
module Cap = Amoeba_cap.Capability
module Codec = Amoeba_sim.Codec
module R = Codec.Reader

type config = { max_versions : int; lease_us : int }

let default_config = { max_versions = 3; lease_us = 500_000 }

(* Per-request CPU: 1 ms. *)
let cpu_request_us = 1_000

(* Paranoia factor for directory file writes: 2, both disks. *)
let p_factor = 2

type binding = { name : string; versions : Cap.t list (* newest first, non-empty *) }

(* ---- two-phase commit intents ----

   A prepared-but-undecided action on one binding. Intents are replicated
   state: the pair dispatches every txn command to both replicas and the
   checkpoint carries them (unlike lease horizons, they are deterministic
   across the pair), so a healed replica still knows its in-doubt
   bindings. *)

type intent_op = Txn_enter of Cap.t | Txn_replace of Cap.t | Txn_remove

type intent = { txn : int; dir_obj : int; iname : string; op : intent_op }

(* A decision the server has already applied, remembered so a coordinator
   re-send after recovery is answered Ok instead of applied twice. *)
type applied = { a_txn : int; a_obj : int; a_name : string }

let applied_window = 64

type dir = {
  random : int64;
  mutable rows : binding list; (* sorted by name *)
  mutable file : Cap.t option; (* the Bullet file persisting this directory *)
  mutable epoch : int; (* bumped on replace/remove so leased clients revalidate *)
  mutable leases_until : int; (* latest lease horizon granted on this dir, µs *)
}

type t = {
  config : config;
  store : Bullet_core.Client.t;
  sealer : Amoeba_cap.Sealer.t;
  seed : int64;
  service_port : Amoeba_cap.Port.t;
  clock : Amoeba_sim.Clock.t;
  dirs : (int, dir) Hashtbl.t;
  stats : Amoeba_sim.Stats.t;
  mutable next_obj : int;
  mutable root_obj : int;
  mutable checkpoint_file : Cap.t option;
  mutable intents : intent list; (* prepared, undecided; insertion order *)
  mutable applied : applied list; (* newest first, at most applied_window *)
}

(* ---- serialisation ---- *)

let add_cap buf cap = Buffer.add_bytes buf (Cap.to_bytes cap)

let encode_rows rows =
  let buf = Buffer.create 256 in
  Codec.add_u32 buf (List.length rows);
  let encode_binding b =
    Buffer.add_uint16_be buf (String.length b.name);
    Buffer.add_string buf b.name;
    Buffer.add_uint16_be buf (List.length b.versions);
    List.iter (add_cap buf) b.versions
  in
  List.iter encode_binding rows;
  Buffer.to_bytes buf

(* explicit recursion: the reader is stateful, order matters *)
let rec read_list n read = if n = 0 then [] else let x = read () in x :: read_list (n - 1) read

let read_name r = R.string r (R.u16 r)

(* An intent op, wherever it is sent or stored (TXN request bodies,
   checkpoints, the coordinator's WAL): a tag byte (0 enter, 1 replace,
   2 remove), then the target capability for enter and replace. *)
let add_intent_op buf = function
  | Txn_enter cap ->
    Buffer.add_char buf '\000';
    add_cap buf cap
  | Txn_replace cap ->
    Buffer.add_char buf '\001';
    add_cap buf cap
  | Txn_remove -> Buffer.add_char buf '\002'

let read_intent_op r =
  match R.u8 r with
  | 0 -> Ok (Txn_enter (Cap.of_reader r))
  | 1 -> Ok (Txn_replace (Cap.of_reader r))
  | 2 -> Ok Txn_remove
  | tag -> Error tag

let decode_rows data =
  let r = R.of_bytes data in
  let decode_binding () =
    let name = read_name r in
    let versions = read_list (R.u16 r) (fun () -> Cap.of_reader r) in
    { name; versions }
  in
  read_list (R.u32 r) decode_binding

(* ---- persistence through the Bullet store ---- *)

let charge_cpu t = Amoeba_sim.Clock.advance t.clock cpu_request_us

(* Every directory mutation creates a fresh immutable Bullet file and
   deletes the previous one: the paper's versioned-update in miniature. *)
let persist t dir =
  let data = encode_rows dir.rows in
  let fresh = Bullet_core.Client.create t.store ~p_factor data in
  (match dir.file with
  | Some old -> ( try Bullet_core.Client.delete t.store old with Status.Error _ -> ())
  | None -> ());
  dir.file <- Some fresh

let bullet_delete_quietly t cap =
  if Amoeba_cap.Port.equal cap.Cap.port (Bullet_core.Client.port t.store) then
    try Bullet_core.Client.delete t.store cap with Status.Error _ -> ()

(* ---- directory objects ---- *)

let seal_cap t ~obj ~random ~rights =
  Cap.v ~port:t.service_port ~obj ~rights ~check:(Amoeba_cap.Sealer.seal t.sealer ~random ~rights)

(* Per-object protection randoms are derived deterministically from
   (seed, obj) so that replicated directory servers (Dir_pair) mint
   identical capabilities no matter how their histories interleave. *)
let random_for ~seed obj =
  Int64.logand
    (Amoeba_cap.Crypto.one_way (Int64.add seed (Int64.of_int (obj * 2 + 1))))
    0xFFFF_FFFF_FFFFL

let fresh_dir t =
  let obj = t.next_obj in
  t.next_obj <- obj + 1;
  let dir =
    { random = random_for ~seed:t.seed obj; rows = []; file = None; epoch = 0; leases_until = 0 }
  in
  Hashtbl.replace t.dirs obj dir;
  persist t dir;
  (obj, dir)

(* A server with no directories yet: [create] makes the root, [restore]
   reads the table from a checkpoint. *)
let empty ~config ~seed ~store =
  {
    config;
    store;
    sealer = Amoeba_cap.Sealer.of_passphrase (Printf.sprintf "dir-%Ld" seed);
    seed;
    service_port = Amoeba_cap.Port.random (Amoeba_sim.Prng.create ~seed:(Int64.add seed 7L));
    clock = Amoeba_rpc.Transport.clock (Bullet_core.Client.transport store);
    dirs = Hashtbl.create 64;
    stats = Amoeba_sim.Stats.create "directory";
    next_obj = 1;
    root_obj = 0;
    checkpoint_file = None;
    intents = [];
    applied = [];
  }

let create ?(config = default_config) ?(seed = 0x444952535256L) ~store () =
  let t = empty ~config ~seed ~store in
  let obj, _dir = fresh_dir t in
  t.root_obj <- obj;
  t

let port t = t.service_port

let stats t = t.stats

let root_cap_of t obj =
  let dir = Hashtbl.find t.dirs obj in
  seal_cap t ~obj ~random:dir.random ~rights:Amoeba_cap.Rights.all

let root t = root_cap_of t t.root_obj

let make_dir t =
  charge_cpu t;
  Amoeba_sim.Stats.incr t.stats "make_dir";
  let obj, dir = fresh_dir t in
  seal_cap t ~obj ~random:dir.random ~rights:Amoeba_cap.Rights.all

let verify t cap ~need =
  if not (Amoeba_cap.Port.equal cap.Cap.port t.service_port) then Error Status.No_such_object
  else
    match Hashtbl.find_opt t.dirs cap.Cap.obj with
    | None -> Error Status.No_such_object
    | Some dir ->
      if not (Amoeba_cap.Sealer.verify t.sealer ~random:dir.random ~cap) then
        Error Status.Bad_capability
      else if not (Amoeba_cap.Rights.subset need cap.Cap.rights) then Error Status.Bad_capability
      else Ok (cap.Cap.obj, dir)

let ( let* ) = Result.bind

let find_binding dir name = List.find_opt (fun b -> b.name = name) dir.rows

(* What LOOKUP, a leased lookup and each RESOLVE step answer. *)
let newest dir name =
  match find_binding dir name with
  | Some { versions = v :: _; _ } -> Ok v
  | Some { versions = []; _ } | None -> Error Status.Not_found

(* Rows, LIST replies, checkpoints and WAL intents all store a name's
   length as a u16. *)
let valid_name name = name <> "" && String.length name <= 0xFFFF

(* A pending intent is a lock on its binding: conflicting ordinary
   mutations — and other transactions' prepares — are refused until the
   coordinator decides. *)
let intent_locked t dir_obj name =
  List.exists (fun i -> i.dir_obj = dir_obj && i.iname = name) t.intents

(* ---- leases (Gray & Cheriton) ----

   A lease is a promise not to change this directory's bindings before a
   horizon. The server only remembers the latest horizon it promised;
   an epoch-bumping mutation first waits the horizon out (the write-wait),
   so a client whose lease deadline is strictly earlier than the server's
   recorded horizon can serve cached data without ever returning a byte
   that a completed mutation replaced. *)

let grant_lease t dir =
  let expiry = Amoeba_sim.Clock.now t.clock + t.config.lease_us in
  if expiry > dir.leases_until then dir.leases_until <- expiry;
  Amoeba_sim.Stats.incr t.stats "leases_granted"

let wait_out_leases t dir =
  let now = Amoeba_sim.Clock.now t.clock in
  if dir.leases_until > now then begin
    Amoeba_sim.Stats.incr t.stats "lease_waits";
    Amoeba_sim.Stats.add t.stats "lease_wait_us" (dir.leases_until - now);
    Amoeba_sim.Clock.advance_to t.clock dir.leases_until
  end

let bump_epoch t dir =
  wait_out_leases t dir;
  dir.epoch <- dir.epoch + 1;
  Amoeba_sim.Stats.incr t.stats "epoch_bumps"

let lookup t cap name =
  charge_cpu t;
  Amoeba_sim.Stats.incr t.stats "lookups";
  let* _obj, dir = verify t cap ~need:Amoeba_cap.Rights.read in
  newest dir name

let lookup_lease t cap name =
  charge_cpu t;
  Amoeba_sim.Stats.incr t.stats "lookup_leases";
  let* _obj, dir = verify t cap ~need:Amoeba_cap.Rights.read in
  let* found = newest dir name in
  grant_lease t dir;
  Ok (found, dir.epoch, t.config.lease_us)

let renew_lease t cap =
  charge_cpu t;
  Amoeba_sim.Stats.incr t.stats "lease_renewals";
  let* _obj, dir = verify t cap ~need:Amoeba_cap.Rights.read in
  grant_lease t dir;
  Ok (dir.epoch, t.config.lease_us)

let epoch t cap =
  let* _obj, dir = verify t cap ~need:Amoeba_cap.Rights.read in
  Ok dir.epoch

let versions t cap name =
  charge_cpu t;
  let* _obj, dir = verify t cap ~need:Amoeba_cap.Rights.read in
  match find_binding dir name with
  | Some b -> Ok b.versions
  | None -> Error Status.Not_found

let resolve t cap path =
  charge_cpu t;
  Amoeba_sim.Stats.incr t.stats "resolves";
  let components = List.filter (fun c -> c <> "") (String.split_on_char '/' path) in
  let step acc name =
    let* current = acc in
    let* _obj, dir = verify t current ~need:Amoeba_cap.Rights.read in
    newest dir name
  in
  List.fold_left step (Ok cap) components

let insert_sorted dir binding =
  let rec go = function
    | [] -> [ binding ]
    | b :: rest -> if binding.name < b.name then binding :: b :: rest else b :: go rest
  in
  dir.rows <- go dir.rows

let enter t cap name target =
  charge_cpu t;
  Amoeba_sim.Stats.incr t.stats "enters";
  let* obj, dir = verify t cap ~need:Amoeba_cap.Rights.modify in
  if not (valid_name name) then Error Status.Bad_request
  else if intent_locked t obj name then Error Status.Exists
  else
    match find_binding dir name with
    | Some _ -> Error Status.Exists
    | None ->
      insert_sorted dir { name; versions = [ target ] };
      persist t dir;
      Ok ()

(* The shared body of replace and a committed Txn_replace: bump the
   epoch (waiting out leases), stack the new version, persist, trim. *)
let install_version t dir name target =
  bump_epoch t dir;
  let previous, retained, trimmed =
    match find_binding dir name with
    | None -> (None, [ target ], [])
    | Some b ->
      let stacked = target :: b.versions in
      let rec take n = function
        | [] -> ([], [])
        | v :: rest ->
          if n = 0 then ([], v :: rest)
          else
            let keep, drop = take (n - 1) rest in
            (v :: keep, drop)
      in
      let keep, drop = take t.config.max_versions stacked in
      let previous = match b.versions with v :: _ -> Some v | [] -> None in
      (previous, keep, drop)
  in
  dir.rows <- List.filter (fun b -> b.name <> name) dir.rows;
  insert_sorted dir { name; versions = retained };
  persist t dir;
  List.iter (bullet_delete_quietly t) trimmed;
  previous

let replace t cap name target =
  charge_cpu t;
  Amoeba_sim.Stats.incr t.stats "replaces";
  let* obj, dir = verify t cap ~need:Amoeba_cap.Rights.modify in
  if not (valid_name name) then Error Status.Bad_request
  else if intent_locked t obj name then Error Status.Exists
  else Ok (install_version t dir name target)

let drop_binding t dir name =
  bump_epoch t dir;
  dir.rows <- List.filter (fun b -> b.name <> name) dir.rows;
  persist t dir

let remove_name t cap name =
  charge_cpu t;
  Amoeba_sim.Stats.incr t.stats "removes";
  let* obj, dir = verify t cap ~need:Amoeba_cap.Rights.modify in
  if intent_locked t obj name then Error Status.Exists
  else
    match find_binding dir name with
    | None -> Error Status.Not_found
    | Some _ ->
      drop_binding t dir name;
      Ok ()

let list t cap =
  charge_cpu t;
  let* _obj, dir = verify t cap ~need:Amoeba_cap.Rights.read in
  let newest b = match b.versions with v :: _ -> Some (b.name, v) | [] -> None in
  Ok (List.filter_map newest dir.rows)

let delete_dir t cap =
  charge_cpu t;
  let* obj, dir = verify t cap ~need:Amoeba_cap.Rights.delete in
  if obj = t.root_obj then Error Status.Bad_request
  else if dir.rows <> [] then Error Status.Bad_request
  else if List.exists (fun i -> i.dir_obj = obj) t.intents then Error Status.Exists
  else begin
    (* the dir object disappears, so there is no epoch to bump, but any
       outstanding lease must still drain before the name goes away *)
    wait_out_leases t dir;
    (match dir.file with Some f -> bullet_delete_quietly t f | None -> ());
    Hashtbl.remove t.dirs obj;
    Ok ()
  end

let restrict t cap rights =
  charge_cpu t;
  let* _obj, dir = verify t cap ~need:Amoeba_cap.Rights.none in
  match Amoeba_cap.Sealer.restrict t.sealer ~random:dir.random ~cap ~rights with
  | None -> Error Status.Bad_capability
  | Some narrowed -> Ok narrowed

(* ---- two-phase commit participant ----

   Prepare validates the action and records an intent (the binding
   lock); commit carries the full intent again so an amnesiac replica —
   healed from a checkpoint taken before the prepare — can still apply
   the decision; abort is by transaction id alone and unknown
   transactions answer Ok (presumed abort). *)

let txn_prepare t ~txn cap name op =
  charge_cpu t;
  Amoeba_sim.Stats.incr t.stats "txn_prepares";
  let* obj, dir = verify t cap ~need:Amoeba_cap.Rights.modify in
  if not (valid_name name) then Error Status.Bad_request
  else if intent_locked t obj name then Error Status.Exists
  else
    let* () =
      match op with
      | Txn_enter _ -> (
        match find_binding dir name with Some _ -> Error Status.Exists | None -> Ok ())
      | Txn_replace _ -> Ok ()
      | Txn_remove -> (
        match find_binding dir name with Some _ -> Ok () | None -> Error Status.Not_found)
    in
    t.intents <- t.intents @ [ { txn; dir_obj = obj; iname = name; op } ];
    Ok ()

let note_applied t a =
  let rec take n = function
    | [] -> []
    | x :: rest -> if n = 0 then [] else x :: take (n - 1) rest
  in
  t.applied <- a :: take (applied_window - 1) t.applied

let txn_commit t ~txn cap name op =
  charge_cpu t;
  Amoeba_sim.Stats.incr t.stats "txn_commits";
  let* obj, dir = verify t cap ~need:Amoeba_cap.Rights.modify in
  let a = { a_txn = txn; a_obj = obj; a_name = name } in
  if List.mem a t.applied then Ok () (* coordinator re-send *)
  else begin
    t.intents <-
      List.filter (fun i -> not (i.txn = txn && i.dir_obj = obj && i.iname = name)) t.intents;
    let* () =
      match op with
      | Txn_enter target -> (
        match find_binding dir name with
        | Some { versions = newest :: _; _ } when Cap.equal newest target -> Ok ()
        | Some _ -> Error Status.Exists
        | None ->
          insert_sorted dir { name; versions = [ target ] };
          persist t dir;
          Ok ())
      | Txn_replace target -> (
        match find_binding dir name with
        | Some { versions = newest :: _; _ } when Cap.equal newest target -> Ok ()
        | _ ->
          let (_ : Cap.t option) = install_version t dir name target in
          Ok ())
      | Txn_remove -> (
        match find_binding dir name with
        | None -> Ok ()
        | Some _ ->
          drop_binding t dir name;
          Ok ())
    in
    note_applied t a;
    Ok ()
  end

let txn_abort t ~txn =
  charge_cpu t;
  Amoeba_sim.Stats.incr t.stats "txn_aborts";
  t.intents <- List.filter (fun i -> i.txn <> txn) t.intents;
  Ok ()

let txn_pending t = List.map (fun i -> (i.txn, i.dir_obj, i.iname)) t.intents

let txn_pending_count t = List.length t.intents

let repersist t =
  (* After a cross-store restore the dir files still live on the peer's
     Bullet server; rewrite each through our own store. The old files
     belong to the peer and are left alone (persist only deletes files
     on its own store). *)
  Amoeba_sim.Tbl.sorted_iter Int.compare
    (fun _obj dir ->
      dir.file <- None;
      persist t dir)
    t.dirs

(* ---- checkpoint / restore ---- *)

let checkpoint t =
  charge_cpu t;
  let buf = Buffer.create 256 in
  Codec.add_u32 buf t.next_obj;
  Codec.add_u32 buf t.root_obj;
  Codec.add_u32 buf (Hashtbl.length t.dirs);
  let encode_dir obj dir =
    Codec.add_u32 buf obj;
    Buffer.add_int64_be buf dir.random;
    Codec.add_u32 buf dir.epoch;
    (* the lease horizon is deliberately NOT checkpointed: replica horizons
       can differ by a CPU charge, and checkpoints must be byte-identical
       across the pair. Restore re-arms a conservative horizon instead. *)
    match dir.file with
    | Some cap ->
      Buffer.add_char buf '\001';
      add_cap buf cap
    | None -> Buffer.add_char buf '\000'
  in
  Amoeba_sim.Tbl.sorted_iter Int.compare encode_dir t.dirs;
  (* 2PC state, unlike lease horizons, IS replicated deterministic state:
     a healed replica must still know its in-doubt bindings and already-
     applied decisions. Intents are written in canonical order so both
     replicas' checkpoints stay byte-identical. *)
  let canonical =
    List.sort
      (fun a b ->
        match Int.compare a.txn b.txn with
        | 0 -> (
          match Int.compare a.dir_obj b.dir_obj with
          | 0 -> String.compare a.iname b.iname
          | c -> c)
        | c -> c)
      t.intents
  in
  let add_name name =
    Buffer.add_uint16_be buf (String.length name);
    Buffer.add_string buf name
  in
  Codec.add_u32 buf (List.length canonical);
  List.iter
    (fun i ->
      Codec.add_u32 buf i.txn;
      Codec.add_u32 buf i.dir_obj;
      add_intent_op buf i.op;
      add_name i.iname)
    canonical;
  Codec.add_u32 buf (List.length t.applied);
  List.iter
    (fun a ->
      Codec.add_u32 buf a.a_txn;
      Codec.add_u32 buf a.a_obj;
      add_name a.a_name)
    t.applied;
  match Bullet_core.Client.create t.store ~p_factor (Buffer.to_bytes buf) with
  | fresh ->
    (match t.checkpoint_file with Some old -> bullet_delete_quietly t old | None -> ());
    t.checkpoint_file <- Some fresh;
    Ok fresh
  | exception Status.Error e -> Error e

let restore ?(config = default_config) ?(seed = 0x444952535256L) ?from ~store checkpoint_cap =
  let from = Option.value from ~default:store in
  let restore_dir r t =
    let obj = R.u32 r in
    let random = R.i64 r in
    let epoch = R.u32 r in
    let file = if R.u8 r <> 0 then Some (Cap.of_reader r) else None in
    let rows =
      match file with
      | None -> []
      | Some cap -> decode_rows (Bullet_core.Client.read from cap)
    in
    (* assume the worst about leases granted before the checkpoint: any
       of them could still be live for up to one full lease term *)
    let leases_until = Amoeba_sim.Clock.now t.clock + config.lease_us in
    Hashtbl.replace t.dirs obj { random; rows; file; epoch; leases_until }
  in
  let restore_intent r () =
    let txn = R.u32 r in
    let dir_obj = R.u32 r in
    match read_intent_op r with
    | Ok op -> { txn; dir_obj; iname = read_name r; op }
    | Error _ -> raise (Status.Error Status.Bad_request)
  in
  let restore_applied r () =
    let a_txn = R.u32 r in
    let a_obj = R.u32 r in
    { a_txn; a_obj; a_name = read_name r }
  in
  match Bullet_core.Client.read from checkpoint_cap with
  | exception Status.Error e -> Error e
  | data -> (
    let r = R.of_bytes data in
    let t = empty ~config ~seed ~store in
    t.checkpoint_file <- Some checkpoint_cap;
    try
      t.next_obj <- R.u32 r;
      t.root_obj <- R.u32 r;
      for _ = 1 to R.u32 r do
        restore_dir r t
      done;
      t.intents <- read_list (R.u32 r) (restore_intent r);
      t.applied <- read_list (R.u32 r) (restore_applied r);
      Ok t
    with
    | Status.Error e -> Error e
    | Codec.Truncated -> Error Status.Bad_request)
