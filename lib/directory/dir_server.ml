module Status = Amoeba_rpc.Status
module Cap = Amoeba_cap.Capability

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

let add_u16 buf v =
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr (v land 0xff))

let add_u32 buf v =
  for i = 3 downto 0 do
    Buffer.add_char buf (Char.chr ((v lsr (8 * i)) land 0xff))
  done

let add_u64 buf v =
  for i = 7 downto 0 do
    Buffer.add_char buf (Char.chr (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xff))
  done

let add_cap buf cap =
  let raw = Cap.to_bytes cap in
  Buffer.add_bytes buf raw

type reader = { data : bytes; mutable pos : int }

let read_u16 r =
  let v = (Char.code (Bytes.get r.data r.pos) lsl 8) lor Char.code (Bytes.get r.data (r.pos + 1)) in
  r.pos <- r.pos + 2;
  v

let read_u32 r =
  let v = ref 0 in
  for _ = 1 to 4 do
    v := (!v lsl 8) lor Char.code (Bytes.get r.data r.pos);
    r.pos <- r.pos + 1
  done;
  !v

let read_u64 r =
  let v = ref 0L in
  for _ = 1 to 8 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code (Bytes.get r.data r.pos)));
    r.pos <- r.pos + 1
  done;
  !v

let read_cap r =
  let cap = Cap.read r.data r.pos in
  r.pos <- r.pos + Cap.wire_size;
  cap

let encode_rows rows =
  let buf = Buffer.create 256 in
  add_u32 buf (List.length rows);
  let encode_binding b =
    add_u16 buf (String.length b.name);
    Buffer.add_string buf b.name;
    add_u16 buf (List.length b.versions);
    List.iter (add_cap buf) b.versions
  in
  List.iter encode_binding rows;
  Buffer.to_bytes buf

let decode_rows data =
  let r = { data; pos = 0 } in
  let count = read_u32 r in
  let decode_binding () =
    let len = read_u16 r in
    let name = Bytes.sub_string r.data r.pos len in
    r.pos <- r.pos + len;
    let nvers = read_u16 r in
    (* explicit recursion: the reader is stateful, order matters *)
    let rec caps n = if n = 0 then [] else let c = read_cap r in c :: caps (n - 1) in
    { name; versions = caps nvers }
  in
  let rec bindings n = if n = 0 then [] else let b = decode_binding () in b :: bindings (n - 1) in
  bindings count

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

let create ?(config = default_config) ?(seed = 0x444952535256L) ~store () =
  let t =
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
  in
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
  match find_binding dir name with
  | Some { versions = newest :: _; _ } -> Ok newest
  | Some { versions = []; _ } | None -> Error Status.Not_found

let lookup_lease t cap name =
  charge_cpu t;
  Amoeba_sim.Stats.incr t.stats "lookup_leases";
  let* _obj, dir = verify t cap ~need:Amoeba_cap.Rights.read in
  match find_binding dir name with
  | Some { versions = newest :: _; _ } ->
    grant_lease t dir;
    Ok (newest, dir.epoch, t.config.lease_us)
  | Some { versions = []; _ } | None -> Error Status.Not_found

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
    match find_binding dir name with
    | Some { versions = newest :: _; _ } -> Ok newest
    | Some { versions = []; _ } | None -> Error Status.Not_found
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
  if name = "" then Error Status.Bad_request
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
  if name = "" then Error Status.Bad_request
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
  if name = "" then Error Status.Bad_request
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
  add_u32 buf t.next_obj;
  add_u32 buf t.root_obj;
  add_u32 buf (Hashtbl.length t.dirs);
  let encode_dir obj dir =
    add_u32 buf obj;
    add_u64 buf dir.random;
    add_u32 buf dir.epoch;
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
  add_u32 buf (List.length canonical);
  List.iter
    (fun i ->
      add_u32 buf i.txn;
      add_u32 buf i.dir_obj;
      (match i.op with
      | Txn_enter cap ->
        Buffer.add_char buf '\000';
        add_cap buf cap
      | Txn_replace cap ->
        Buffer.add_char buf '\001';
        add_cap buf cap
      | Txn_remove -> Buffer.add_char buf '\002');
      add_u16 buf (String.length i.iname);
      Buffer.add_string buf i.iname)
    canonical;
  add_u32 buf (List.length t.applied);
  List.iter
    (fun a ->
      add_u32 buf a.a_txn;
      add_u32 buf a.a_obj;
      add_u16 buf (String.length a.a_name);
      Buffer.add_string buf a.a_name)
    t.applied;
  match Bullet_core.Client.create t.store ~p_factor (Buffer.to_bytes buf) with
  | fresh ->
    (match t.checkpoint_file with Some old -> bullet_delete_quietly t old | None -> ());
    t.checkpoint_file <- Some fresh;
    Ok fresh
  | exception Status.Error e -> Error e

let restore ?(config = default_config) ?(seed = 0x444952535256L) ?from ~store checkpoint_cap =
  let from = Option.value from ~default:store in
  match Bullet_core.Client.read from checkpoint_cap with
  | exception Status.Error e -> Error e
  | data ->
    let r = { data; pos = 0 } in
    let next_obj = read_u32 r in
    let root_obj = read_u32 r in
    let count = read_u32 r in
    let t =
      {
        config;
        store;
        sealer = Amoeba_cap.Sealer.of_passphrase (Printf.sprintf "dir-%Ld" seed);
        seed;
        service_port = Amoeba_cap.Port.random (Amoeba_sim.Prng.create ~seed:(Int64.add seed 7L));
        clock = Amoeba_rpc.Transport.clock (Bullet_core.Client.transport store);
        dirs = Hashtbl.create 64;
        stats = Amoeba_sim.Stats.create "directory";
        next_obj;
        root_obj;
        checkpoint_file = Some checkpoint_cap;
        intents = [];
        applied = [];
      }
    in
    let restore_dir () =
      let obj = read_u32 r in
      let random = read_u64 r in
      let epoch = read_u32 r in
      let has_file = Bytes.get r.data r.pos <> '\000' in
      r.pos <- r.pos + 1;
      let file = if has_file then Some (read_cap r) else None in
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
    let read_name () =
      let len = read_u16 r in
      let name = Bytes.sub_string r.data r.pos len in
      r.pos <- r.pos + len;
      name
    in
    let restore_intent () =
      let txn = read_u32 r in
      let dir_obj = read_u32 r in
      let tag = Bytes.get r.data r.pos in
      r.pos <- r.pos + 1;
      let op =
        match tag with
        | '\000' -> Txn_enter (read_cap r)
        | '\001' -> Txn_replace (read_cap r)
        | _ -> Txn_remove
      in
      { txn; dir_obj; iname = read_name (); op }
    in
    let restore_applied () =
      let a_txn = read_u32 r in
      let a_obj = read_u32 r in
      { a_txn; a_obj; a_name = read_name () }
    in
    (try
       for _ = 1 to count do
         restore_dir ()
       done;
       let n_intents = read_u32 r in
       for _ = 1 to n_intents do
         t.intents <- t.intents @ [ restore_intent () ]
       done;
       let n_applied = read_u32 r in
       let applied = ref [] in
       for _ = 1 to n_applied do
         applied := restore_applied () :: !applied
       done;
       t.applied <- List.rev !applied;
       Ok t
     with Status.Error e -> Error e)
