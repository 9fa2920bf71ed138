module Status = Amoeba_rpc.Status
module Cap = Amoeba_cap.Capability

type config = { segment_bytes : int }

let default_config = { segment_bytes = 64 * 1024 }

(* Per-request CPU: 800 µs. *)
let cpu_request_us = 800

(* Paranoia factor for segment writes: 1. *)
let p_factor = 1

type log = {
  random : int64;
  mutable sealed : (Cap.t * int) list; (* (segment, length), oldest first *)
  mutable tail : Buffer.t;
}

type t = {
  config : config;
  store : Bullet_core.Client.t;
  sealer : Amoeba_cap.Sealer.t;
  prng : Amoeba_sim.Prng.t;
  service_port : Amoeba_cap.Port.t;
  clock : Amoeba_sim.Clock.t;
  logs : (int, log) Hashtbl.t;
  stats : Amoeba_sim.Stats.t;
  mutable next_obj : int;
}

let create ?(config = default_config) ?(seed = 0x4C4F475356L) ~store () =
  {
    config;
    store;
    sealer = Amoeba_cap.Sealer.of_passphrase (Printf.sprintf "log-%Ld" seed);
    prng = Amoeba_sim.Prng.create ~seed;
    service_port = Amoeba_cap.Port.random (Amoeba_sim.Prng.create ~seed:(Int64.add seed 7L));
    clock = Amoeba_rpc.Transport.clock (Bullet_core.Client.transport store);
    logs = Hashtbl.create 16;
    stats = Amoeba_sim.Stats.create "logsrv";
    next_obj = 1;
  }

let port t = t.service_port

let stats t = t.stats

let charge_cpu t = Amoeba_sim.Clock.advance t.clock cpu_request_us

let create_log t =
  charge_cpu t;
  Amoeba_sim.Stats.incr t.stats "create_log";
  let obj = t.next_obj in
  t.next_obj <- obj + 1;
  let random = Amoeba_cap.Sealer.fresh_random t.sealer t.prng in
  Hashtbl.replace t.logs obj { random; sealed = []; tail = Buffer.create 256 };
  let rights = Amoeba_cap.Rights.all in
  Cap.v ~port:t.service_port ~obj ~rights
    ~check:(Amoeba_cap.Sealer.seal t.sealer ~random ~rights)

let verify t cap ~need =
  if not (Amoeba_cap.Port.equal cap.Cap.port t.service_port) then Error Status.No_such_object
  else
    match Hashtbl.find_opt t.logs cap.Cap.obj with
    | None -> Error Status.No_such_object
    | Some log ->
      if not (Amoeba_cap.Sealer.verify t.sealer ~random:log.random ~cap) then
        Error Status.Bad_capability
      else if not (Amoeba_cap.Rights.subset need cap.Cap.rights) then Error Status.Bad_capability
      else Ok log

let ( let* ) = Result.bind

let seal_tail t log =
  if Buffer.length log.tail > 0 then begin
    let data = Buffer.to_bytes log.tail in
    let segment = Bullet_core.Client.create t.store ~p_factor data in
    log.sealed <- log.sealed @ [ (segment, Bytes.length data) ];
    Buffer.clear log.tail;
    Amoeba_sim.Stats.incr t.stats "segments_sealed"
  end

let append t cap data =
  charge_cpu t;
  Amoeba_sim.Stats.incr t.stats "appends";
  let* log = verify t cap ~need:Amoeba_cap.Rights.modify in
  Buffer.add_bytes log.tail data;
  if Buffer.length log.tail >= t.config.segment_bytes then seal_tail t log;
  let sealed_len = List.fold_left (fun acc (_, n) -> acc + n) 0 log.sealed in
  Ok (sealed_len + Buffer.length log.tail)

let sync t cap =
  charge_cpu t;
  let* log = verify t cap ~need:Amoeba_cap.Rights.modify in
  seal_tail t log;
  Ok ()

let length t cap =
  charge_cpu t;
  let* log = verify t cap ~need:Amoeba_cap.Rights.read in
  let sealed_len = List.fold_left (fun acc (_, n) -> acc + n) 0 log.sealed in
  Ok (sealed_len + Buffer.length log.tail)

let durable_length t cap =
  charge_cpu t;
  let* log = verify t cap ~need:Amoeba_cap.Rights.read in
  Ok (List.fold_left (fun acc (_, n) -> acc + n) 0 log.sealed)

let read_log t cap =
  charge_cpu t;
  Amoeba_sim.Stats.incr t.stats "reads";
  let* log = verify t cap ~need:Amoeba_cap.Rights.read in
  let buf = Buffer.create 1024 in
  match
    List.iter
      (fun (segment, _) -> Buffer.add_bytes buf (Bullet_core.Client.read t.store segment))
      log.sealed
  with
  | () ->
    Buffer.add_buffer buf log.tail;
    Ok (Buffer.to_bytes buf)
  | exception Status.Error e -> Error e

let segments t cap =
  charge_cpu t;
  let* log = verify t cap ~need:Amoeba_cap.Rights.read in
  Ok (List.map fst log.sealed)

let compact_log t cap =
  charge_cpu t;
  Amoeba_sim.Stats.incr t.stats "compactions";
  let* log = verify t cap ~need:Amoeba_cap.Rights.modify in
  seal_tail t log;
  match log.sealed with
  | [] | [ _ ] -> Ok ()
  | pieces -> (
    let buf = Buffer.create 1024 in
    match
      List.iter
        (fun (segment, _) -> Buffer.add_bytes buf (Bullet_core.Client.read t.store segment))
        pieces
    with
    | exception Status.Error e -> Error e
    | () -> (
      let merged = Buffer.to_bytes buf in
      match Bullet_core.Client.create t.store ~p_factor merged with
      | exception Status.Error e -> Error e
      | fresh ->
        let delete_quietly (segment, _) =
          try Bullet_core.Client.delete t.store segment with Status.Error _ -> ()
        in
        List.iter delete_quietly pieces;
        log.sealed <- [ (fresh, Bytes.length merged) ];
        Ok ()))

let delete_log t cap =
  charge_cpu t;
  let* log = verify t cap ~need:Amoeba_cap.Rights.delete in
  let delete_quietly (segment, _) =
    try Bullet_core.Client.delete t.store segment with Status.Error _ -> ()
  in
  List.iter delete_quietly log.sealed;
  Hashtbl.remove t.logs cap.Cap.obj;
  Ok ()

let crash t =
  (* lint: allow no-hashtbl-iteration clearing every tail is order-independent *)
  Hashtbl.iter (fun _ log -> Buffer.clear log.tail) t.logs;
  Amoeba_sim.Stats.incr t.stats "crashes"
