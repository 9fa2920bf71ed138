module Clock = Amoeba_sim.Clock
module Prng = Amoeba_sim.Prng
module Stats = Amoeba_sim.Stats
module Tbl = Amoeba_sim.Tbl
module Cap = Amoeba_cap.Capability
module Server = Bullet_core.Server
module Client = Bullet_core.Client
module Link = Amoeba_rpc.Link
module Federation = Amoeba_wan.Federation
module Metrics = Amoeba_metrics.Metrics
module Trace = Amoeba_trace.Trace
module Sink = Amoeba_trace.Sink
module Dirty = Amoeba_disk.Dirty

let shards = 64

let replicas = 2

let server_sectors = 4096

let max_files = 255

(* object copies per rebalance step *)
let migrate_batch = 4

(* virtual µs between load-hint refreshes *)
let route_refresh_us = 50_000

(* runaway guard on a full rebalance *)
let max_steps = 10_000

type node_status = Alive | Retired | Dead

type node = {
  name : string;
  region : string;
  server : Server.t;
  mutable status : node_status;
  mutable load_hint : int; (* server reads at the last hint refresh *)
  mutable routed_since : int; (* reads we routed there since the refresh *)
}

type entry = { mutable holds : (string * Cap.t) list (* sorted by server name *) }

type t = {
  clock : Clock.t;
  transport : Amoeba_rpc.Transport.t;
  nodes : (string, node) Hashtbl.t;
  mutable ring : Ring.t;
  dirty : Dirty.t; (* one bit per shard *)
  mutable draining : int option; (* the shard the last rebalance step took *)
  directory : (string, entry) Hashtbl.t;
  clients : (string, Client.t) Hashtbl.t; (* keyed "<from>->'<server>" *)
  stats : Stats.t;
  mutable tracer : Trace.ctx option;
  mutable last_hint_us : int;
  mutable hinted_once : bool;
}

exception Unknown_server of string

let create () =
  let clock = Clock.create () in
  {
    clock;
    transport = Amoeba_rpc.Transport.create ~clock;
    nodes = Hashtbl.create 8;
    ring = Ring.empty;
    dirty = Dirty.create ~sectors:shards;
    draining = None;
    directory = Hashtbl.create 64;
    clients = Hashtbl.create 16;
    stats = Stats.create "cluster";
    tracer = None;
    last_hint_us = 0;
    hinted_once = false;
  }

let clock t = t.clock

let transport t = t.transport

let node t name =
  match Hashtbl.find_opt t.nodes name with
  | Some n -> n
  | None -> raise (Unknown_server name)

let status_label = function Alive -> "alive" | Retired -> "retired" | Dead -> "dead"

let servers t =
  List.map
    (fun (name, n) -> (name, n.region, status_label n.status))
    (Tbl.sorted_bindings String.compare t.nodes)

let live_servers t = Ring.members t.ring

let server t name = (node t name).server

let server_mirror t name = Server.mirror (node t name).server

(* ---- placement ---- *)

let shard_key i = Printf.sprintf "shard-%03d" i

let shard_of key = Int64.to_int (Int64.unsigned_rem (Ring.position_of key) (Int64.of_int shards))

let ring t = t.ring

let desired_of_shard t s = Ring.owners t.ring ~r:replicas (shard_key s)

let desired t key = desired_of_shard t (shard_of key)

let entry t key =
  match Hashtbl.find_opt t.directory key with Some e -> e | None -> raise Not_found

let holders t key = List.map fst (entry t key).holds

let mem t key = Hashtbl.mem t.directory key

let keys t = Tbl.sorted_keys String.compare t.directory

let objects_total t = Hashtbl.length t.directory

(* ---- clients ---- *)

(* A reader in region [from] talking to [n]'s server: same region is a
   Regional hop, anything else crosses the Wide line. (A station is
   never on a server's own segment, so Local never applies here —
   server-local work is charged by the server itself.) *)
let link_to t ~from name =
  let n = node t name in
  Link.classify ~same_site:false ~same_region:(String.equal from n.region)

let client_for t ~from name =
  let id = from ^ "->" ^ name in
  match Hashtbl.find_opt t.clients id with
  | Some c -> c
  | None ->
    let n = node t name in
    let link = link_to t ~from name in
    let c = Client.connect ~model:(Link.model link) ~link t.transport (Server.port n.server) in
    Hashtbl.replace t.clients id c;
    c

(* ---- membership ---- *)

(* Mark every shard whose desired group changes across [before -> after]:
   the ring delta is by construction exactly the set of groups a
   membership change disturbs, so the rebalancer never touches anything
   else. *)
let mark_delta t ~before ~after =
  for i = 0 to shards - 1 do
    let k = shard_key i in
    if Ring.owners before ~r:replicas k <> Ring.owners after ~r:replicas k then
      Dirty.mark t.dirty ~sector:i ~count:1
  done

let valid_name name =
  name <> ""
  && String.for_all (fun c -> c <> ' ' && c <> '\t' && c <> '\n' && c <> '=') name

let add_server t ~name ~region =
  if not (valid_name name) then invalid_arg "Cluster.add_server: bad server name";
  if not (valid_name region) then invalid_arg "Cluster.add_server: bad region name";
  if Hashtbl.mem t.nodes name then
    invalid_arg (Printf.sprintf "Cluster.add_server: server %s exists" name);
  (* FNV-1a over the server name, as the federation does for sites: the
     same cluster build always mints the same capabilities. *)
  let seed = Prng.seed_of_string name in
  let server =
    Server.boot ~seed ~clock:t.clock ~id:name ~sectors:server_sectors ~max_files ()
  in
  Bullet_core.Proto.serve server t.transport;
  Hashtbl.replace t.nodes name
    { name; region; server; status = Alive; load_hint = 0; routed_since = 0 };
  let before = t.ring in
  t.ring <- Ring.add t.ring name;
  mark_delta t ~before ~after:t.ring;
  Stats.incr t.stats "server_joins"

let kill_server t name =
  let n = node t name in
  if n.status = Dead then raise (Unknown_server name);
  n.status <- Dead;
  Amoeba_rpc.Transport.unregister t.transport (Server.port n.server);
  Server.crash n.server;
  (* its replicas are gone for good: drop them from every entry so the
     directory only ever lists reachable copies *)
  List.iter
    (fun (_key, e) -> e.holds <- List.filter (fun (srv, _) -> srv <> name) e.holds)
    (Tbl.sorted_bindings String.compare t.directory);
  if Ring.mem t.ring name then begin
    let before = t.ring in
    t.ring <- Ring.remove t.ring name;
    mark_delta t ~before ~after:t.ring
  end;
  Stats.incr t.stats "server_kills"

let remove_server t name =
  let n = node t name in
  if n.status <> Alive then raise (Unknown_server name);
  if not (Ring.mem t.ring name) then raise (Unknown_server name);
  n.status <- Retired;
  let before = t.ring in
  t.ring <- Ring.remove t.ring name;
  mark_delta t ~before ~after:t.ring;
  Stats.incr t.stats "server_leaves"

(* ---- load hints ---- *)

let node_reads n =
  let snap = Metrics.scrape (Server.metrics n.server) ~at_us:0 in
  match Metrics.find snap "server.read_us" with
  | Some v -> Metrics.value_int v
  | None -> 0

(* Refresh the per-server hints from live metrics snapshots every
   [route_refresh_us] of virtual time; between refreshes the router adds
   its own routed count on top, so a burst of reads still spreads over
   equal-distance replicas deterministically. *)
let refresh_hints t =
  let now = Clock.now t.clock in
  if (not t.hinted_once) || now - t.last_hint_us >= route_refresh_us then begin
    t.hinted_once <- true;
    t.last_hint_us <- now;
    List.iter
      (fun (_, n) ->
        if n.status <> Dead then begin
          n.load_hint <- node_reads n;
          n.routed_since <- 0
        end)
      (Tbl.sorted_bindings String.compare t.nodes);
    Stats.incr t.stats "hint_refreshes"
  end

let load_of t name =
  let n = node t name in
  n.load_hint + n.routed_since

(* ---- objects ---- *)

let valid_key key =
  key <> ""
  && String.for_all (fun c -> c <> ' ' && c <> '\t' && c <> '\n' && c <> '=') key

let put t ?(from = "client") ~key data =
  if not (valid_key key) then invalid_arg "Cluster.put: bad key";
  if Hashtbl.mem t.directory key then
    invalid_arg (Printf.sprintf "Cluster.put: key %s exists" key);
  match desired t key with
  | [] -> failwith "Cluster.put: no servers"
  | group ->
    let create srv = (srv, Client.create (client_for t ~from srv) data) in
    let holds = List.sort (fun (a, _) (b, _) -> String.compare a b) (List.map create group) in
    Hashtbl.replace t.directory key { holds }

let alive t srv = (node t srv).status <> Dead

let rank t ~from candidates =
  Federation.rank_replicas
    ~load:(fun srv -> load_of t srv)
    ~link_to:(fun srv -> link_to t ~from srv)
    candidates

(* Copy one replica to [target], reading off the nearest live holder as
   seen from the target's region — the charged server-to-server leg —
   then creating locally at the target. The injector fires scripted
   events at RPC delivery points, so either end can die mid-copy: a
   source that dies under us fails over to the next-ranked holder, a
   target that dies aborts the copy (the kill re-marked every shard
   whose group it changed, so the drain revisits this object with fresh
   membership). Returns whether the copy landed. *)
let copy_to t ~key ~e ~target =
  let tn = node t target in
  let rec read_from = function
    | [] -> None
    | (src, src_cap) :: rest -> (
      match Client.read (client_for t ~from:tn.region src) src_cap with
      | data -> Some (src, data)
      | exception Amoeba_rpc.Status.Error _ when not (alive t src) -> read_from rest)
  in
  let do_copy () =
    if not (alive t target) then None
    else
      match read_from (rank t ~from:tn.region (List.filter (fun (srv, _) -> alive t srv) e.holds)) with
      | None -> None
      | Some (src, data) -> (
        match Client.create (client_for t ~from:tn.region target) data with
        | cap ->
          e.holds <-
            List.sort (fun (a, _) (b, _) -> String.compare a b) ((target, cap) :: e.holds);
          Some src
        | exception Amoeba_rpc.Status.Error _ when not (alive t target) -> None)
  in
  let outcome =
    match t.tracer with
    | None -> do_copy ()
    | Some tr ->
      Trace.in_span tr ~layer:Sink.Server ~name:"cluster.migrate" (fun () ->
          match do_copy () with
          | None -> None
          | Some src ->
            Trace.event tr ~layer:Sink.Server ~name:"cluster.migrate.copied"
              [ ("key", Sink.S key); ("from", Sink.S src); ("to", Sink.S target);
                ("shard", Sink.I (shard_of key)) ];
            Some src)
  in
  match outcome with
  | None -> false
  | Some _ ->
    Stats.incr t.stats "migrated_objects";
    true

let get t ?(from = "client") key =
  let e = entry t key in
  refresh_hints t;
  (* a replica that dies mid-read (scripted kills fire at delivery
     points) is skipped and the read fails over down the ranking; when
     every candidate died under us, recompute against the shrunk live
     set *)
  let rec attempt () =
    let live = List.filter (fun (srv, _) -> alive t srv) e.holds in
    if live = [] then failwith (Printf.sprintf "Cluster.get: no live replica for %s" key);
    let group = desired t key in
    let preferred = List.filter (fun (srv, _) -> List.mem srv group) live in
    let fallthrough = preferred = [] in
    let rec try_ranked = function
      | [] -> attempt ()
      | (srv, cap) :: rest -> (
        match Client.read (client_for t ~from srv) cap with
        | data -> (srv, fallthrough, data)
        | exception Amoeba_rpc.Status.Error _ when not (alive t srv) -> try_ranked rest)
    in
    try_ranked (rank t ~from (if fallthrough then live else preferred))
  in
  let srv, fallthrough, data = attempt () in
  let n = node t srv in
  n.routed_since <- n.routed_since + 1;
  Stats.incr t.stats "routed_reads";
  (match t.tracer with
  | None -> ()
  | Some tr ->
    Trace.event tr ~layer:Sink.Client ~name:"cluster.route"
      [ ("key", Sink.S key); ("server", Sink.S srv);
        ("link", Sink.S (Link.to_string (link_to t ~from srv)));
        ("fallthrough", Sink.I (if fallthrough then 1 else 0)) ]);
  if fallthrough then begin
    Stats.incr t.stats "fallthroughs";
    (* read-repair one missing desired copy off the measured path, the
       mirror's fall-through discipline one level up: serving traffic
       shrinks the migration backlog instead of waiting behind it *)
    match
      List.filter
        (fun srv -> alive t srv && not (List.mem_assoc srv e.holds))
        (desired t key)
    with
    | [] -> ()
    | target :: _ ->
      if Clock.unobserved t.clock (fun () -> copy_to t ~key ~e ~target) then
        Stats.incr t.stats "read_repairs"
  end;
  data

let delete t ?(from = "client") key =
  let e = entry t key in
  List.iter
    (fun (srv, cap) ->
      if alive t srv then
        try Client.delete (client_for t ~from srv) cap with Amoeba_rpc.Status.Error _ -> ())
    e.holds;
  Hashtbl.remove t.directory key

(* ---- rebalancing ---- *)

let shards_remaining t = Dirty.remaining t.dirty

let rebalancing t = shards_remaining t > 0

let shard_entries t s =
  List.filter (fun (key, _) -> shard_of key = s) (Tbl.sorted_bindings String.compare t.directory)

(* The shard the last step took comes first while it is still dirty, so
   an interrupted drain resumes there; otherwise the bitmap's circular
   scan picks the next one (its cursor has already moved past it). *)
let next_shard t =
  match t.draining with
  | Some s when Dirty.is_dirty t.dirty ~sector:s ~count:1 -> Some s
  | Some _ | None -> Option.map fst (Dirty.next_run t.dirty ~limit:1)

let rebalance_step t =
  match next_shard t with
  | None -> 0
  | Some s ->
    t.draining <- Some s;
    let group = desired_of_shard t s in
    let copied = ref 0 in
    let complete = ref true in
    let entries = shard_entries t s in
    List.iter
      (fun (key, e) ->
        if !complete then
          List.iter
            (fun target ->
              if not (List.mem_assoc target e.holds) then
                if !copied >= migrate_batch then complete := false
                else if copy_to t ~key ~e ~target then incr copied
                else complete := false)
            group)
      entries;
    (* a kill firing mid-step (events trigger at RPC delivery points)
       can change this shard's group under us; leave the bit set and
       drain it against fresh membership next step *)
    if !complete && desired_of_shard t s = group then begin
      (* the shard is wherever the ring wants it: drop surplus copies on
         servers no longer in its group (retired members drain to empty,
         join deltas release the superseded replica) *)
      List.iter
        (fun (_key, e) ->
          let surplus = List.filter (fun (srv, _) -> not (List.mem srv group)) e.holds in
          List.iter
            (fun (srv, cap) ->
              if alive t srv then begin
                let n = node t srv in
                (try Client.delete (client_for t ~from:n.region srv) cap
                 with Amoeba_rpc.Status.Error _ -> ());
                Stats.incr t.stats "surplus_deleted"
              end)
            surplus;
          e.holds <- List.filter (fun (srv, _) -> List.mem srv group) e.holds)
        entries;
      Dirty.clear t.dirty ~sector:s ~count:1;
      Stats.incr t.stats "shards_migrated"
    end;
    !copied

let rebalance t =
  let total = ref 0 in
  let steps = ref 0 in
  while rebalancing t && !steps < max_steps do
    total := !total + rebalance_step t;
    incr steps
  done;
  !total

let under_replicated t =
  let live_count = List.length (Ring.members t.ring) in
  let want = min replicas (max live_count 1) in
  List.filter_map
    (fun (key, e) ->
      let live = List.filter (fun (srv, _) -> alive t srv) e.holds in
      if List.length live < want then Some key else None)
    (Tbl.sorted_bindings String.compare t.directory)

(* ---- introspection ---- *)

let checkpoint t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "# bullet cluster directory v1\n";
  Buffer.add_string buf (Printf.sprintf "shards %d\n" shards);
  Buffer.add_string buf (Printf.sprintf "replicas %d\n" replicas);
  List.iter
    (fun (name, region, status) ->
      Buffer.add_string buf (Printf.sprintf "server %s %s %s\n" name region status))
    (servers t);
  List.iter
    (fun (key, e) ->
      Buffer.add_string buf (Printf.sprintf "object %s" key);
      List.iter
        (fun (srv, cap) -> Buffer.add_string buf (Printf.sprintf " %s=%s" srv (Cap.to_string cap)))
        e.holds;
      Buffer.add_char buf '\n')
    (Tbl.sorted_bindings String.compare t.directory);
  Buffer.contents buf

type checkpoint_info = {
  ck_shards : int;
  ck_replicas : int;
  ck_servers : (string * string * string) list;
  ck_objects : (string * (string * Cap.t) list) list;
}

let parse_checkpoint text =
  let err lineno msg = Error (Printf.sprintf "checkpoint line %d: %s" lineno msg) in
  let parse_holder lineno w k =
    match String.index_opt w '=' with
    | None -> err lineno (Printf.sprintf "malformed holder %S" w)
    | Some i -> (
      let srv = String.sub w 0 i in
      let cap_s = String.sub w (i + 1) (String.length w - i - 1) in
      match Cap.of_string cap_s with
      | cap -> k (srv, cap)
      | exception Invalid_argument _ -> err lineno (Printf.sprintf "malformed capability %S" cap_s))
  in
  let rec holders lineno ws acc k =
    match ws with
    | [] -> k (List.rev acc)
    | w :: rest -> parse_holder lineno w @@ fun h -> holders lineno rest (h :: acc) k
  in
  let rec go info lineno = function
    | [] -> Ok { info with ck_objects = List.rev info.ck_objects }
    | line :: rest -> (
      let next info = go info (lineno + 1) rest in
      let words =
        List.filter (fun w -> w <> "") (String.split_on_char ' ' (String.trim line))
      in
      match words with
      | [] -> next info
      | w :: _ when String.length w > 0 && w.[0] = '#' -> next info
      | [ "shards"; n ] -> (
        match int_of_string_opt n with
        | Some n when n > 0 -> next { info with ck_shards = n }
        | _ -> err lineno (Printf.sprintf "bad shard count %S" n))
      | [ "replicas"; n ] -> (
        match int_of_string_opt n with
        | Some n when n > 0 -> next { info with ck_replicas = n }
        | _ -> err lineno (Printf.sprintf "bad replica count %S" n))
      | [ "server"; name; region; status ] ->
        if List.mem status [ "alive"; "retired"; "dead" ] then
          next { info with ck_servers = info.ck_servers @ [ (name, region, status) ] }
        else err lineno (Printf.sprintf "bad server status %S" status)
      | "object" :: key :: hs ->
        holders lineno hs [] @@ fun holds ->
        next { info with ck_objects = (key, holds) :: info.ck_objects }
      | w :: _ -> err lineno (Printf.sprintf "unknown directive %S" w))
  in
  go
    { ck_shards = 0; ck_replicas = 0; ck_servers = []; ck_objects = [] }
    1
    (String.split_on_char '\n' text)

let stats t = t.stats

let register_metrics t reg =
  Metrics.gauge reg "cluster.objects_total" (fun () -> objects_total t);
  Metrics.gauge reg "cluster.under_replicated" (fun () -> List.length (under_replicated t));
  Metrics.gauge reg "cluster.migrations_active" (fun () -> if rebalancing t then 1 else 0);
  Metrics.gauge reg "cluster.shards_remaining" (fun () -> shards_remaining t);
  Metrics.gauge reg "cluster.servers_live" (fun () -> List.length (live_servers t));
  Metrics.stats_source reg ~prefix:"cluster" t.stats

let set_tracer t tr = t.tracer <- tr
