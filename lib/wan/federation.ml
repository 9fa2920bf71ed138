module Clock = Amoeba_sim.Clock
module Link = Amoeba_rpc.Link
module Server = Bullet_core.Server
module Client = Bullet_core.Client
module Dir = Amoeba_dir.Dir_server
module Dir_client = Amoeba_dir.Dir_client
module Cap = Amoeba_cap.Capability
module Status = Amoeba_rpc.Status

type site = string

exception Unknown_site of site

type site_info = { region : string; server : Server.t }

type t = {
  clock : Clock.t;
  transport : Amoeba_rpc.Transport.t;
  sites : (site, site_info) Hashtbl.t;
  dir : Dir.t;
  home_site : site;
  site_sectors : int;
  attempts : int;
  backoff_us : int;
}

let clock t = t.clock

let transport t = t.transport

let home t = t.home_site

let site_info t name =
  match Hashtbl.find_opt t.sites name with
  | Some info -> info
  | None -> raise (Unknown_site name)

let link_between t a b =
  let ia = site_info t a and ib = site_info t b in
  Link.classify ~same_site:(a = b) ~same_region:(ia.region = ib.region)

(* A Bullet client from one site to another site's server, charged at
   the link between them, and tagged with that link so a fault plan can
   target the line itself. *)
let bullet_client t ~from ~at =
  let info = site_info t at in
  let link = link_between t from at in
  Client.connect ~model:(Link.model link) ~link ~attempts:t.attempts ~backoff_us:t.backoff_us
    t.transport (Server.port info.server)

let dir_client t ~from =
  let link = link_between t from t.home_site in
  Dir_client.connect ~model:(Link.model link) ~link t.transport (Dir.port t.dir)

let boot_site ~clock ~transport ~sites ~sectors ~name ~region =
  if Hashtbl.mem sites name then invalid_arg (Printf.sprintf "Federation: site %s exists" name);
  (* FNV-1a over the site name: stable across compiler versions, unlike
     Hashtbl.hash, so a federation built from the same site names always
     mints the same capabilities. *)
  let seed = Amoeba_sim.Prng.seed_of_string name in
  let server = Server.boot ~seed ~clock ~id:name ~sectors ~max_files:1024 () in
  Bullet_core.Proto.serve server transport;
  Hashtbl.replace sites name { region; server }

let create ?(home_region = "nl") ?(site_sectors = 32_768) ?(attempts = 1) ?(backoff_us = 50_000)
    () =
  let clock = Clock.create () in
  let transport = Amoeba_rpc.Transport.create ~clock in
  let sites = Hashtbl.create 8 in
  (* boot the home site first, then the directory service on top of it *)
  boot_site ~clock ~transport ~sites ~sectors:site_sectors ~name:"home" ~region:home_region;
  let home_bullet = Client.connect transport (Server.port (Hashtbl.find sites "home").server) in
  let dir = Dir.create ~store:home_bullet () in
  Amoeba_dir.Dir_proto.serve dir transport;
  { clock; transport; sites; dir; home_site = "home"; site_sectors; attempts; backoff_us }

let add_site t ~name ~region =
  boot_site ~clock:t.clock ~transport:t.transport ~sites:t.sites ~sectors:t.site_sectors ~name
    ~region

let sites t = Amoeba_sim.Tbl.sorted_keys String.compare t.sites

let bullet_port t site = Server.port (site_info t site).server

(* ---- replica descriptors ---- *)

let encode_descriptor replicas =
  let buf = Buffer.create 64 in
  Buffer.add_char buf (Char.chr (List.length replicas));
  let add (site, cap) =
    Buffer.add_char buf (Char.chr (String.length site));
    Buffer.add_string buf site;
    Buffer.add_bytes buf (Cap.to_bytes cap)
  in
  List.iter add replicas;
  Buffer.to_bytes buf

let decode_descriptor data =
  let count = Char.code (Bytes.get data 0) in
  let pos = ref 1 in
  let read_one () =
    let len = Char.code (Bytes.get data !pos) in
    let site = Bytes.sub_string data (!pos + 1) len in
    let cap = Cap.read data (!pos + 1 + len) in
    pos := !pos + 1 + len + Cap.wire_size;
    (site, cap)
  in
  let rec go n = if n = 0 then [] else let r = read_one () in r :: go (n - 1) in
  go count

(* ---- operations ---- *)

let publish t ~from ~name ?(replicate_to = []) data =
  let (_ : site_info) = site_info t from in
  (* primary copy at the publisher's site *)
  let primary = Client.create (bullet_client t ~from ~at:from) data in
  (* extra replicas: the contents cross the link to each remote server *)
  let replicate at =
    if at = from then None
    else begin
      let (_ : site_info) = site_info t at in
      Some (at, Client.create (bullet_client t ~from ~at) data)
    end
  in
  let replicas = (from, primary) :: List.filter_map replicate replicate_to in
  (* the descriptor lives at the home site, named in the global space *)
  let descriptor_cap =
    Client.create (bullet_client t ~from ~at:t.home_site) (encode_descriptor replicas)
  in
  let dirs = dir_client t ~from in
  let root = Dir_client.get_root dirs in
  (match Dir_client.replace dirs root name descriptor_cap with
  | Some old -> (
    (* the name was rebound; drop the old descriptor (its replicas are
       the old version's problem - immutable files stay valid) *)
    try Client.delete (bullet_client t ~from:t.home_site ~at:t.home_site) old
    with Status.Error _ -> ())
  | None -> ());
  descriptor_cap

let descriptor_of t ~from name =
  let dirs = dir_client t ~from in
  let root = Dir_client.get_root dirs in
  let descriptor_cap = Dir_client.lookup dirs root name in
  let raw = Client.read (bullet_client t ~from ~at:t.home_site) descriptor_cap in
  (descriptor_cap, decode_descriptor raw)

(* Generic replica ranking: closest link class first, then the live
   load hint, then the site name so equal candidates break the same way
   everywhere. [load] defaults to "no hint" — pure link distance. *)
let rank_replicas ?(load = fun (_ : site) -> 0) ~link_to replicas =
  let weight (site, _) =
    let cls = match link_to site with Link.Local -> 0 | Link.Regional -> 1 | Link.Wide -> 2 in
    (cls, load site, site)
  in
  let cmp a b =
    let ca, la, sa = weight a and cb, lb, sb = weight b in
    match Int.compare ca cb with
    | 0 -> ( match Int.compare la lb with 0 -> String.compare sa sb | c -> c)
    | c -> c
  in
  List.sort cmp replicas

let pick_replica ?load ~link_to replicas =
  match rank_replicas ?load ~link_to replicas with
  | best :: _ -> best
  | [] -> failwith "empty replica descriptor"

let pick_closest t ~from replicas =
  pick_replica ~link_to:(fun site -> link_between t from site) replicas

let fetch t ~from name =
  let _desc, replicas = descriptor_of t ~from name in
  let site, cap = pick_closest t ~from replicas in
  (Client.read (bullet_client t ~from ~at:site) cap, site)

let fetch_from_replica t ~from name ~replica =
  let _desc, replicas = descriptor_of t ~from name in
  match List.assoc_opt replica replicas with
  | None -> raise (Unknown_site replica)
  | Some cap -> Client.read (bullet_client t ~from ~at:replica) cap

let replica_sites t name =
  let _desc, replicas = descriptor_of t ~from:t.home_site name in
  List.map fst replicas

let unpublish t name =
  let descriptor_cap, replicas = descriptor_of t ~from:t.home_site name in
  let delete_replica (site, cap) =
    try Client.delete (bullet_client t ~from:t.home_site ~at:site) cap with Status.Error _ -> ()
  in
  List.iter delete_replica replicas;
  (try Client.delete (bullet_client t ~from:t.home_site ~at:t.home_site) descriptor_cap
   with Status.Error _ -> ());
  let dirs = dir_client t ~from:t.home_site in
  Dir_client.remove_name dirs (Dir_client.get_root dirs) name
