module Clock = Amoeba_sim.Clock
module Prng = Amoeba_sim.Prng
module Geometry = Amoeba_disk.Geometry
module Dev = Amoeba_disk.Block_device
module Mirror = Amoeba_disk.Mirror
module Server = Bullet_core.Server
module Client = Bullet_core.Client
module Nfs = Nfs_baseline.Nfs_server
module Nfs_client = Nfs_baseline.Nfs_client
module Status = Amoeba_rpc.Status
module Transport = Amoeba_rpc.Transport
module Link = Amoeba_rpc.Link
module Plan = Amoeba_fault.Plan
module Injector = Amoeba_fault.Injector
module Backoff = Amoeba_fault.Backoff
module Sched = Amoeba_sched.Sched
module Federation = Amoeba_wan.Federation
module Dir_server = Amoeba_dir.Dir_server
module Dir_client = Amoeba_dir.Dir_client
module Pair = Amoeba_dir.Dir_pair
module Station = Amoeba_lease.Station
module Cap = Amoeba_cap.Capability
module Sealer = Amoeba_cap.Sealer
module Metrics = Amoeba_metrics.Metrics
module Health = Amoeba_metrics.Health

(* ---- testbeds ---- *)

type row = { size : int; read_us : int; write_us : int }

let bandwidth_kbs ~size ~us =
  if us = 0 then 0. else float_of_int size /. 1024. /. (float_of_int us /. 1_000_000.)

let paper_sizes = Workload.Sizes.paper_sweep

(* 64 MB drives keep the simulated images small; every timing parameter
   (seek, rotation, media rate) is the 1989 drive, so per-operation costs
   match the paper's 800 MB drives. *)
let testbed_sectors = 131_072

type bullet_bed = {
  b_clock : Clock.t;
  b_server : Server.t;
  b_client : Client.t;
  b_mirror : Mirror.t;
}

let make_bullet_bed ?(sectors = testbed_sectors) ?(config = Server.default_config) () =
  let clock = Clock.create () in
  let server = Server.boot ~config ~clock ~id:"bullet" ~sectors ~max_files:2048 () in
  let transport = Transport.create ~clock in
  Bullet_core.Proto.serve server transport;
  let client = Client.connect transport (Server.port server) in
  { b_clock = clock; b_server = server; b_client = client; b_mirror = Server.mirror server }

type nfs_bed = {
  n_clock : Clock.t;
  n_dev : Dev.t;
  n_transport : Transport.t;
  n_server : Nfs.t;
  n_client : Nfs_client.t;
}

let make_nfs_bed ?config () =
  let clock = Clock.create () in
  let geometry = Geometry.small ~sectors:testbed_sectors in
  let dev = Dev.create ~id:"nfs-1" ~geometry ~clock in
  Nfs.format dev ~max_files:2048;
  let server = Result.get_ok (Nfs.mount ?config dev) in
  let transport = Transport.create ~clock in
  Nfs_baseline.Nfs_proto.serve server transport;
  let client = Nfs_client.connect transport (Nfs.port server) in
  { n_clock = clock; n_dev = dev; n_transport = transport; n_server = server; n_client = client }

let time clock f =
  let _, us = Clock.elapsed clock f in
  us

(* ---- directory pairs and lease rigs ---- *)

(* The fault plan's crash and reboot, acted out on a directory pair: the
   primary replica fails and later heals from the surviving checkpoint. *)
let pair_act pair : Plan.event -> unit = function
  | Server_crash -> Pair.fail_primary pair
  | Server_reboot -> Pair.heal_primary pair
  | _ -> ()

(* A fresh mirrored Bullet server on testbed drives, served on
   [transport], and a client bound to it: one store of a directory
   replica pair, or the file server of a rig. *)
let boot_served ~clock transport name seed =
  let server = Server.boot ~seed ~clock ~id:name ~sectors:testbed_sectors ~max_files:1024 () in
  Bullet_core.Proto.serve server transport;
  (server, Client.connect transport (Server.port server))

(* The fault plan's lease-clock skew, applied to one station. *)
let skew_act station : Plan.event -> unit = function
  | Lease_clock_skew us -> Station.set_skew station us
  | _ -> ()

(* One transport, three Bullet servers (file storage plus the two
   directory-pair stores), the replicated directory pair on top.  This is
   the full stack a leased station talks to: names and leases from the
   pair, bytes from the file server. *)
type lease_rig = {
  lz_clock : Clock.t;
  lz_transport : Transport.t;
  lz_files : Server.t;
  lz_files_client : Client.t;
  lz_pair : Pair.t;
  lz_dirs : Dir_client.t;
  lz_root : Cap.t;
}

(* Short leases keep the experiment clock small; every timing below is
   stated relative to this. *)
let lease_dir_config = { Dir_server.default_config with Dir_server.lease_us = 200_000 }

let make_lease_rig () =
  let clock = Clock.create () in
  let transport = Transport.create ~clock in
  let boot = boot_served ~clock transport in
  let files, files_client = boot "lease-files" 5L in
  let _, primary_store = boot "lease-dirp" 11L in
  let _, backup_store = boot "lease-dirb" 22L in
  let pair = Pair.create ~config:lease_dir_config ~primary_store ~backup_store () in
  Pair.serve pair transport;
  let dirs = Dir_client.connect transport (Pair.port pair) in
  {
    lz_clock = clock;
    lz_transport = transport;
    lz_files = files;
    lz_files_client = files_client;
    lz_pair = pair;
    lz_dirs = dirs;
    lz_root = Pair.root pair;
  }

let trusted_station rig =
  Station.create ~sealer:(Server.sealer rig.lz_files) ~store:rig.lz_files_client ~dirs:rig.lz_dirs ()

(* A lease rig, a trusted station on it, and [data] entered in the root
   as [name].  [traced] attaches one tracer to the transport, the file
   server and the station before the file is created. *)
let station_with_file ?(traced = false) name data =
  let rig = make_lease_rig () in
  let station = trusted_station rig in
  if traced then begin
    let tracer = Some (Amoeba_trace.Trace.create ~clock:rig.lz_clock ()) in
    Transport.set_tracer rig.lz_transport tracer;
    Server.set_tracer rig.lz_files tracer;
    Station.set_tracer station tracer
  end;
  let cap = Client.create rig.lz_files_client data in
  Dir_client.enter rig.lz_dirs rig.lz_root name cap;
  (rig, station, cap)

(* ---- health watch ---- *)

type metrics_scenario = {
  ms_name : string;
  ms_interval_us : int;
  ms_snapshots : Metrics.snapshot list;  (** the scrape ring, oldest first *)
  ms_transitions : (int * Health.state) list;
  ms_alerts : (int * string * bool) list;  (** SLO fire/clear edges *)
  ms_final : Health.state;
}

(* One scrape loop: a scraper over a registry, with the health
   evaluator and the SLO alerts folding every snapshot it takes. *)
type watch = {
  scraper : Metrics.Scraper.t;
  w_interval_us : int;
  health : Health.t;
  slo : Health.Slo.t;
}

let watch ~registry ~clock ~interval_us ~capacity alerts =
  {
    scraper = Metrics.Scraper.create ~registry ~clock ~interval_us ~capacity;
    w_interval_us = interval_us;
    health = Health.create ();
    slo = Health.Slo.create alerts;
  }

let poll w =
  match Metrics.Scraper.poll w.scraper with
  | None -> ()
  | Some snap ->
    ignore (Health.observe w.health snap);
    Health.Slo.observe w.slo snap

let scenario_of ~name w =
  {
    ms_name = name;
    ms_interval_us = w.w_interval_us;
    ms_snapshots = Metrics.Ring.snapshots (Metrics.Scraper.ring w.scraper);
    ms_transitions = Health.transitions w.health;
    ms_alerts = Health.Slo.transitions w.slo;
    ms_final = Health.state w.health;
  }

(* One scenario's snapshots, transitions and alert edges, as text. *)
let scenario_dump buf s =
  Buffer.add_string buf
    (Printf.sprintf "== scenario %s interval_us %d\n" s.ms_name s.ms_interval_us);
  List.iter (fun snap -> Buffer.add_string buf (Metrics.to_text snap)) s.ms_snapshots;
  Buffer.add_string buf "-- transitions\n";
  List.iter
    (fun (at, st) -> Buffer.add_string buf (Printf.sprintf "%d %s\n" at (Health.state_label st)))
    s.ms_transitions;
  Buffer.add_string buf "-- alerts\n";
  List.iter
    (fun (at, name, firing) ->
      Buffer.add_string buf
        (Printf.sprintf "%d %s %s\n" at name (if firing then "fire" else "clear")))
    s.ms_alerts;
  Buffer.add_string buf (Printf.sprintf "-- final %s\n" (Health.state_label s.ms_final))

(* ---- report helpers ---- *)

(* The acceptance checks live in the experiments themselves, so every
   bench run enforces them, not just the test suite. *)
let invariant experiment name cond =
  if not cond then failwith (experiment ^ " invariant violated: " ^ name)

let ms us = float_of_int us /. 1000.

let line () = print_endline (String.make 72 '-')

let header title =
  print_newline ();
  line ();
  Printf.printf "%s\n" title;
  line ()

let size_label n = Workload.Sizes.describe n

(* The delay and bandwidth tables of Fig. 2 and Fig. 3. *)
let print_rows ~write rows =
  Printf.printf "(a) Delay (msec)\n";
  Printf.printf "  %-10s %12s %12s\n" "File Size" "READ" write;
  List.iter
    (fun r ->
      Printf.printf "  %-10s %12.2f %12.2f\n" (size_label r.size) (ms r.read_us) (ms r.write_us))
    rows;
  Printf.printf "\n(b) Bandwidth (Kbytes/sec)\n";
  Printf.printf "  %-10s %12s %12s\n" "File Size" "READ" write;
  List.iter
    (fun r ->
      Printf.printf "  %-10s %12.1f %12.1f\n" (size_label r.size)
        (bandwidth_kbs ~size:r.size ~us:r.read_us)
        (bandwidth_kbs ~size:r.size ~us:r.write_us))
    rows

let print_health transitions =
  Printf.printf "  health  %s\n"
    (String.concat " -> "
       (List.map
          (fun (at, st) -> Printf.sprintf "%s@%.1fs" (Health.state_label st) (ms at /. 1000.))
          transitions))

(* Hand-rolled JSON with fixed float formatting so two runs of the
   deterministic experiment write byte-identical files. *)
let json_float f = Printf.sprintf "%.3f" f

let json_str s = Printf.sprintf "%S" s

let json_obj fields =
  "{" ^ String.concat "," (List.map (fun (k, v) -> json_str k ^ ":" ^ v) fields) ^ "}"

let json_arr items = "[" ^ String.concat "," items ^ "]"

let transitions_json transitions =
  json_arr
    (List.map
       (fun (at, st) ->
         json_obj [ ("at_us", string_of_int at); ("state", json_str (Health.state_label st)) ])
       transitions)
