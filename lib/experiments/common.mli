(** Testbeds and report helpers shared by the experiment sections.

    Each section builds a fresh simulated 1989 testbed (16.7 MHz servers,
    10 Mbit/s Ethernet, late-80s drives), runs one of the paper's
    measurements and prints it in the paper's table format. Virtual time
    makes every number deterministic. *)

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

(** {1 Testbeds} *)

type row = {
  size : int;  (** file size in bytes *)
  read_us : int;  (** read delay, µs *)
  write_us : int;  (** Bullet: CREATE+DELETE delay; NFS: CREATE delay *)
}
(** One Fig. 2 / Fig. 3 row. *)

val bandwidth_kbs : size:int -> us:int -> float
(** KB/s given a transfer size and delay. *)

val paper_sizes : int list
(** The Fig. 2/Fig. 3 rows. *)

val testbed_sectors : int
(** 64 MB drives with the 1989 drive's timing parameters. *)

type bullet_bed = {
  b_clock : Clock.t;
  b_server : Server.t;
  b_client : Client.t;
  b_mirror : Mirror.t;
}

val make_bullet_bed : ?sectors:int -> ?config:Server.config -> unit -> bullet_bed
(** A fresh mirrored Bullet server and a client bound to it. *)

type nfs_bed = {
  n_clock : Clock.t;
  n_dev : Dev.t;
  n_transport : Transport.t;
  n_server : Nfs.t;
  n_client : Nfs_client.t;
}

val make_nfs_bed : ?config:Nfs.config -> unit -> nfs_bed
(** A fresh NFS baseline server on one drive and a client bound to it. *)

val time : Clock.t -> (unit -> 'a) -> int
(** Virtual microseconds [f] took. *)

(** {1 Directory pairs and lease rigs} *)

val pair_act : Pair.t -> Plan.event -> unit
(** The plan's [Server_crash] / [Server_reboot], acted out on a pair. *)

val boot_served : clock:Clock.t -> Transport.t -> string -> int64 -> Server.t * Client.t
(** [boot_served ~clock transport name seed]: a fresh mirrored server on
    testbed drives, served on [transport], and a client bound to it. *)

val skew_act : Station.t -> Plan.event -> unit
(** The plan's [Lease_clock_skew], applied to one station. *)

type lease_rig = {
  lz_clock : Clock.t;
  lz_transport : Transport.t;
  lz_files : Server.t;
  lz_files_client : Client.t;
  lz_pair : Pair.t;
  lz_dirs : Dir_client.t;
  lz_root : Cap.t;
}
(** One transport, a file server and a replicated directory pair on two
    more stores: the full stack a leased station talks to. *)

val lease_dir_config : Dir_server.config
(** 200 ms leases. *)

val station_with_file : ?traced:bool -> string -> Bytes.t -> lease_rig * Station.t * Cap.t
(** [station_with_file name data]: a rig, a trusted station, and [data]
    entered in the root as [name]. [traced] attaches one tracer to the
    transport, the file server and the station before the file is
    created. *)

(** {1 Health watch} *)

type metrics_scenario = {
  ms_name : string;
  ms_interval_us : int;
  ms_snapshots : Metrics.snapshot list;  (** the scrape ring, oldest first *)
  ms_transitions : (int * Health.state) list;
  ms_alerts : (int * string * bool) list;  (** SLO fire/clear edges *)
  ms_final : Health.state;
}

type watch = {
  scraper : Metrics.Scraper.t;
  w_interval_us : int;
  health : Health.t;
  slo : Health.Slo.t;
}
(** One scrape loop: a scraper over a registry, with the health evaluator
    and the SLO alerts folding every snapshot it takes. *)

val watch :
  registry:Metrics.t ->
  clock:Clock.t ->
  interval_us:int ->
  capacity:int ->
  Health.Slo.alert list ->
  watch

val poll : watch -> unit
val scenario_of : name:string -> watch -> metrics_scenario

val scenario_dump : Buffer.t -> metrics_scenario -> unit
(** One scenario's snapshots, transitions and alert edges, as text. *)

(** {1 Report helpers} *)

val invariant : string -> string -> bool -> unit
(** [invariant experiment name cond] raises [Failure "<experiment>
    invariant violated: <name>"] unless [cond]. *)

val ms : int -> float
val header : string -> unit
val size_label : int -> string

val print_rows : write:string -> row list -> unit
(** The delay and bandwidth tables of Fig. 2 and Fig. 3; [write] labels
    the write column. *)

val print_health : (int * Health.state) list -> unit
(** A health transition walk, as "state\@seconds -> ...". *)

(** Hand-rolled JSON with fixed float formatting, so the files a section
    writes are byte-stable. *)

val json_float : float -> string
val json_str : string -> string
val json_obj : (string * string) list -> string
val json_arr : string list -> string
val transitions_json : (int * Health.state) list -> string
