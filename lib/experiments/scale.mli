(** SCALE — closed-loop pool processors against one server. *)

type scale_point = {
  clients : int;
  throughput_per_sec : float;
  mean_response_ms : float;
  utilisation : float;
}

type scale_report = {
  bullet_service_us : int;  (** measured per-request server demand (4 KB read) *)
  nfs_service_us : int;
  bullet_knee : float;  (** analytic saturation population *)
  nfs_knee : float;
  bullet_points : scale_point list;
  nfs_points : scale_point list;
}

val scale_experiment : ?client_counts:int list -> ?think_ms:int -> unit -> scale_report
(** Quantitative scalability (paper §2: "there may be thousands of
    processors accessing files"): a closed loop of pool processors
    reading 4 KB files. Server demands are measured on the real
    implementations (Bullet: RAM-cache hit; NFS: per-block path on a
    normally-loaded server); contention comes from discrete-event
    simulation of the FIFO server queue. *)

val run : unit -> string list
(** Print the section; it writes no files. *)
