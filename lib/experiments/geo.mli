(** GEO — geographic scalability: one name space across countries. *)

type geo_report = {
  file_bytes : int;
  local_read_us : int;  (** replica at the reader's site *)
  regional_read_us : int;  (** replica one gateway away *)
  wide_read_us : int;  (** replica across the international line *)
  nearest_pick : string;  (** which site [fetch] chose for the remote reader *)
  publish_local_us : int;
  publish_replicated_us : int;  (** publish + ship one replica abroad *)
}

val geo_experiment : unit -> geo_report
(** Geographic scalability (paper §2.1): a federation spanning
    Amsterdam, a regional site and Norway; read one file from replicas
    at each distance and show nearest-replica selection. *)

val run : unit -> string list
(** Print the section; it writes no files. *)
