(** NAMING — path resolution: server-side resolve vs stepwise lookups. *)

type naming_report = {
  depth : int;  (** path components resolved *)
  local_resolve_us : int;  (** server-side walk, one RPC, same Ethernet *)
  local_stepwise_us : int;  (** one lookup RPC per component *)
  wide_resolve_us : int;  (** same, with the directory server abroad *)
  wide_stepwise_us : int;
}

val naming_experiment : ?depth:int -> unit -> naming_report
(** Path resolution cost: the directory server walks "a/b/.../leaf" in
    one RPC vs the client looking up each component. On the local
    Ethernet the difference is small; across a gateway it is the
    difference between one and N wide-area round trips — why Amoeba
    resolved paths server-side. *)

val run : unit -> string list
(** Print the section; it writes no files. *)
