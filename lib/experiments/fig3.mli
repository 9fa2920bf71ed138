(** FIG3 — the paper's Fig. 3: the SUN NFS baseline's READ and CREATE. *)

val fig3_nfs : ?sizes:int list -> unit -> Common.row list
(** NFS READ and CREATE, client caching disabled ([lockf]), one data
    disk, 3 MB server buffer cache aged between the create and read
    phases (normally loaded server). *)

val run : unit -> string list
(** Print the section; it writes no files. *)
