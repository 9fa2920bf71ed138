(** FIG2 — the paper's Fig. 2: the Bullet server's READ and CREATE+DELETE
    delay and bandwidth. *)

val fig2_bullet : ?sizes:int list -> unit -> Common.row list
(** Bullet READ (file fully in server cache, as the paper states) and
    CREATE+DELETE with the file written to both disks. *)

val run : unit -> string list
(** Print the section; it writes no files. *)
