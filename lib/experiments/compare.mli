(** CMP — Fig. 2 vs Fig. 3, aligned by size: the paper's §4 prose
    claims. *)

type comparison = {
  size : int;
  read_ratio : float;  (** NFS read delay / Bullet read delay (claim: 3–6×) *)
  bullet_write_kbs : float;
  nfs_write_kbs : float;
  nfs_read_kbs : float;
  write_ratio : float;  (** Bullet/NFS write bandwidth (claim: ~10× at 1 MB) *)
}

val compare_servers : ?sizes:int list -> unit -> comparison list

val run : unit -> string list
(** Print the section and its claim verdicts; it writes no files. *)
