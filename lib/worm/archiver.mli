(** The version archiver: old versions migrate from magnetic to optical
    storage.

    A name's newest versions stay on the Bullet server (fast, mirrored,
    deletable); when {!archive_name} runs — think of it riding the 3 a.m.
    compaction — every retained version {e except the newest} is burned
    to the WORM platter and deleted from the Bullet server, freeing
    magnetic space while keeping history forever (write-once storage
    cannot lose it). {!recall} brings an archived version back as a
    fresh Bullet file.

    The catalog (name → burned versions) is checkpointable to a Bullet
    file like the directory service's table. *)

type t

type archived = {
  slot : Worm_device.slot;
  size : int;
  sequence : int;  (** version counter per name; higher = newer *)
}

val create : store:Bullet_core.Client.t -> platter:Worm_device.t -> t

val archive_name :
  t ->
  dirs:Amoeba_dir.Dir_server.t ->
  dir:Amoeba_cap.Capability.t ->
  string ->
  (int, Amoeba_rpc.Status.t) result
(** Burn every version of the binding except the newest, delete them from
    the Bullet server, and shrink the binding to just the newest version.
    Returns how many versions were archived. *)

val archive_file : t -> name:string -> Amoeba_cap.Capability.t -> (archived, Amoeba_rpc.Status.t) result
(** Burn one Bullet file under a catalog name and delete the original. *)

val history : t -> string -> archived list
(** Archived versions of a name, newest first. *)

val recall : t -> string -> sequence:int -> (Amoeba_cap.Capability.t, Amoeba_rpc.Status.t) result
(** Re-create one archived version as a fresh Bullet file. *)

val catalog_names : t -> string list

val checkpoint : t -> (Amoeba_cap.Capability.t, Amoeba_rpc.Status.t) result
(** Persist the catalog to a Bullet file. *)

val restore :
  store:Bullet_core.Client.t ->
  platter:Worm_device.t ->
  Amoeba_cap.Capability.t ->
  (t, Amoeba_rpc.Status.t) result
(** Rebuild from a {!checkpoint}; a truncated catalog is [Bad_request]. *)
