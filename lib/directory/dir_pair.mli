(** A replicated directory service (primary + backup).

    "Throughout the design we have strived for performance, scalability,
    and availability. ... Availability implies the need for replication"
    (paper §2). The Bullet server gets availability from its mirrored
    disks; the directory service gets it here, by state-machine
    replication: the two replicas are deterministic (same seed), every
    mutating operation is applied to both, so they evolve identically —
    same object numbers, same randoms, same capabilities. Reads go to
    the primary; when it fails, the backup answers the very same
    capabilities without any client-visible change.

    Each replica persists its directories through its own Bullet client,
    so the two copies can live on different Bullet servers (different
    machines in a deployment). *)

type t

val create :
  ?config:Dir_server.config ->
  ?seed:int64 ->
  primary_store:Bullet_core.Client.t ->
  backup_store:Bullet_core.Client.t ->
  unit ->
  t
(** Both replicas are created with the same [seed], so their capability
    seals and ports agree. *)

val port : t -> Amoeba_cap.Port.t
(** The service port (shared by both replicas). *)

val root : t -> Amoeba_cap.Capability.t

val primary_alive : t -> bool

val fail_primary : t -> unit
(** Take the primary down; subsequent operations are served by the
    backup alone. *)

val heal_primary : t -> unit
(** Bring the primary back and replay the backup's state onto it (via a
    checkpoint through the primary's store), then resume duplexing. *)

val dispatch : t -> Amoeba_rpc.Message.t -> Amoeba_rpc.Message.t
(** The replicated service: mutations are applied to every live replica,
    reads to the first live one. Replies come from the serving replica
    (identical on both, by construction). *)

val serve : t -> Amoeba_rpc.Transport.t -> unit
(** Register the pair's dispatcher on its port, wrapped in a
    {!Amoeba_rpc.Transport.dedup} reply cache of 1024 entries keyed by
    {!Amoeba_rpc.Message.t.xid}, so an injected duplicate of a 2PC leg is
    answered from the cache rather than executed twice. Ordinary
    directory operations carry [xid = 0] and bypass it. *)

val divergence : t -> string option
(** Compare the two replicas' listings recursively from the root;
    [None] when they agree, [Some path] naming the first disagreement
    otherwise. For tests and fsck-style auditing. *)

val primary : t -> Dir_server.t
(** The primary replica, for audits (e.g. comparing checkpoints byte
    for byte after a heal). *)

val backup : t -> Dir_server.t

val replica_dumps : t -> string * string
(** A canonical rendering (path + capability per line, recursively from
    the root) of each replica's directory state. Converged replicas
    produce byte-identical strings — stronger than {!divergence}, which
    recurses through directory capabilities instead of comparing
    them. *)
