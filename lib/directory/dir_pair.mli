(** A replicated directory service (primary + backup).

    "Throughout the design we have strived for performance, scalability,
    and availability. ... Availability implies the need for replication"
    (paper §2). The Bullet server gets availability from its mirrored
    disks; the directory service gets it here, by state-machine
    replication: the two replicas are deterministic (same seed) and every
    command except the read-only ones (LOOKUP, LIST, VERSIONS, RESOLVE,
    GET_ROOT) is applied to both, so they evolve identically — same
    object numbers, same randoms, same capabilities, same lease horizons
    and 2PC intents. A command added later replicates unless it joins
    the read-only list. Reads go to the primary; when it fails, the
    backup answers the very same capabilities without any client-visible
    change.

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

val serve : t -> Amoeba_rpc.Transport.t -> unit
(** Register the pair's dispatcher on its port, wrapped in a
    {!Amoeba_rpc.Transport.dedup} reply cache of 1024 entries keyed by
    {!Amoeba_rpc.Message.t.xid}, so an injected duplicate of a 2PC leg is
    answered from the cache rather than executed twice. Ordinary
    directory operations carry [xid = 0] and bypass it. *)

val divergence : t -> string option
(** [None] when the two replicas' walks agree line for line (see
    {!replica_dumps}), else [Some path]: the path of the first line
    where they differ, taken from the primary's walk unless it has
    ended. A directory capability that differs counts, as a leaf's
    does. For tests and fsck-style auditing. *)

val primary : t -> Dir_server.t
(** The primary replica, for audits (e.g. comparing checkpoints byte
    for byte after a heal). *)

val backup : t -> Dir_server.t

val replica_dumps : t -> string * string
(** A canonical rendering of each replica's directory state, primary
    first: one [path capability] line for the root (path [""]) and for
    each binding, newest version, in listing order, a directory's own
    line before its contents. Converged replicas produce byte-identical
    strings; {!divergence} walks the same lines. *)
