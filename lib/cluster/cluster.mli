(** A sharded multi-server Bullet cluster with replica groups and live
    rebalancing.

    One server scales to N: objects are placed by a deterministic
    consistent-hash {!Ring} over a {e fixed shard space} — the ring
    positions shard ids, an object's shard is a stable hash of its key —
    so a membership change moves exactly the ring-delta shards and
    nothing else. Every object lives on a replica group of R servers; a
    {e cluster directory} maps each key to the capabilities its holders
    minted, and is checkpointed with canonical ordering so dumps stay
    byte-comparable across runs.

    Reads are routed to the nearest, least-loaded replica: candidates
    are ranked with {!Amoeba_wan.Federation.rank_replicas} — link class
    between the reader's region and the server's region first, then a
    live load hint read from the server's {!Amoeba_metrics.Metrics}
    registry (refreshed every 50 ms of virtual time, with reads routed
    since the refresh added on top), then the name.

    Rebalancing reuses the online sectored-resync pattern one level up:
    a membership change marks the ring-delta shards in an
    {!Amoeba_disk.Dirty} bitmap (one bit per shard), and
    {!rebalance_step} drains one shard at a time in bounded object
    batches whose copy RPCs are charged on the virtual clock — stealing
    foreground time rather than happening for free. A foreground read
    whose ring-preferred replicas have not been migrated yet {e falls
    through} to a live holder and read-repairs one missing copy off the
    measured path, so serving traffic shrinks the backlog. A killed
    server's replicas are lost; the delta shards cover exactly the
    under-replicated groups and the same drain restores R copies on the
    survivors. *)

type t

val shards : int
(** The fixed shard space the ring places: 64. *)

val replicas : int
(** R — copies per object: 2. Each server runs two mirrored
    4096-sector drives with a 255-entry inode table. *)

val create : unit -> t
(** An empty cluster with a fresh virtual clock and shared transport —
    no servers yet. *)

val clock : t -> Amoeba_sim.Clock.t

val transport : t -> Amoeba_rpc.Transport.t
(** The shared transport — where a fault injector attaches. *)

(** {1 Membership} *)

val add_server : t -> name:string -> region:string -> unit
(** Boot a Bullet server (two mirrored drives, seed =
    [Prng.seed_of_string name] so its capabilities are byte-stable) and
    join it to the ring; the ring-delta shards are marked dirty for the
    rebalancer. Raises [Invalid_argument] if the name is taken or
    contains whitespace. *)

val kill_server : t -> string -> unit
(** Permanent failure: the port is unregistered, the server crashed,
    the member removed from the ring and its replicas dropped from
    every directory entry (they are gone). The delta shards — exactly
    the groups the dead server belonged to — are marked for the
    rebalancer to re-replicate on the survivors. Raises
    {!Unknown_server}. *)

exception Unknown_server of string

val servers : t -> (string * string * string) list
(** Every server ever added, sorted by name: [(name, region, status)]
    with status ["alive"] or ["dead"]. *)

val live_servers : t -> string list
(** Ring members, sorted. *)

val server : t -> string -> Bullet_core.Server.t
(** The named server — for fsck-style inspection and hand-seeding
    faults in tests. Raises {!Unknown_server}. *)

val server_mirror : t -> string -> Amoeba_disk.Mirror.t
(** The named server's replica drive set. Raises {!Unknown_server}. *)

(** {1 Objects} *)

val put : t -> ?from:string -> key:string -> bytes -> unit
(** Create the object on every server of its shard's replica group,
    charging each create at the link between the writer's region
    ([from], default ["client"]) and the server's. Raises
    [Invalid_argument] on an empty key, a key containing whitespace or
    ['='], or a key already present (objects are immutable). *)

val get : t -> ?from:string -> string -> bytes
(** Route the read: candidates are the live holders, preferring the
    ring-desired replicas; ranked nearest-first by link class from
    [from]'s region, then by live load hint, then by name. When no
    ring-desired replica holds the object yet (mid-migration) the read
    {e falls through} to a live holder and read-repairs one missing
    desired copy off the measured path. A replica that dies mid-read
    (scripted kills fire at RPC delivery points) is skipped and the
    read fails over down the ranking. Raises [Not_found] for an
    unknown key and [Failure] when no live replica remains (data
    loss — the fault experiments assert this never happens while any
    member of each group survives). *)

val objects_total : t -> int

val shard_of : string -> int
(** The shard an object key hashes to. *)

val shard_key : int -> string
(** The ring key for a shard id — what the ring actually places;
    exposed so experiments can assert ring deltas exactly. *)

val ring : t -> Ring.t

val desired : t -> string -> string list
(** The ring-desired replica group of a key, preference order first. *)

val holders : t -> string -> string list
(** Servers currently holding a replica, sorted. Raises [Not_found]. *)

(** {1 Rebalancing} *)

val rebalance_step : t -> int
(** Drain one bounded slice of the dirty-shard backlog: take the next
    dirty shard, copy at most 4 missing replicas to their ring-desired
    servers — each copy a charged read off the nearest live holder plus
    a charged create on the target — and, once the shard needs nothing
    more, delete surplus copies on servers no longer in its groups and
    clear its bit. Returns the number of objects copied; [0] means
    nothing was dirty. An interrupted shard resumes exactly where it
    stopped: the next step takes the same shard while it is dirty. *)

val rebalance : t -> int
(** Run {!rebalance_step} until the backlog is empty (or 10,000 steps,
    a runaway guard). Returns total objects copied. *)

val rebalancing : t -> bool

val shards_remaining : t -> int
(** Dirty shards — the rebalance backlog, and the payload of the
    [rebalancing] health state. *)

val under_replicated : t -> string list
(** Keys with fewer live replicas than [min replicas (live servers)],
    sorted — the fsck cross-check, zero after a completed heal. *)

(** {1 Introspection} *)

val checkpoint : t -> string
(** The cluster directory in canonical text form: header, then servers
    sorted by name, then objects sorted by key with holders sorted by
    server — byte-comparable across runs by construction. *)

type checkpoint_info = {
  ck_shards : int;
  ck_replicas : int;
  ck_servers : (string * string * string) list;  (** name, region, status *)
  ck_objects : (string * (string * Amoeba_cap.Capability.t) list) list;
      (** key, then (server, capability) holders *)
}

val parse_checkpoint : string -> (checkpoint_info, string) result
(** Inverse of {!checkpoint} — what [bullet_fsck --cluster] and
    [bullet_ctl cluster] load. *)

val replication : checkpoint_info -> int * (string * int) list
(** The {!under_replicated} rule over a checkpoint, the one both tools
    apply: [(want, short)], where [want] is [min ck_replicas (max live
    1)] over the servers not marked dead, and [short] is each object
    with fewer than [want] holders among those servers, with that count,
    in checkpoint order. *)

val stats : t -> Amoeba_sim.Stats.t
(** Counters: [server_joins], [server_kills],
    [routed_reads], [fallthroughs], [read_repairs], [migrated_objects],
    [shards_migrated], [surplus_deleted], [hint_refreshes]. *)

val register_metrics : t -> Amoeba_metrics.Metrics.t -> unit
(** Register the cluster's live surface: [cluster.objects_total],
    [cluster.under_replicated], [cluster.migrations_active],
    [cluster.shards_remaining] and [cluster.servers_live] gauges plus
    every {!stats} counter under the [cluster.] prefix. The
    [cluster.shards_remaining] gauge is what drives the [rebalancing]
    health state. *)
