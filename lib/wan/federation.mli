(** A federation of Bullet servers behind one global name space.

    The paper (§2.1): "The directory service provides a single global
    naming space for objects. This has allowed us to link multiple
    Bullet file servers together providing one single large file service
    that crosses international borders."

    A federation hosts one Bullet server per {e site}; sites belong to
    {e regions}, and RPC between two parties is charged at the
    {!Amoeba_rpc.Link.t} their placement implies. A published file may be
    replicated at several sites: its name binds to a {e replica
    descriptor} (itself a Bullet file at the home site) listing the
    replica capabilities, and a reader fetches from the closest replica.
    Immutability is what makes this easy — replicas can never diverge,
    exactly the paper's argument that the version mechanism has
    "positive influences ... on replication". *)

type t

type site = string

exception Unknown_site of site

val create :
  ?home_region:string -> ?site_sectors:int -> ?attempts:int -> ?backoff_us:int -> unit -> t
(** A federation with a fresh virtual clock and a home site ("home", in
    [home_region], default ["nl"]) hosting the directory service. Each
    site's mirrored drives have [site_sectors] sectors (default 32768 =
    16 MB). [attempts]/[backoff_us] set the retry policy of every Bullet
    client the federation makes (default 1 attempt, i.e. no retries) —
    raise [attempts] to let cross-site transfers ride out link-loss
    fault plans. *)

val clock : t -> Amoeba_sim.Clock.t

val transport : t -> Amoeba_rpc.Transport.t
(** The shared transport — where a fault injector attaches. Every
    cross-site transaction is tagged with the {!Amoeba_rpc.Link.t}
    between the two parties, so link-scoped plan events apply to exactly
    the traffic that rides that class of line. *)

val home : t -> site

val add_site : t -> name:site -> region:string -> unit
(** Bring up a Bullet server (two mirrored drives) at a new site.
    Raises [Invalid_argument] if the name is taken. *)

val sites : t -> site list

val link_between : t -> site -> site -> Amoeba_rpc.Link.t

(** {2 Replica descriptors and routing}

    The descriptor codec and the replica-ranking policy are exposed so
    other placement layers (notably [Amoeba_cluster]) can reuse the
    exact same wire form and the exact same "closest, then least
    loaded" decision — a cluster router is a federation reader whose
    load hints come from live {!Amoeba_metrics.Metrics} snapshots. *)

val encode_descriptor : (site * Amoeba_cap.Capability.t) list -> bytes
(** The replica-descriptor wire form: a count byte, then per replica a
    length-prefixed site name and the capability bytes. *)

val decode_descriptor : bytes -> (site * Amoeba_cap.Capability.t) list
(** Inverse of {!encode_descriptor}. *)

val rank_replicas :
  ?load:(site -> int) ->
  link_to:(site -> Amoeba_rpc.Link.t) ->
  (site * 'a) list ->
  (site * 'a) list
(** Candidates ordered best-first: ascending link class ([Local] <
    [Regional] < [Wide]) under [link_to], then ascending [load] hint
    (default: none — pure link distance), then site name, so equal
    candidates break identically everywhere. *)

val pick_replica :
  ?load:(site -> int) -> link_to:(site -> Amoeba_rpc.Link.t) -> (site * 'a) list -> site * 'a
(** Head of {!rank_replicas}. Raises [Failure] on an empty list. *)

val publish :
  t -> from:site -> name:string -> ?replicate_to:site list -> bytes -> Amoeba_cap.Capability.t
(** Create the file at [from]'s Bullet server, copy it to each extra
    site (each copy crosses the corresponding link), write the replica
    descriptor, and bind [name] in the global directory. Returns the
    descriptor capability. Raises {!Unknown_site} and
    {!Amoeba_rpc.Status.Error}. *)

val fetch : t -> from:site -> string -> bytes * site
(** Resolve [name] from site [from]: one directory lookup (charged at
    the link to the home site), read the descriptor, then read the
    {e closest} replica. Returns the contents and the site that served
    them. *)

val fetch_from_replica : t -> from:site -> string -> replica:site -> bytes
(** Force the read to a specific replica site (for experiments). *)

val replica_sites : t -> string -> site list
(** Where a published name is currently stored. *)

val unpublish : t -> string -> unit
(** Remove the binding and delete every replica and the descriptor. *)

val bullet_port : t -> site -> Amoeba_cap.Port.t
(** The Bullet service port at a site. *)
