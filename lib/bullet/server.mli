(** The Bullet file server.

    Implements the paper's architectural model: every file is immutable
    and stored contiguously on disk, in the server's RAM cache, and on the
    wire. The interface is the paper's four calls — {!create}, {!size},
    {!read}, {!delete} — plus the §5 extension that derives a new file
    from an existing one ({!modify}, {!append}, {!truncate},
    {!read_range}) so small updates need not transfer the whole file.

    [create]'s [p_factor] is the paper's Paranoia Factor: the number of
    disks that must hold the file before the reply; 0 replies straight
    from the RAM cache. Writes always go through to every replica disk
    (write-through), the P-FACTOR only chooses the reply point.

    All operations charge virtual time (server CPU, memory copies, disk
    accesses) to the simulation clock; the RPC layer adds wire time. *)

type t

type config = {
  cache_bytes : int;  (** RAM devoted to the file cache *)
  max_cached_files : int;  (** rnode table size *)
  alloc_policy : Extent_alloc.policy;  (** disk extent allocation policy *)
}

val default_config : config
(** The paper's server: a 16 MB machine leaves ~12 MB of cache; 4096
    rnodes; first-fit. *)

val format : Amoeba_disk.Mirror.t -> max_files:int -> unit
(** mkfs: write an empty Bullet image on every replica drive. *)

val start :
  ?config:config ->
  ?seed:int64 ->
  Amoeba_disk.Mirror.t ->
  (t * Inode_table.scan_report, string) result
(** Boot a server on a formatted replica set: reads the whole inode table
    into RAM (charging the sequential read), runs the consistency checks,
    builds the free lists, and picks a fresh service port. *)

val boot :
  ?config:config ->
  ?seed:int64 ->
  clock:Amoeba_sim.Clock.t ->
  id:string ->
  sectors:int ->
  max_files:int ->
  unit ->
  t
(** A fresh mirrored server: two {!Amoeba_disk.Geometry.small} drives of
    [sectors] sectors named [<id>-1] and [<id>-2] (created in that
    order), mirrored, {!format}ted for [max_files] inodes and
    {!start}ed.  Raises [Failure] if the fresh image fails to boot.  The
    mirror is {!mirror}. *)

val port : t -> Amoeba_cap.Port.t
(** The port clients address; stable for the life of this incarnation. *)

val clock : t -> Amoeba_sim.Clock.t

val crash : t -> unit
(** Kill the server: RAM cache and inode table are lost, pending
    write-behind is discarded, and every subsequent operation fails with
    [Server_failure]. Boot again with {!start} on the same mirror. *)

val set_tracer : t -> Amoeba_trace.Trace.ctx option -> unit
(** Install (or with [None] remove) the tracer on the server and
    everything below it: the cache ([cache.hit]/[cache.miss]/
    [cache.evict] events, [cache.memcpy] spans), the disk extent
    allocator ([alloc.take]/[alloc.free] events), and the mirror with its
    drives (mirror and seek/rotate/transfer spans).  Per-request CPU
    charges become [cpu.request] spans.  With [None] every hot path is
    the exact untraced code. *)

(** {1 The Bullet interface} *)

val create : t -> ?p_factor:int -> bytes -> (Amoeba_cap.Capability.t, Amoeba_rpc.Status.t) result
(** [BULLET.CREATE]. Returns a capability with all rights. Fails with
    [No_space] if the file exceeds the cache (files must fit in server
    memory), or disk/inode space is exhausted; [Bad_request] if [p_factor]
    exceeds the number of drives. Default [p_factor] is the drive count. *)

val size : t -> Amoeba_cap.Capability.t -> (int, Amoeba_rpc.Status.t) result
(** [BULLET.SIZE]; needs the read right. *)

val read : t -> Amoeba_cap.Capability.t -> (bytes, Amoeba_rpc.Status.t) result
(** [BULLET.READ]: the whole file; needs the read right. A cache hit
    touches no disk; a miss loads the file contiguously in one disk
    transfer, evicting LRU files as needed. *)

val delete : t -> Amoeba_cap.Capability.t -> (unit, Amoeba_rpc.Status.t) result
(** [BULLET.DELETE]; needs the delete right. Zeroes the inode on every
    disk and frees cache and disk space. *)

(** {1 §5 extensions} *)

val read_range :
  t -> Amoeba_cap.Capability.t -> pos:int -> len:int -> (bytes, Amoeba_rpc.Status.t) result
(** Partial read, for clients with small memories. The file is still
    cached whole on the server. *)

val modify :
  t ->
  ?p_factor:int ->
  Amoeba_cap.Capability.t ->
  pos:int ->
  bytes ->
  (Amoeba_cap.Capability.t, Amoeba_rpc.Status.t) result
(** [BULLET.MODIFY]: create a {e new} file whose contents are the old
    file with the given bytes spliced in at [pos] (extending it if the
    splice runs past the end). The old file is untouched — immutability
    is preserved; only the small delta crosses the wire. Needs read and
    modify rights. *)

val append :
  t ->
  ?p_factor:int ->
  Amoeba_cap.Capability.t ->
  bytes ->
  (Amoeba_cap.Capability.t, Amoeba_rpc.Status.t) result
(** Derive a new file = old ++ data. *)

val truncate :
  t ->
  ?p_factor:int ->
  Amoeba_cap.Capability.t ->
  int ->
  (Amoeba_cap.Capability.t, Amoeba_rpc.Status.t) result
(** Derive a new file = first [n] bytes of the old. *)

val restrict :
  t ->
  Amoeba_cap.Capability.t ->
  Amoeba_cap.Rights.t ->
  (Amoeba_cap.Capability.t, Amoeba_rpc.Status.t) result
(** Re-seal a capability with intersected rights. *)

(** {1 Two-phase commit participant}

    Prepare makes an outcome durable-capable without making it visible;
    commit and abort are idempotent and carry the capability, so a
    rebooted (amnesiac) server still resolves re-sent decisions
    correctly. The pending/condemned bookkeeping is RAM-only — a crash
    loses it, and the orphan sweep ({!Fsck}) plus the coordinator's
    presumed-abort recovery clean up what is left on disk. *)

type txn_kind = Txn_create | Txn_delete

val txn_prepare_create : t -> txn:int -> bytes -> (Amoeba_cap.Capability.t, Amoeba_rpc.Status.t) result
(** Create the object durably (data + inode on every live drive — a
    prepared vote gets no P-FACTOR discount) but keep it in the pending
    table: excluded from the fsck live set and unreachable until the
    commit binds its capability somewhere. *)

val txn_prepare_delete : t -> txn:int -> Amoeba_cap.Capability.t -> (unit, Amoeba_rpc.Status.t) result
(** Condemn the object: still readable, but ordinary [DELETE] and any
    other transaction's prepare are refused with [Exists] until this
    transaction resolves. Needs the delete right. *)

val txn_commit :
  t -> txn:int -> kind:txn_kind -> Amoeba_cap.Capability.t -> (unit, Amoeba_rpc.Status.t) result
(** Apply the decision: a committed create is simply promoted (it is
    already durable); a committed delete frees the object. Idempotent —
    an unknown or already-resolved object answers [Ok]. *)

val txn_abort :
  t -> txn:int -> kind:txn_kind -> Amoeba_cap.Capability.t -> (unit, Amoeba_rpc.Status.t) result
(** Roll back: an aborted create is deleted, an aborted delete is
    un-condemned. Idempotent like {!txn_commit}. *)

val txn_abort_all : t -> txn:int -> (unit, Amoeba_rpc.Status.t) result
(** Presumed abort by transaction id alone — what a recovering
    coordinator sends when its log has a begin record but no commit
    record (it may never have learned the prepared capabilities). Drops
    every pending create and condemnation of [txn]; unknown ids answer
    [Ok]. *)

val txn_pending_objs : t -> int list
(** Object numbers of prepared-but-undecided creates, for {!Fsck}'s
    orphan sweep to exclude. *)

val live_objs : t -> int list
(** Every live object number, ascending — the fsck walk. *)

val admin_delete_obj : t -> int -> bool
(** Free one object by number, bypassing capability checks — the fsck
    [--gc] primitive, for objects that by definition no capability
    reaches. Returns false if the object is not live. *)

val txn_pending_count : t -> int

val txn_condemned_count : t -> int

(** {1 Administration and introspection} *)

val compact_disk : t -> int
(** Slide files to the start of the data area (the paper's "compaction
    every morning at 3 am"); returns blocks moved. Charges disk time. *)

val compact_cache : t -> int
(** Compact the RAM cache; returns bytes moved. Charges copy time. *)

val live_files : t -> int

val free_inodes : t -> int

val data_blocks : t -> int
(** Size of the file area in blocks. *)

val free_blocks : t -> int

val largest_hole_blocks : t -> int

val disk_fragmentation : t -> float
(** [1 - largest_hole/free]; the FRAG experiment's metric. *)

val cache_used : t -> int

val cache_capacity : t -> int

val cache_stats : t -> Amoeba_sim.Stats.t
(** The RAM cache's own counters ([hits], [misses], [evictions], ...) —
    the server-side mirror of {!Amoeba_lease.File_cache.stats}, so
    benches can report eviction traffic on both ends of the lease
    protocol. *)

val cache_bytes_evicted : t -> int
(** The RAM cache's {!Cache.bytes_evicted} counter. *)

val stats : t -> Amoeba_sim.Stats.t
(** Counters: [creates], [reads], [deletes], [modifies], [cache_hits],
    [cache_misses], [txn_prepares], [txn_commits], [txn_aborts]; the
    [read_us] latency histogram. *)

val metrics : t -> Amoeba_metrics.Metrics.t
(** The server's live metrics registry, populated at {!start}: inode and
    extent-allocator gauges ([server.*], [alloc.*]), {!stats} under
    [server.] (so the [server.read_us] latency histogram), the RAM cache
    under [cache.] (including [cache.bytes_evicted]), and the mirror
    under [mirror.] ({!Amoeba_disk.Mirror.register_metrics}).  Scraped by the STD_STATUS
    protocol command and the [bulletd] text exposition; experiments can
    register further instruments of their own. *)

val mirror : t -> Amoeba_disk.Mirror.t

val sealer : t -> Amoeba_cap.Sealer.t
(** The server's sealer. Handing this to a client models the paper's
    trusted-station configuration: the station can verify check fields
    locally ({!Amoeba_cap.Sealer.verify_local}) without a round trip.
    Untrusted clients never see it. *)
