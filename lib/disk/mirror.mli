(** A set of identical replica drives.

    The Bullet server keeps N identical disks (the paper's configuration
    has two). A read is one or two pieces, each a range on one drive:
    the whole range from one drive, or two halves from two drives at
    once, whichever is strictly cheaper against the heads' positions; a
    tie goes to the whole range from the first eligible drive. Only
    drives that are live and hold current bytes for the range are
    eligible, and the same test picks failover targets, resync sources
    and the {!recover} source. Writes go to all live drives. The caller's
    P-FACTOR chooses how many replica writes are on the critical path —
    the rest complete in the background
    ({!Amoeba_sim.Clock.unobserved}), matching the paper's semantics where
    [BULLET.CREATE] replies once N disks hold the file but the server
    writes through to every disk regardless.

    Beyond the paper's stop-the-world recovery ({!recover}), the mirror
    supports {e online resync}: each drive carries a dirty-sector map
    ({!Dirty}), a failed drive can {!rejoin} fully dirty, and a scheduler
    drains the backlog in bounded batches ({!resync_step}) interleaved
    with foreground I/O. A foreground read never uses a drive whose copy
    of the range is still dirty, and once a piece is served it repairs
    that range on every such drive off the measured path, so serving
    traffic shrinks the backlog instead of waiting behind it. *)

type t

type sync_state =
  | Clean  (** every drive online and fully current *)
  | Degraded  (** at least one drive offline *)
  | Resyncing of { sectors_remaining : int }
      (** all drives online, at least one still catching up *)

exception No_live_drive
(** Raised when every drive in the set has failed. *)

val create : Block_device.t list -> t
(** A replica set over the given drives (all must share a geometry).
    Raises [Invalid_argument] on an empty list or mismatched
    geometries. *)

val drives : t -> Block_device.t list

val geometry : t -> Geometry.t

val live_count : t -> int
(** Number of drives currently online. *)

val clock : t -> Amoeba_sim.Clock.t
(** The simulation clock the drives charge time to. *)

val sync_state : t -> sync_state

val sync_state_label : t -> string
(** ["clean"], ["degraded"] or ["resyncing:<sectors-remaining>"] — for
    reports and dumps. *)

val read : t -> sector:int -> count:int -> bytes
(** Read the range from the drives holding current bytes for it (live,
    and not still dirty there if resyncing). Each plan — the whole range
    from one drive, or [count / 2] sectors from one drive and the rest
    from another — is priced with {!Block_device.access_us} at the
    heads' current positions, and the strictly cheapest runs; a tie goes
    to the whole range from the first drive whose copy is current. Its
    pieces run as single timed accesses at once ({!Amoeba_sim.Clock.parallel}).
    A piece whose drive raises is read again after that step, from the
    other current drives in slot order, one access after another — the
    paper's "if the main disk fails, the file server can proceed
    uninterruptedly by using the other disk". Once a piece is served,
    every live drive whose copy of its range is stale gets the bytes
    written back off the measured path (read-repair, one [read_repairs]
    each), clearing the range. Raises {!No_live_drive} if no drive, or no failover target,
    holds current bytes for a piece. *)

val read_into : t -> sector:int -> count:int -> dst:bytes -> dst_off:int -> len:int -> unit
(** {!read} that lands the first [len] bytes of the [count] sectors in
    [dst] at [dst_off] ({!Block_device.read_into}): the same drain, plan,
    failover, read-repair, charge, stats and [mirror.read] span (with
    one [disk.read] child per drive access). The bytes land only
    once every part of the read has succeeded, so on any exception [dst]
    is untouched. Read-repair still writes whole sectors to a stale
    drive, taken from the good drive without a charge. {!read} allocates
    its result and calls this. Raises [Invalid_argument] if [len] exceeds
    [count] sectors or the destination range is out of [dst]. *)

val write : t -> sync:int -> sector:int -> bytes -> unit
(** [write t ~sync ~sector data] writes to every live drive. The [sync]
    first writes (clamped to the live count) proceed in parallel on the
    critical path; the remainder are {e pending} — they are applied (off
    the measured path) before the next mirror operation, which models
    write-behind completing shortly after the reply. [sync = 0] therefore
    returns in zero disk time, and a {!crash} before the writes drain
    loses them — the paper's P-FACTOR 0 risk. Writes aimed at an offline
    drive mark the range dirty on it instead, so a later {!rejoin} knows
    what to copy. A write landing on a resyncing drive clears its range.

    A live drive that raises on a write ([Block_device.Failure]: a bad
    sector, a transient error) is not failed: it keeps its old bytes for
    the range, so the range is marked dirty on it and the drive turns
    resyncing ([write_failures] stat). Reads then avoid it there, and
    {!resync_step}, read-repair or a later write that lands make it
    current again. A critical-path write that raised hands its place to
    the next background drive, written after the parallel step, so the
    write is charged for the arms that ran and [sync] drives hold it
    whenever that many take it. A background write that raises when it
    is applied is handled the same way. Raises {!No_live_drive} if no
    drive is live, or if [sync > 0] and no drive took the write; every
    drive then still holds the old bytes. *)

val drain : t -> unit
(** Apply all pending background writes now (off the measured path).
    Pending writes aimed at a failed drive are discarded (and the range
    marked dirty on it). *)

val crash : t -> unit
(** Discard all pending background writes, as a server crash would. The
    drives themselves keep whatever was synchronously written. *)

val pending_count : t -> int

val recover : t -> unit
(** Repair every failed drive and copy onto it the contents of the first
    live drive that is not resyncing — the paper's whole-disk-copy
    recovery. Leaves the repaired drives clean. A no-op when every drive
    is live. Raises {!No_live_drive}, and changes nothing, if a drive is
    failed and no live drive holds a current copy of the whole disk
    (every live drive is still resyncing). *)

val rejoin : t -> unit
(** Bring every failed drive back online {e without} copying anything:
    the drive is repaired, marked fully dirty (nothing it holds is
    trusted) and enters the resyncing state. The backlog then drains via
    {!resync_step}, foreground writes and read-repair. A no-op for
    drives already online. *)

val resync_step : ?batch:int -> t -> int
(** Copy at most [batch] (default 256) contiguous dirty sectors of a
    resyncing drive's next dirty run from the first other drive holding
    current bytes for them, charging the read and the write to the
    clock — this is the bounded slice of disk time a resync step steals
    from foreground I/O. The resyncing drives are tried in slot order: one
    that makes no progress (no other drive is current for its run, or
    the copy raised, say on a permanent bad sector) is passed over for
    the next, so it cannot hold up the others' backlogs. A copy that
    raised is still charged. Returns the number of sectors copied; [0]
    means no resyncing drive could make progress (none resyncing,
    nothing dirty, no clean source, or every copy raised). Scans each
    drive circularly, so repeated calls with foreground writes racing
    the scan still terminate. When a drive's backlog reaches zero it
    flips to clean ([resyncs_completed] stat, [mirror.resync_done]
    event). *)

val set_tracer : t -> Amoeba_trace.Trace.ctx option -> unit
(** Install the tracer on the mirror and all its drives.  Traced reads
    and writes get [mirror.read]/[mirror.write] spans with the drives'
    spans nested inside, plus [mirror.failover]/[mirror.degraded]
    events. Resync steps get a [disk.resync] span (drive, sector, count,
    remaining) and rejoin/read-repair/completion get
    [mirror.rejoin]/[mirror.read_repair]/[mirror.resync_done] events. *)

val stats : t -> Amoeba_sim.Stats.t
(** Counters: [read_failovers] (read accesses whose drive raised; the
    piece then goes to the next current drive), [degraded_reads] (reads
    issued while at least one drive was offline), [resyncs] (failed
    drives repaired and re-copied by {!recover}), [rejoins],
    [resync_steps], [resync_sectors], [read_repairs] (per read piece,
    each live drive whose copy of the range was stale and got it written
    back), [write_failures] (drive writes that raised; see {!write}),
    [resyncs_completed]. *)

val register_metrics : t -> Amoeba_metrics.Metrics.t -> unit
(** Register this mirror's live surface: [mirror.sync_state] (0 clean,
    1 degraded, 2 resyncing), [mirror.sectors_remaining] (the resync
    backlog: dirty sectors on syncing drives, full capacity for offline
    drives — a rejoin starts fully dirty), [mirror.live_drives],
    [mirror.pending_writes], and every {!stats} counter under the
    [mirror.] prefix. *)
