(** A deterministic fault plan: what goes wrong, and when.

    A plan is pure data — a seed for the probabilistic faults and a
    schedule of scripted events on the virtual clock. The same plan
    attached to the same rig produces byte-identical behaviour, which is
    what makes fault experiments reportable: "availability through a
    drive failure" is a number, not a distribution over reruns.

    Scripted events cover the hard state changes (a drive dies at
    [T], the server crashes at [T'], …); rate events switch the
    probabilistic faults (message loss, duplication, corruption,
    transient sector errors) on and off, so one plan can express e.g.
    "5% loss between t=2s and t=10s". Link-scoped events target one
    {!Amoeba_rpc.Link.t} class, so a plan can degrade or partition the
    international line while local traffic is untouched. *)

(** Where a scripted two-phase-commit crash lands. The coordinator
    edges bracket its durable records: before any prepare is sent (the
    begin record is down, nothing else), after every participant voted
    yes but before the commit record, after the commit record but
    before any decision message, and in the middle of fanning the
    decision out (some participants have it, some do not). The
    participant edge crashes a server that voted yes and then died
    holding prepared state. *)
type txn_edge =
  | Coord_before_prepare
  | Coord_after_prepare
  | Coord_after_commit_record
  | Coord_mid_decision
  | Participant_after_prepare

(** One of the four message legs of the 2PC exchange: the prepare
    request, the vote carried on its reply, the decision
    (commit/abort) request, and the ack carried on its reply. *)
type txn_leg = Prepare_request | Prepare_reply | Decision_request | Decision_reply

val txn_leg_name : txn_leg -> string
(** The DSL spelling ([prepare_req], …). *)

type event =
  | Drive_fail of int  (** take the [i]th mirror drive offline *)
  | Drive_recover
      (** repair every failed drive and resync it from the primary
          (whole-disk copy, the paper's recovery) *)
  | Drive_rejoin of int
      (** bring every failed drive back online fully dirty and start an
          online resync that copies at most this many sectors per step,
          interleaved with foreground I/O (see
          [Amoeba_disk.Mirror.rejoin]/[resync_step]) *)
  | Server_crash  (** invoke the harness's crash action *)
  | Server_reboot  (** invoke the harness's reboot action *)
  | Message_loss of float  (** per-direction drop probability *)
  | Message_duplication of float  (** request duplication probability *)
  | Message_corruption of float
      (** reply corruption probability (checksums detect it, so it
          behaves as a loss) *)
  | Sector_errors of float  (** per-read transient media error probability *)
  | Link_loss of Amoeba_rpc.Link.t * float
      (** per-direction drop probability for transactions tagged with
          this link class only *)
  | Link_partition of Amoeba_rpc.Link.t
      (** every transaction on this link class times out (no draw) *)
  | Link_heal of Amoeba_rpc.Link.t
      (** clear this link class's loss rate and partition *)
  | Lease_clock_skew of int
      (** offset (µs, may be negative) applied to the harness's client
          lease clock — models a station whose idea of "how long is my
          lease still good" drifts from the server's. Lease safety must
          hold regardless; only liveness (revalidation frequency) may
          degrade. See [Amoeba_lease.Station.set_skew]. *)
  | Txn_crash of txn_edge
      (** arm a crash at one protocol edge; it fires when the harness's
          transaction reaches that edge (see [Injector.txn_point]) and
          is then handed to the harness's [act] *)
  | Txn_drop of txn_leg * int
      (** drop the next [n] transaction messages on this leg — targeted
          loss, unlike the probabilistic [Message_loss] *)
  | Txn_dup of txn_leg
      (** duplicate the next transaction message on this leg. Request
          legs re-execute the service (exercising participant
          idempotence); a duplicated {e reply} is discarded by the
          client stub's transaction matching, so reply legs count the
          duplicate and deliver normally. *)
  | Shard_kill of string
      (** kill the named cluster server — permanently, mid-whatever the
          rebalancer is doing. The harness's [act] receives the
          event; for a cluster rig it calls
          [Amoeba_cluster.Cluster.kill_server], which unregisters the
          port, crashes the server, drops its replicas and marks the
          ring-delta shards for re-replication on the survivors. *)

type step = { at_us : int; event : event }

type t

val create : seed:int64 -> t
(** An empty plan. [seed] drives every probabilistic draw. *)

val at : t -> us:int -> event -> t
(** Schedule [event] at virtual time [us]. Events at equal times fire in
    the order they were added. *)

val seed : t -> int64

val steps : t -> step list
(** In schedule-insertion order. *)

val pp_event : Format.formatter -> event -> unit

val parse : string -> (t, string) result
(** Parse the plan-file DSL, one directive per line ([#] comments and
    blank lines ignored):
    {v
    seed <int64>
    at <us> drive_fail <i>
    at <us> drive_recover
    at <us> drive_rejoin <batch>
    at <us> server_crash
    at <us> server_reboot
    at <us> loss <p>
    at <us> dup <p>
    at <us> corrupt <p>
    at <us> sector_errors <p>
    at <us> link_loss <local|regional|wide> <p>
    at <us> link_partition <local|regional|wide>
    at <us> link_heal <local|regional|wide>
    at <us> lease_skew <offset_us>
    at <us> txn_crash <edge>
    at <us> txn_drop <leg> <count>
    at <us> txn_dup <leg>
    at <us> shard_kill <server>
    v}
    [lease_skew]'s offset may be negative (a slow client clock).
    [<edge>] is a {!txn_edge} spelling and [<leg>] a {!txn_leg}
    spelling. The seed defaults to [1] when no [seed] line appears.
    Errors carry the line number, the 1-based column of the offending
    token, and the token itself, e.g.
    ["plan line 2, col 4: unknown directive: \"nonsense\""]. This is
    what [bulletd --fault-plan] loads. *)
