(** Client-side whole-file cache.

    The client analogue of the server's RAM cache: immutable Bullet files,
    keyed by their {e capability} (object number + sealed check field), so
    a name re-bound to a new version — a new capability — can never alias
    stale bytes. Byte-bounded with LRU eviction on a deterministic
    monotonic tick. Holds data only; whether a cached file may be served
    without asking the server is the lease layer's decision
    ({!Station}). *)

type t

val create : capacity_bytes:int -> t

val find : t -> Amoeba_cap.Capability.t -> bytes option
(** Cached contents for this exact capability; refreshes its LRU age.
    Counts [hits]/[misses]. *)

val insert : t -> Amoeba_cap.Capability.t -> bytes -> unit
(** Cache a file, evicting LRU entries until it fits. A file larger than
    the whole cache is not cached ([oversize_rejects]). *)

val remove : t -> Amoeba_cap.Capability.t -> unit
(** Drop one entry (revocation path); absent keys are ignored. *)

val clear : t -> unit

val capacity : t -> int

val used_bytes : t -> int

val resident_files : t -> int

val stats : t -> Amoeba_sim.Stats.t
(** Counters: [hits], [misses], [insertions], [evictions],
    [oversize_rejects], and [bytes_evicted] (present from creation). *)

val bytes_evicted : t -> int
(** Payload bytes dropped by LRU replacement so far: the
    [bytes_evicted] cell of {!stats}, mirroring the server cache's
    counter of the same name so benches report both sides
    symmetrically. *)

val register_metrics : t -> prefix:string -> Amoeba_metrics.Metrics.t -> unit
(** Register [<prefix>.used_bytes], [<prefix>.capacity_bytes],
    [<prefix>.resident_files] and every {!stats} counter (so
    [<prefix>.bytes_evicted]) under the prefix. *)

val set_tracer : t -> Amoeba_trace.Trace.ctx option -> unit
(** With a tracer, each eviction emits a [cache.client_evict] event. *)
