(** A leased client station: the zero-RPC read fast path.

    Combines three pieces: a whole-file client cache ({!File_cache}),
    client-side capability verification (trusted stations hold the Bullet
    server's sealer and check capabilities locally), and Gray & Cheriton
    leases over directory bindings ({!Amoeba_dir.Dir_server}). A repeat
    read of a cached immutable file under a valid lease issues {e zero}
    RPCs and spends zero simulated network time — only a few µs of local
    verification and the client-memory copy.

    The safety invariant — no stale byte, ever — is pinned by three
    rules: (1) the lease deadline is dated from the request {e send}
    time, never later than the server's grant; (2) the directory server
    waits out every granted lease before completing an epoch-bumping
    mutation; (3) a lease-clock step backwards drops every lease
    (see {!set_skew}). *)

type config = { cache_bytes : int  (** client file-cache capacity *) }

type t

val create :
  ?config:config ->
  ?sealer:Amoeba_cap.Sealer.t ->
  store:Bullet_core.Client.t ->
  dirs:Amoeba_dir.Dir_client.t ->
  unit ->
  t
(** A station reading files named in [dirs] and stored in [store].
    With [sealer] (obtained out of band — {!Bullet_core.Server.sealer})
    the station is {e trusted} and verifies capabilities locally; without
    it, cache hits still need one cheap verification RPC, so the
    untrusted path is unchanged in structure, only in count. *)

val read : t -> dir:Amoeba_cap.Capability.t -> string -> bytes
(** Read the file bound to [name] in [dir]. Fast path (valid lease,
    cached file): zero RPCs. Lapsed lease: one [renew_lease] RPC; if the
    epoch moved, cached bindings and bytes for that directory are
    dropped and re-fetched. Unknown binding: one [lookup_lease] RPC.
    Uncached file: a Bullet read, then the file is cached. The result
    is the caller's own copy, never the cached buffer.
    Raises {!Amoeba_rpc.Status.Error} as the underlying stubs do (e.g.
    [Not_found] after a DELETE). *)

val set_skew : t -> int -> unit
(** Set the station's lease-clock offset (µs, may be negative) — the
    [Lease_clock_skew] fault hook. Stepping the clock {e backwards}
    drops every held lease: deadlines measured on the faster clock can
    no longer be trusted. Forward steps only expire leases early. *)

val trusted : t -> bool

val cache : t -> File_cache.t

val stats : t -> Amoeba_sim.Stats.t
(** Counters: [reads], [leased_reads] (served from cache under a lease),
    [local_verifies], [remote_verifies], [lease_grants],
    [lease_renewals], [lease_revokes], [lease_expiries], [retries],
    [lease_clock_steps_back]. *)

val set_tracer : t -> Amoeba_trace.Trace.ctx option -> unit
(** Traced stations wrap each read in a ["leased.read"] root span (layer
    Client) and emit [lease.grant]/[lease.renew]/[lease.expire]/
    [lease.revoke] and [cache.client_hit]/[cache.client_miss]/
    [cache.client_evict] events; cache-hit copies appear as
    ["station.memcpy"] spans. *)

val register_metrics : t -> Amoeba_metrics.Metrics.t -> unit
(** Register the station's live surface: a [lease.churn] gauge (the sum
    of grant/renewal/revoke/expiry/clock-step events, whose per-interval
    delta the health evaluator watches), [lease.skew_us], every {!stats}
    counter under [lease.], and the client {!File_cache} under
    [client_cache.]. *)
