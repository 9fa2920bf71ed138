(** LEASE — the zero-RPC read fast path, end to end.

    A trusted station (holding the Bullet server's sealer out of band)
    reads a hot file through {!Amoeba_lease.Station}: the first read pays
    the lease grant plus the fetch, every repeat read under the lease
    issues {e zero} RPCs and finishes in local-verify + memcpy time. The
    untrusted path still pays exactly one verification round trip. Four
    fault plans — a replace racing lease expiry, the directory primary
    crashing on the epoch bump, message loss across revalidations, and a
    skewed client lease clock (scripted via the [lease_skew] plan
    grammar) — must all show zero stale serves. Finally the LOAD
    machinery re-derives the hot-read demand profile from a traced leased
    read and shows the saturation knee moving right of the plain-RPC
    baseline. The section raises [Failure] if any of these invariants is
    violated. *)

val lease_trace : unit -> Amoeba_trace.Sink.t
(** A small scripted lease scenario with the tracer on — grant, zero-RPC
    cache hits, expiry and renewal, revocation after a replace, and a
    failed read after removal. Deterministic; [bullet_trace --lease]
    renders it. *)

val run : unit -> string list
(** Print the section; returns the contents of [BENCH_lease.json]. *)
