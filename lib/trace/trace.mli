(** The tracing context: an open-span stack over the simulated clock.

    Trace ids are derived from RPC xids by per-context interning — the
    first distinct xid becomes trace 1, retries of the same xid rejoin
    their trace — so a dump depends only on the traced scenario, never on
    global process state or wall clock.  Roots without an xid get
    synthetic ids counting down from -1.

    Instrumented modules hold a [ctx option] and must match on it before
    building names, attributes or closures; the [None] arm must be the
    exact untraced code path.  That discipline, not this module, is what
    makes tracing allocation-free when off. *)

type ctx

val create : ?capacity:int -> clock:Amoeba_sim.Clock.t -> unit -> ctx
(** [capacity] sizes the span ring buffer (default 65536 spans). *)

val sink : ctx -> Sink.t

val open_spans : ctx -> int
(** Depth of the open-span stack (0 between requests). *)

val begin_root : ctx -> xid:int -> layer:Sink.layer -> name:string -> unit
(** Open a root span.  With an empty stack, [xid <> 0] interns the xid as
    the trace id and [xid = 0] mints a synthetic negative id; with spans
    already open (a nested RPC) the span joins the enclosing trace. *)

val begin_span : ctx -> layer:Sink.layer -> name:string -> unit
(** Open a child of the innermost open span (or a synthetic root). *)

val end_span : ctx -> unit
(** Close the innermost span at the clock's current simulated time and
    emit it.  Raises [Invalid_argument] if no span is open. *)

val end_span_attrs : ctx -> (string * Sink.value) list -> unit
(** {!end_span} with attributes attached to the emitted span. *)

val event : ctx -> layer:Sink.layer -> name:string -> (string * Sink.value) list -> unit
(** Emit a zero-length span at the current time under the innermost open
    span. *)

val in_span : ctx -> layer:Sink.layer -> name:string -> (unit -> 'a) -> 'a
(** Run [f] inside a span; exception-safe (a raise closes the span with a
    ["raised"] attribute and re-raises). *)
