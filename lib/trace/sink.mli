(** Span records and the fixed-capacity ring-buffer collector.

    Spans carry simulated-time stamps only; nothing in this module may
    observe host time.  The JSONL rendering emits fields in a fixed order
    with no whitespace so identical runs dump byte-identical traces. *)

(** Which layer of the stack a span's time belongs to.  [Cpu] is the
    server's per-request CPU charge, [Cache] covers cache memcpy traffic,
    [Disk] the seek/rotation/transfer components of device access. *)
type layer = Net | Server | Cpu | Cache | Disk | Alloc | Client

type value = I of int | S of string

type span = {
  trace_id : int;  (** interned RPC xid, or negative for synthetic roots *)
  span_id : int;  (** unique per context, in begin order *)
  parent_id : int;  (** 0 when the span is a root of its trace *)
  depth : int;  (** 0 for roots; children are parent depth + 1 *)
  layer : layer;
  name : string;
  begin_us : int;  (** simulated time *)
  end_us : int;  (** simulated time; equal to [begin_us] for events *)
  attrs : (string * value) list;
}

type t

val create : ?capacity:int -> unit -> t
(** Ring buffer holding the most recent [capacity] spans (default 65536). *)

val emit : t -> span -> unit
(** Append a span; once full, each emit overwrites the oldest span and
    increments {!dropped}. *)

val spans : t -> span list
(** Retained spans, oldest first (emission order when not wrapped). *)

val clear : t -> unit
val capacity : t -> int
val length : t -> int
val dropped : t -> int

val layer_name : layer -> string

val line_of_span : span -> string
(** One JSONL line, fixed field order, no trailing newline. *)

val to_jsonl : t -> string
(** All retained spans as newline-terminated JSONL lines. *)

val span_of_line : string -> (span, string) result
(** Parse a line produced by {!line_of_span}. *)
