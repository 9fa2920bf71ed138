(* The tracing context: a span stack over the simulated clock.

   Trace ids never come from wall clock or OS entropy.  A root span opened
   for an RPC derives its trace id by interning the message xid: the first
   distinct xid seen by this context becomes trace 1, the next trace 2,
   and retries of the same xid rejoin the same trace.  Interning (rather
   than using the raw xid) keeps dumps independent of how many xids the
   process handed out before this context was created, which is what makes
   an in-process double run byte-identical.  Roots with no xid (client
   backoff, ad-hoc spans) get synthetic ids counting down from -1.

   Zero-cost-when-off is a call-site discipline, not a property of this
   module: instrumented code holds a [ctx option] and must match on it
   before allocating names, attributes or closures.  With [None] the hot
   path runs the exact pre-trace code. *)

type frame = {
  f_trace : int;
  f_span : int;
  f_parent : int;
  f_depth : int;
  f_layer : Sink.layer;
  f_name : string;
  f_begin : int;
}

type ctx = {
  clock : Amoeba_sim.Clock.t;
  sink : Sink.t;
  mutable stack : frame list;
  mutable next_span_id : int;
  mutable next_synthetic : int;
  xid_trace : (int, int) Hashtbl.t; (* xid -> interned trace id *)
  mutable next_trace : int;
}

let create ?capacity ~clock () =
  {
    clock;
    sink = Sink.create ?capacity ();
    stack = [];
    next_span_id = 1;
    next_synthetic = -1;
    xid_trace = Hashtbl.create 64;
    next_trace = 1;
  }

let sink t = t.sink
let open_spans t = List.length t.stack

let fresh_synthetic t =
  let id = t.next_synthetic in
  t.next_synthetic <- id - 1;
  id

let intern_xid t xid =
  match Hashtbl.find_opt t.xid_trace xid with
  | Some id -> id
  | None ->
    let id = t.next_trace in
    t.next_trace <- id + 1;
    Hashtbl.replace t.xid_trace xid id;
    id

let push t ~trace ~layer ~name =
  let span_id = t.next_span_id in
  t.next_span_id <- span_id + 1;
  let parent, depth =
    match t.stack with
    | [] -> (0, 0)
    | top :: _ -> (top.f_span, top.f_depth + 1)
  in
  t.stack <-
    {
      f_trace = trace;
      f_span = span_id;
      f_parent = parent;
      f_depth = depth;
      f_layer = layer;
      f_name = name;
      f_begin = Amoeba_sim.Clock.now t.clock;
    }
    :: t.stack

let begin_root t ~xid ~layer ~name =
  let trace =
    match t.stack with
    | top :: _ -> top.f_trace (* nested RPC: stay inside the caller's trace *)
    | [] -> if xid <> 0 then intern_xid t xid else fresh_synthetic t
  in
  push t ~trace ~layer ~name

let begin_span t ~layer ~name =
  let trace =
    match t.stack with
    | top :: _ -> top.f_trace
    | [] -> fresh_synthetic t
  in
  push t ~trace ~layer ~name

let end_span_attrs t attrs =
  match t.stack with
  | [] -> invalid_arg "Trace.end_span: no open span"
  | top :: rest ->
    t.stack <- rest;
    Sink.emit t.sink
      {
        Sink.trace_id = top.f_trace;
        span_id = top.f_span;
        parent_id = top.f_parent;
        depth = top.f_depth;
        layer = top.f_layer;
        name = top.f_name;
        begin_us = top.f_begin;
        end_us = Amoeba_sim.Clock.now t.clock;
        attrs;
      }

let end_span t = end_span_attrs t []

let event t ~layer ~name attrs =
  let span_id = t.next_span_id in
  t.next_span_id <- span_id + 1;
  let trace, parent, depth =
    match t.stack with
    | [] -> (fresh_synthetic t, 0, 0)
    | top :: _ -> (top.f_trace, top.f_span, top.f_depth + 1)
  in
  let now = Amoeba_sim.Clock.now t.clock in
  Sink.emit t.sink
    {
      Sink.trace_id = trace;
      span_id;
      parent_id = parent;
      depth;
      layer;
      name;
      begin_us = now;
      end_us = now;
      attrs;
    }

let in_span t ~layer ~name f =
  begin_span t ~layer ~name;
  match f () with
  | v ->
    end_span t;
    v
  | exception e ->
    end_span_attrs t [ ("raised", Sink.S (Printexc.to_string e)) ];
    raise e
