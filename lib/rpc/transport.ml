type service = Message.t -> Message.t

(* At-most-once execution for mutations over a lossy wire: remember the
   reply to each xid-stamped request, bounded FIFO. A retry of a request
   whose reply was lost (or that arrived in duplicate) gets the cached
   reply instead of executing again. The cache lives with the
   registration, not the server state — a reboot forgets it, which is the
   honest at-most-once window of the real protocol. *)
(* replies remembered per registration *)
let capacity = 1024

let dedup ?on_hit service =
  let replies : (int, Message.t) Hashtbl.t = Hashtbl.create capacity in
  let order = Queue.create () in
  fun request ->
    let xid = request.Message.xid in
    if xid = 0 then service request
    else
      match Hashtbl.find_opt replies xid with
      | Some reply ->
        (match on_hit with None -> () | Some f -> f request);
        reply
      | None ->
        let reply = service request in
        if Hashtbl.length replies >= capacity then Hashtbl.remove replies (Queue.pop order);
        Hashtbl.replace replies xid reply;
        Queue.add xid order;
        reply

type delivery = Deliver | Drop_request | Drop_reply | Duplicate_request | Corrupt_reply

type fault_hook = link:Link.t option -> Message.t -> delivery

module Port_table = Hashtbl.Make (struct
  type t = Amoeba_cap.Port.t

  let equal = Amoeba_cap.Port.equal

  let hash = Amoeba_cap.Port.hash
end)

type t = {
  clock : Amoeba_sim.Clock.t;
  services : service Port_table.t;
  stats : Amoeba_sim.Stats.t;
  mutable fault_hook : fault_hook option;
  mutable tracer : Amoeba_trace.Trace.ctx option;
}

let create ~clock =
  {
    clock;
    services = Port_table.create 16;
    stats = Amoeba_sim.Stats.create "transport";
    fault_hook = None;
    tracer = None;
  }

let clock t = t.clock

let register t port service =
  if Port_table.mem t.services port then
    invalid_arg
      (Printf.sprintf "Transport.register: port %s already bound" (Amoeba_cap.Port.to_string port));
  Port_table.replace t.services port service

let unregister t port = Port_table.remove t.services port

let set_fault_hook t hook = t.fault_hook <- hook

let set_tracer t tracer = t.tracer <- tracer

let tracer t = t.tracer

let log_src = Logs.Src.create "amoeba.rpc" ~doc:"Amoeba RPC transport"

module Log = (val Logs.src_log log_src)

let delivery_name = function
  | Deliver -> "deliver"
  | Drop_request -> "drop_request"
  | Drop_reply -> "drop_reply"
  | Duplicate_request -> "duplicate_request"
  | Corrupt_reply -> "corrupt_reply"

(* The client stub sent a request and no reply arrived: it learns nothing
   until its timer fires, so the transaction costs the full timeout
   interval from the moment of the send, whatever already happened on the
   wire. *)
let timed_out t ~model ~start reason =
  Amoeba_sim.Stats.incr t.stats reason;
  Amoeba_sim.Stats.incr t.stats "timeouts";
  (match t.tracer with
  | None -> Amoeba_sim.Clock.advance_to t.clock (start + model.Net_model.timeout_us)
  | Some tr ->
    Amoeba_trace.Trace.begin_span tr ~layer:Amoeba_trace.Sink.Net ~name:"net.timeout";
    Amoeba_sim.Clock.advance_to t.clock (start + model.Net_model.timeout_us);
    Amoeba_trace.Trace.end_span_attrs tr [ ("reason", Amoeba_trace.Sink.S reason) ]);
  Message.error Status.Timeout

(* Close the transaction's root span on every exit path with the reply
   status.  Top-level (not a closure inside [trans]) so the untraced hot
   path allocates nothing. *)
let finish t reply =
  (match t.tracer with
  | None -> ()
  | Some tr ->
    Amoeba_trace.Trace.end_span_attrs tr
      [ ("status", Amoeba_trace.Sink.S (Status.to_string reply.Message.status)) ]);
  reply

let trans ?link t ~model request =
  let start = Amoeba_sim.Clock.now t.clock in
  Amoeba_sim.Stats.incr t.stats "transactions";
  (match t.tracer with
  | None -> ()
  | Some tr ->
    Amoeba_trace.Trace.begin_root tr ~xid:request.Message.xid
      ~layer:Amoeba_trace.Sink.Net ~name:"rpc";
    (* No raw xid here: xids come from a process-global counter, and the
       interned trace id already names the transaction — raw values would
       make otherwise-identical dumps differ between runs in one process. *)
    Amoeba_trace.Trace.event tr ~layer:Amoeba_trace.Sink.Client ~name:"rpc.request"
      [ ("cmd", Amoeba_trace.Sink.I request.Message.command) ]);
  (* Consult the fault plan before delivery: the hook may also fire
     scheduled events (crash, reboot, drive failure) that are due now. *)
  let verdict = match t.fault_hook with None -> Deliver | Some hook -> hook ~link request in
  (match t.tracer with
  | None -> ()
  | Some tr ->
    if verdict <> Deliver then
      Amoeba_trace.Trace.event tr ~layer:Amoeba_trace.Sink.Net ~name:"net.fault"
        [ ("verdict", Amoeba_trace.Sink.S (delivery_name verdict)) ]);
  let request_bytes = Message.wire_bytes request in
  Amoeba_sim.Stats.add t.stats "bytes_sent" request_bytes;
  (match t.tracer with
  | None ->
    Amoeba_sim.Clock.advance t.clock model.Net_model.latency_us;
    Amoeba_sim.Clock.advance t.clock (Net_model.transmit_us model request_bytes)
  | Some tr ->
    Amoeba_trace.Trace.begin_span tr ~layer:Amoeba_trace.Sink.Net ~name:"net.send";
    Amoeba_sim.Clock.advance t.clock model.Net_model.latency_us;
    Amoeba_sim.Clock.advance t.clock (Net_model.transmit_us model request_bytes);
    Amoeba_trace.Trace.end_span_attrs tr [ ("bytes", Amoeba_trace.Sink.I request_bytes) ]);
  if verdict = Drop_request then finish t (timed_out t ~model ~start "dropped_requests")
  else
    match Port_table.find_opt t.services request.Message.port with
    | None ->
      (* Unbound (or crashed) port: nothing answers, so the client pays
         its timeout interval, not one network latency. *)
      Amoeba_sim.Stats.incr t.stats "unbound_port";
      finish t (timed_out t ~model ~start "unbound_timeouts")
    | Some service ->
      let run () =
        try service request
        with e ->
          Log.warn (fun m ->
              m "service on %a raised %s" Amoeba_cap.Port.pp request.Message.port
                (Printexc.to_string e));
          Message.error Status.Server_failure
      in
      let reply = run () in
      (* A duplicated request reaches the server twice; the second
         execution happens off the client's critical path (the client
         only waits for the first reply). Dedup, if any, is the
         service's business. *)
      if verdict = Duplicate_request then begin
        Amoeba_sim.Stats.incr t.stats "duplicated_requests";
        ignore (Amoeba_sim.Clock.unobserved t.clock run)
      end;
      (match verdict with
      | Drop_reply -> finish t (timed_out t ~model ~start "dropped_replies")
      | Corrupt_reply ->
        (* Per-packet checksums catch the damage; a corrupted reply is
           discarded by the client's RPC stub and surfaces as a loss. *)
        finish t (timed_out t ~model ~start "corrupted_replies")
      | Deliver | Duplicate_request | Drop_request ->
        let reply_bytes = Message.wire_bytes reply in
        Amoeba_sim.Stats.add t.stats "bytes_received" reply_bytes;
        (match t.tracer with
        | None -> Amoeba_sim.Clock.advance t.clock (Net_model.transmit_us model reply_bytes)
        | Some tr ->
          Amoeba_trace.Trace.begin_span tr ~layer:Amoeba_trace.Sink.Net ~name:"net.recv";
          Amoeba_sim.Clock.advance t.clock (Net_model.transmit_us model reply_bytes);
          Amoeba_trace.Trace.end_span_attrs tr
            [ ("bytes", Amoeba_trace.Sink.I reply_bytes) ]);
        finish t reply)

let stats t = t.stats

let register_metrics t reg =
  let module M = Amoeba_metrics.Metrics in
  M.gauge reg "rpc.registered_ports" (fun () -> Port_table.length t.services);
  M.stats_source reg ~prefix:"rpc" t.stats
