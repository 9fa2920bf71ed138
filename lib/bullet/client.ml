module Message = Amoeba_rpc.Message
module Status = Amoeba_rpc.Status

type t = {
  transport : Amoeba_rpc.Transport.t;
  model : Amoeba_rpc.Net_model.t;
  link : Amoeba_rpc.Link.t option;
  service : Amoeba_cap.Port.t;
  attempts : int;
  backoff_us : int;
  stats : Amoeba_sim.Stats.t;
  trans_hist : Amoeba_sim.Stats.Hist.t;
      (* held directly so recording per-transaction latency never does a
         by-name table lookup on the hot path *)
}

(* Transaction ids need only be unique per server dedup window; a
   process-wide counter keeps them unique across every client instance,
   and since clients issue operations in a deterministic order the ids
   themselves are deterministic. 0 is reserved for "no id". *)
let xid_counter = ref 0

let fresh_xid () =
  incr xid_counter;
  !xid_counter

let connect ?(model = Amoeba_rpc.Net_model.amoeba) ?link ?(attempts = 1) ?(backoff_us = 50_000)
    transport service =
  if attempts < 1 then invalid_arg "Client.connect: attempts must be at least 1";
  let stats = Amoeba_sim.Stats.create "bullet-client" in
  {
    transport;
    model;
    link;
    service;
    attempts;
    backoff_us;
    stats;
    trans_hist = Amoeba_sim.Stats.hist stats "trans_us";
  }

let port t = t.service

let transport t = t.transport

let stats t = t.stats

(* Retry only on Timeout: any other status is a definitive answer from
   the server. Idempotent requests carry xid = 0 and are simply
   re-executed; mutations carry a fresh xid, reused verbatim on each
   retry, which the server deduplicates. Waits double between attempts. *)
let trans t request =
  let clock = Amoeba_rpc.Transport.clock t.transport in
  let rec go attempt =
    let reply = Amoeba_rpc.Transport.trans ?link:t.link t.transport ~model:t.model request in
    if reply.Message.status <> Status.Timeout then reply
    else begin
      Amoeba_sim.Stats.incr t.stats "timeouts";
      if attempt >= t.attempts then begin
        Amoeba_sim.Stats.incr t.stats "exhausted";
        reply
      end
      else begin
        Amoeba_sim.Stats.incr t.stats "retries";
        let wait_us = Amoeba_fault.Backoff.doubling ~base_us:t.backoff_us ~attempt in
        (match Amoeba_rpc.Transport.tracer t.transport with
        | None -> Amoeba_sim.Clock.advance clock wait_us
        | Some tr ->
          Amoeba_trace.Trace.begin_root tr ~xid:request.Message.xid
            ~layer:Amoeba_trace.Sink.Client ~name:"rpc.backoff";
          Amoeba_sim.Clock.advance clock wait_us;
          Amoeba_trace.Trace.end_span_attrs tr [ ("attempt", Amoeba_trace.Sink.I attempt) ]);
        go (attempt + 1)
      end
    end
  in
  Amoeba_sim.Stats.incr t.stats "transactions";
  let start = Amoeba_sim.Clock.now clock in
  let reply = go 1 in
  Amoeba_sim.Stats.Hist.record t.trans_hist (Amoeba_sim.Clock.now clock - start);
  reply

let checked t request =
  let reply = trans t request in
  Status.check reply.Message.status;
  reply

let cap_of reply =
  match reply.Message.cap with
  | Some cap -> cap
  | None -> raise (Status.Error Status.Server_failure)

let create t ?(p_factor = 2) data =
  cap_of
    (checked t
       (Message.request ~port:t.service ~command:Proto.cmd_create ~arg0:p_factor
          ~xid:(fresh_xid ()) ~body:data ()))

let size t cap =
  let reply = checked t (Message.request ~port:t.service ~command:Proto.cmd_size ~cap ()) in
  reply.Message.arg0

let read_now t cap =
  let reply = checked t (Message.request ~port:t.service ~command:Proto.cmd_read ~cap ()) in
  reply.Message.body

let read t cap =
  let (_ : int) = size t cap in
  read_now t cap

let delete t cap =
  let (_ : Message.t) =
    checked t
      (Message.request ~port:t.service ~command:Proto.cmd_delete ~cap ~xid:(fresh_xid ()) ())
  in
  ()

let read_range t cap ~pos ~len =
  let reply =
    checked t
      (Message.request ~port:t.service ~command:Proto.cmd_read_range ~cap ~arg0:pos ~arg1:len ())
  in
  reply.Message.body

let modify t cap ~pos data =
  cap_of
    (checked t
       (Message.request ~port:t.service ~command:Proto.cmd_modify ~cap ~arg0:2 ~arg1:pos
          ~xid:(fresh_xid ()) ~body:data ()))

let append t cap data =
  cap_of
    (checked t
       (Message.request ~port:t.service ~command:Proto.cmd_append ~cap ~arg0:2
          ~xid:(fresh_xid ()) ~body:data ()))

let truncate t cap n =
  cap_of
    (checked t
       (Message.request ~port:t.service ~command:Proto.cmd_truncate ~cap ~arg0:2 ~arg1:n
          ~xid:(fresh_xid ()) ()))

let restrict t cap rights =
  cap_of
    (checked t
       (Message.request ~port:t.service ~command:Proto.cmd_restrict ~cap
          ~arg0:(Amoeba_cap.Rights.to_int rights) ()))

(* ---- two-phase commit legs ----

   Result-typed, not raising: a vote of no and a decision timeout are
   ordinary protocol outcomes the coordinator must branch on, not
   exceptions. Every leg is a mutation and carries a fresh xid (retries
   of one send reuse it; a coordinator {e re-send} after recovery is a
   new send with a new xid — participant idempotence, not the dedup
   cache, covers those). *)

let txn_unit_result reply =
  match reply.Message.status with Status.Ok -> Ok () | s -> Error s

let txn_prepare_create t ~txn data =
  let reply =
    trans t
      (Message.request ~port:t.service ~command:Proto.cmd_txn_prepare ~arg0:txn
         ~arg1:(Proto.encode_txn_kind Server.Txn_create)
         ~xid:(fresh_xid ()) ~body:data ())
  in
  match reply.Message.status with
  | Status.Ok -> (
    match reply.Message.cap with Some c -> Ok c | None -> Error Status.Server_failure)
  | s -> Error s

let txn_prepare_delete t ~txn cap =
  txn_unit_result
    (trans t
       (Message.request ~port:t.service ~command:Proto.cmd_txn_prepare ~arg0:txn
          ~arg1:(Proto.encode_txn_kind Server.Txn_delete)
          ~cap ~xid:(fresh_xid ()) ()))

let txn_commit t ~txn ~kind cap =
  txn_unit_result
    (trans t
       (Message.request ~port:t.service ~command:Proto.cmd_txn_commit ~arg0:txn
          ~arg1:(Proto.encode_txn_kind kind) ~cap ~xid:(fresh_xid ()) ()))

let txn_abort t ~txn ~kind cap =
  txn_unit_result
    (trans t
       (Message.request ~port:t.service ~command:Proto.cmd_txn_abort ~arg0:txn
          ~arg1:(Proto.encode_txn_kind kind) ~cap ~xid:(fresh_xid ()) ()))

let txn_abort_all t ~txn =
  txn_unit_result
    (trans t
       (Message.request ~port:t.service ~command:Proto.cmd_txn_abort ~arg0:txn
          ~xid:(fresh_xid ()) ()))

type stat_info = Proto.stat = {
  live_files : int;
  free_blocks : int;
  data_blocks : int;
  cache_used : int;
  cache_capacity : int;
}

let stat t =
  let reply = checked t (Message.request ~port:t.service ~command:Proto.cmd_stat ()) in
  Proto.decode_stat reply.Message.body
