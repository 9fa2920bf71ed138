module Clock = Amoeba_sim.Clock
module Prng = Amoeba_sim.Prng
module Stats = Amoeba_sim.Stats
module Transport = Amoeba_rpc.Transport
module Link = Amoeba_rpc.Link
module Block_device = Amoeba_disk.Block_device
module Mirror = Amoeba_disk.Mirror
module Event_queue = Amoeba_sim.Event_queue

(* Per-link-class fault state, indexed by [link_index]. *)
type link_state = { mutable link_loss : float; mutable partitioned : bool }

type t = {
  clock : Clock.t;
  prng : Prng.t;
  queue : Plan.event Event_queue.t;
  transport : Transport.t option;
  mirror : Mirror.t option;
  act : Plan.event -> unit; (* crash, reboot, skew, kill, txn crash: the harness acts them out *)
  stats : Stats.t;
  mutable loss : float;
  mutable duplication : float;
  mutable corruption : float;
  mutable sector_errors : float;
  links : link_state array;
  mutable txn_armed : Plan.txn_edge option;
  txn_drops : int array; (* remaining targeted drops, indexed by [leg_index] *)
  txn_dups : int array; (* remaining targeted duplications, same index *)
  mutable resync_batch : int option;
  mutable resync_started_us : int;
  mutable firing : bool;
  mutable detached : bool;
}

let log_src = Logs.Src.create "amoeba.fault" ~doc:"Fault injection"

module Log = (val Logs.src_log log_src)

let link_index : Link.t -> int = function Local -> 0 | Regional -> 1 | Wide -> 2

let link_state t l = t.links.(link_index l)

let leg_index : Plan.txn_leg -> int = function
  | Prepare_request -> 0
  | Prepare_reply -> 1
  | Decision_request -> 2
  | Decision_reply -> 3

(* The txn wire commands, by number: Bullet prepare/commit/abort are
   20/21/22 ([Bullet_core.Proto]) and directory prepare/commit/abort
   are 25/26/27 ([Amoeba_dir.Dir_proto]).  Those ranges are disjoint
   from every other service's commands precisely so the injector can
   classify a message's 2PC exchange from the command number alone,
   without a dependency on either proto module. *)
let txn_exchange_of_command = function
  | 20 | 25 -> Some (Plan.Prepare_request, Plan.Prepare_reply)
  | 21 | 22 | 26 | 27 -> Some (Plan.Decision_request, Plan.Decision_reply)
  | _ -> None

(* Event work runs off the measured path — recovery and reboot proceed in
   the background of whichever client transaction happened to trigger the
   poll — but its duration is still recorded, so experiments can report
   resync and reboot times without distorting client latencies. *)
let record t key f =
  Clock.unobserved t.clock (fun () ->
      let (), duration = Clock.elapsed t.clock f in
      Stats.observe t.stats key (float_of_int duration))

let apply t event =
  Log.info (fun m -> m "t=%d us: %a" (Clock.now t.clock) Plan.pp_event event);
  match (event : Plan.event) with
  | Drive_fail i -> (
    match t.mirror with
    | None -> invalid_arg "Injector: Drive_fail in a plan attached without a mirror"
    | Some mirror ->
      Block_device.fail (List.nth (Mirror.drives mirror) i);
      Stats.incr t.stats "drive_failures")
  | Drive_recover -> (
    match t.mirror with
    | None -> invalid_arg "Injector: Drive_recover in a plan attached without a mirror"
    | Some mirror ->
      record t "resync_us" (fun () -> Mirror.recover mirror);
      Stats.incr t.stats "drive_recoveries")
  | Drive_rejoin batch -> (
    match t.mirror with
    | None -> invalid_arg "Injector: Drive_rejoin in a plan attached without a mirror"
    | Some mirror ->
      (* No bulk copy here: the drive comes back fully dirty and the
         backlog drains a bounded batch at a time, interleaved with the
         foreground traffic that keeps flowing meanwhile. *)
      Mirror.rejoin mirror;
      t.resync_batch <- Some batch;
      t.resync_started_us <- Clock.now t.clock;
      Stats.incr t.stats "drive_rejoins")
  | Server_crash ->
    t.act event;
    Stats.incr t.stats "server_crashes"
  | Server_reboot ->
    record t "reboot_us" (fun () -> t.act event);
    Stats.incr t.stats "server_reboots"
  | Message_loss p -> t.loss <- p
  | Message_duplication p -> t.duplication <- p
  | Message_corruption p -> t.corruption <- p
  | Sector_errors p -> t.sector_errors <- p
  | Link_loss (l, p) -> (link_state t l).link_loss <- p
  | Link_partition l -> (link_state t l).partitioned <- true
  | Link_heal l ->
    let s = link_state t l in
    s.link_loss <- 0.;
    s.partitioned <- false
  | Lease_clock_skew _ ->
    t.act event;
    Stats.incr t.stats "lease_skews"
  | Txn_crash edge ->
    t.txn_armed <- Some edge;
    Stats.incr t.stats "txn_crashes_armed"
  | Txn_drop (leg, n) ->
    let i = leg_index leg in
    t.txn_drops.(i) <- t.txn_drops.(i) + n
  | Txn_dup leg ->
    let i = leg_index leg in
    t.txn_dups.(i) <- t.txn_dups.(i) + 1
  | Shard_kill _ ->
    t.act event;
    Stats.incr t.stats "shard_kills"

(* The [firing] flag makes event application atomic from the hooks' point
   of view: a reboot's boot scan reads the disk and re-registers a port,
   and those inner operations must not recursively fire events or draw
   probabilistic faults. *)
let rec fire_due t =
  if not t.firing then
    match Event_queue.peek_time t.queue with
    | Some at when at <= Clock.now t.clock -> (
      match Event_queue.pop t.queue with
      | None -> ()
      | Some (_, event) ->
        t.firing <- true;
        Fun.protect ~finally:(fun () -> t.firing <- false) (fun () -> apply t event);
        fire_due t)
    | _ -> ()

(* One bounded slice of resync work, charged to the clock at a poll
   point: this is how background resync steals foreground disk time
   without ever blocking an operation for more than one batch. Runs
   under [firing] so the resync's own disk I/O draws no transient
   faults and fires no events mid-copy. *)
let step_resync t =
  if not t.firing then
    match (t.resync_batch, t.mirror) with
    | Some batch, Some mirror ->
      t.firing <- true;
      Fun.protect
        ~finally:(fun () -> t.firing <- false)
        (fun () -> ignore (Mirror.resync_step ~batch mirror : int));
      if Mirror.sync_state mirror = Mirror.Clean then begin
        t.resync_batch <- None;
        Stats.incr t.stats "online_resyncs";
        Stats.observe t.stats "online_resync_us"
          (float_of_int (Clock.now t.clock - t.resync_started_us))
      end
    | _ -> ()

let poll t =
  fire_due t;
  step_resync t

(* Called by the 2PC harness at each protocol edge.  An armed crash for
   this edge fires exactly once, as [act (Txn_crash edge)] (the harness
   typically unregisters a port, drops volatile state, or raises to
   unwind the coordinator).  Runs under [firing] so the crash
   action itself draws no faults and fires no further events. *)
let txn_point t edge =
  if not t.firing then begin
    fire_due t;
    match t.txn_armed with
    | Some armed when armed = edge ->
      t.txn_armed <- None;
      Stats.incr t.stats "txn_crashes";
      t.firing <- true;
      Fun.protect ~finally:(fun () -> t.firing <- false) (fun () -> t.act (Plan.Txn_crash edge))
    | _ -> ()
  end

(* Targeted per-leg transaction faults.  These are scripted counts, not
   rates: they consume no PRNG draw, so adding a txn_drop to a plan
   leaves every probabilistic fault sequence untouched.  Request-leg
   duplication re-executes the service (the transport runs the handler
   twice); a duplicated reply would be discarded by the client stub's
   transaction matching, so reply-leg duplication counts the discarded
   copy and delivers normally. *)
let txn_verdict t msg =
  match txn_exchange_of_command msg.Amoeba_rpc.Message.command with
  | None -> Transport.Deliver
  | Some (req_leg, rep_leg) ->
    let ri = leg_index req_leg and pi = leg_index rep_leg in
    if t.txn_drops.(ri) > 0 then begin
      t.txn_drops.(ri) <- t.txn_drops.(ri) - 1;
      Stats.incr t.stats ("txn_drop_" ^ Plan.txn_leg_name req_leg);
      Transport.Drop_request
    end
    else if t.txn_drops.(pi) > 0 then begin
      t.txn_drops.(pi) <- t.txn_drops.(pi) - 1;
      Stats.incr t.stats ("txn_drop_" ^ Plan.txn_leg_name rep_leg);
      Transport.Drop_reply
    end
    else if t.txn_dups.(ri) > 0 then begin
      t.txn_dups.(ri) <- t.txn_dups.(ri) - 1;
      Stats.incr t.stats ("txn_dup_" ^ Plan.txn_leg_name req_leg);
      Transport.Duplicate_request
    end
    else if t.txn_dups.(pi) > 0 then begin
      t.txn_dups.(pi) <- t.txn_dups.(pi) - 1;
      Stats.incr t.stats ("txn_dup_" ^ Plan.txn_leg_name rep_leg ^ "_discarded");
      Transport.Deliver
    end
    else Transport.Deliver

(* Draw order is fixed — link request loss, link reply loss, then the
   global request loss, reply loss, duplication, corruption — and a rate
   of zero consumes no draw, so plans stay deterministic under edits that
   only change when a rate switches on. A partition consumes no draw at
   all.  Targeted txn faults are consulted first (they are scripted
   counts, drawless by construction). *)
let delivery_verdict t ~link (msg : Amoeba_rpc.Message.t) =
  if t.firing then Transport.Deliver
  else begin
    fire_due t;
    step_resync t;
    let txn_faults = txn_verdict t msg in
    if txn_faults <> Transport.Deliver then txn_faults
    else
    let link_faults =
      match link with
      | None -> Transport.Deliver
      | Some l ->
        let s = link_state t l in
        if s.partitioned then begin
          Stats.incr t.stats "link_partition_drops";
          Transport.Drop_request
        end
        else if Prng.bernoulli t.prng s.link_loss then begin
          Stats.incr t.stats "link_request_drops";
          Transport.Drop_request
        end
        else if Prng.bernoulli t.prng s.link_loss then begin
          Stats.incr t.stats "link_reply_drops";
          Transport.Drop_reply
        end
        else Transport.Deliver
    in
    if link_faults <> Transport.Deliver then link_faults
    else if Prng.bernoulli t.prng t.loss then Transport.Drop_request
    else if Prng.bernoulli t.prng t.loss then Transport.Drop_reply
    else if Prng.bernoulli t.prng t.duplication then Transport.Duplicate_request
    else if Prng.bernoulli t.prng t.corruption then Transport.Corrupt_reply
    else Transport.Deliver
  end

let verdict = delivery_verdict

let disk_fault t ~sector:_ ~count:_ ~write =
  (* Transient errors hit reads only; scripted events do not fire from
     disk hooks (a drive failing halfway through another event's disk
     pass would make event application non-atomic). *)
  if t.firing || write then false else Prng.bernoulli t.prng t.sector_errors

let attach ?transport ?mirror ?(act = fun (_ : Plan.event) -> ()) ~clock plan =
  let queue = Event_queue.create () in
  (* the plan's own step order pins simultaneous steps *)
  List.iteri
    (fun i { Plan.at_us; event } ->
      Event_queue.push ~pin:i ~site:"injector.plan_step" queue ~time:at_us event)
    (Plan.steps plan);
  let t =
    {
      clock;
      prng = Prng.create ~seed:(Plan.seed plan);
      queue;
      transport;
      mirror;
      act;
      stats = Stats.create "fault-injector";
      loss = 0.;
      duplication = 0.;
      corruption = 0.;
      sector_errors = 0.;
      links = Array.init 3 (fun _ -> { link_loss = 0.; partitioned = false });
      txn_armed = None;
      txn_drops = Array.make 4 0;
      txn_dups = Array.make 4 0;
      resync_batch = None;
      resync_started_us = 0;
      firing = false;
      detached = false;
    }
  in
  Option.iter (fun tr -> Transport.set_fault_hook tr (Some (delivery_verdict t))) transport;
  Option.iter
    (fun m -> List.iter (fun d -> Block_device.set_fault_hook d (Some (disk_fault t))) (Mirror.drives m))
    mirror;
  fire_due t;
  t

let detach t =
  if not t.detached then begin
    t.detached <- true;
    Option.iter (fun tr -> Transport.set_fault_hook tr None) t.transport;
    Option.iter
      (fun m -> List.iter (fun d -> Block_device.set_fault_hook d None) (Mirror.drives m))
      t.mirror
  end

let pending t = Event_queue.size t.queue

let stats t = t.stats

let register_metrics t reg =
  let module M = Amoeba_metrics.Metrics in
  M.gauge reg "fault.pending_events" (fun () -> pending t);
  M.stats_source reg ~prefix:"fault" t.stats
