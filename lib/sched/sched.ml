module Event_queue = Amoeba_sim.Event_queue
module Stats = Amoeba_sim.Stats
module Sink = Amoeba_trace.Sink
module Backoff = Amoeba_fault.Backoff

type discipline = Fifo | Round_robin of int | Delay

type station = { st_name : string; st_layer : Sink.layer; st_discipline : discipline }

let station ?(layer = Sink.Server) name discipline =
  { st_name = name; st_layer = layer; st_discipline = discipline }

type profile = { pr_name : string; pr_segments : (int * int) list }

type policy = Block | Shed | Deadline of int

type overload = { accept_limit : int; policy : policy; retry : Backoff.policy option }

let no_overload = { accept_limit = 0; policy = Block; retry = None }

type config = {
  stations : station list;
  profiles : profile list;
  clients : int;
  think_us : int;
  requests_per_client : int;
  overload : overload;
}

type station_report = { sr_name : string; busy_us : int; utilisation : float; max_queue : int }

type report = {
  simulated_us : int;
  offered : int;
  completed : int;
  failed : int;
  shed_count : int;
  deadline_misses : int;
  abandoned : int;
  retried : int;
  late : int;
  max_accept_queue : int;
  throughput_per_sec : float;
  mean_response_ms : float;
  p50_response_ms : float;
  p95_response_ms : float;
  p99_response_ms : float;
  station_reports : station_report list;
}

(* ----- analytics ----------------------------------------------------- *)

let profile_total_us p = List.fold_left (fun acc (_, us) -> acc + us) 0 p.pr_segments

let station_demands_us config =
  let n = List.length config.stations in
  let d = Array.make n 0. in
  let k = float_of_int (List.length config.profiles) in
  List.iter
    (fun p -> List.iter (fun (si, us) -> d.(si) <- d.(si) +. (float_of_int us /. k)) p.pr_segments)
    config.profiles;
  d

let serial_response_us config =
  let total = List.fold_left (fun acc p -> acc + profile_total_us p) 0 config.profiles in
  float_of_int total /. float_of_int (List.length config.profiles)

let bottleneck_demand_us config =
  let d = station_demands_us config in
  let best = ref 0. in
  List.iteri
    (fun i s ->
      match s.st_discipline with
      | Delay -> ()
      | Fifo | Round_robin _ -> if d.(i) > !best then best := d.(i))
    config.stations;
  !best

let saturation_clients config =
  (float_of_int config.think_us +. serial_response_us config) /. bottleneck_demand_us config

let serial_throughput_per_sec config = 1e6 /. serial_response_us config

(* ----- engine -------------------------------------------------------- *)

type job = {
  j_client : int;
  j_req : int;  (* request serial; doubles as the trace id *)
  j_attempt : int;
  j_submit_us : int;
  j_req_start_us : int;  (* first attempt's submit time, for response measurement *)
  j_op : string;  (* profile name, stamped on the root span *)
  j_root_span : int;
  mutable j_segments : (int * int) list;  (* head = current segment *)
  mutable j_slice_left : int;  (* remaining µs of the current segment (round-robin) *)
  mutable j_wait_begin : int;
  mutable j_live : bool;  (* the client is still waiting on this attempt *)
}

type event =
  | Submit of int  (* client starts a fresh request *)
  | Retry of int * int * int  (* client, request, attempt about to be submitted *)
  | Timeout of int * int * int  (* client, request, attempt losing patience *)
  | Fifo_done of int  (* station: the in-service job's segment completes *)
  | Slice_done of int  (* round-robin station: the current slice expires *)
  | Delay_done of job  (* delay station: the job's segment elapses *)

type station_state = {
  st : station;
  mutable cur : job option;
  mutable cur_slice : int;  (* length of the slice in progress (round-robin) *)
  q : job Queue.t;
  mutable busy : int;
  mutable maxq : int;
}

type client_state = {
  mutable todo : int;  (* requests left to resolve, this one included *)
  mutable issued : int;  (* requests started, for profile cycling *)
  mutable cur_req : int;
  mutable cur_attempt : int;
  mutable start_us : int;
  mutable waiting : job option;
}

let validate config =
  if config.clients <= 0 then invalid_arg "Sched.run: clients must be positive";
  if config.requests_per_client <= 0 then
    invalid_arg "Sched.run: requests_per_client must be positive";
  if config.think_us < 0 then invalid_arg "Sched.run: negative think_us";
  if config.stations = [] then invalid_arg "Sched.run: no stations";
  List.iter
    (fun s ->
      match s.st_discipline with
      | Round_robin q when q <= 0 -> invalid_arg "Sched.run: round-robin quantum must be positive"
      | Fifo | Delay | Round_robin _ -> ())
    config.stations;
  if config.profiles = [] then invalid_arg "Sched.run: no profiles";
  let n = List.length config.stations in
  List.iter
    (fun p ->
      if p.pr_segments = [] then invalid_arg "Sched.run: empty profile";
      List.iter
        (fun (si, us) ->
          if si < 0 || si >= n then invalid_arg "Sched.run: segment station out of range";
          if us < 0 then invalid_arg "Sched.run: negative segment duration")
        p.pr_segments)
    config.profiles;
  (match config.overload.policy with
  | Deadline d when d < 0 -> invalid_arg "Sched.run: negative deadline"
  | Block | Shed | Deadline _ -> ());
  match config.overload.retry with
  | Some p when p.Backoff.timeout_us <= 0 ->
    invalid_arg "Sched.run: retry policy needs a positive timeout_us"
  | Some _ | None -> ()

let run ?sink ?metrics ?observer config =
  validate config;
  let stations = Array.of_list config.stations in
  let st =
    Array.map
      (fun s -> { st = s; cur = None; cur_slice = 0; q = Queue.create (); busy = 0; maxq = 0 })
      stations
  in
  let profiles = Array.of_list config.profiles in
  let queue : event Event_queue.t = Event_queue.create () in
  (* every push carries an explicit, strictly monotone pin so the
     tie-race sanitizer can prove same-time orderings are meant,
     not accidents of insertion order *)
  let pin_n = ref 0 in
  let pin () =
    incr pin_n;
    !pin_n
  in
  let stats = Stats.create "sched" in
  let clients =
    Array.init config.clients (fun _ ->
        {
          todo = config.requests_per_client;
          issued = 0;
          cur_req = 0;
          cur_attempt = 0;
          start_us = 0;
          waiting = None;
        })
  in
  let accept_q : job Queue.t = Queue.create () in
  let req_counter = ref 0 in
  let span_counter = ref 0 in
  let admitted = ref 0 in
  (* the run's tallies are cells of [stats] so a registry scrape mid-run
     reads the same instruments the final report is built from *)
  let offered = Stats.counter stats "offered" in
  let completed = Stats.counter stats "completed" in
  let failed = Stats.counter stats "failed" in
  let shed_n = Stats.counter stats "sheds" in
  let miss_n = Stats.counter stats "deadline_misses" in
  let abandon_n = Stats.counter stats "abandoned" in
  let retry_n = Stats.counter stats "retried" in
  let late_n = Stats.counter stats "late" in
  let resp_hist = Stats.hist stats "response_us" in
  (match metrics with
  | None -> ()
  | Some reg ->
    let module M = Amoeba_metrics.Metrics in
    M.stats_source reg ~prefix:"sched" stats;
    M.gauge reg "sched.accept_queue" (fun () -> Queue.length accept_q);
    M.gauge reg "sched.admitted" (fun () -> !admitted));
  let max_accept = ref 0 in
  let span_end = ref 0 in
  let touch at = if at > !span_end then span_end := at in
  let next_span () =
    incr span_counter;
    !span_counter
  in
  let emit ~trace ~id ~parent ~depth ~layer ~name ~b ~e attrs =
    match sink with
    | None -> ()
    | Some s ->
      Sink.emit s
        {
          Sink.trace_id = trace;
          span_id = id;
          parent_id = parent;
          depth;
          layer;
          name;
          begin_us = b;
          end_us = e;
          attrs;
        }
  in
  let emit_event job now name =
    emit ~trace:job.j_req ~id:(next_span ()) ~parent:job.j_root_span ~depth:1 ~layer:Sink.Server
      ~name ~b:now ~e:now []
  in
  let close_root job now outcome =
    emit ~trace:job.j_req ~id:job.j_root_span ~parent:0 ~depth:0 ~layer:Sink.Client
      ~name:"sched.attempt" ~b:job.j_submit_us ~e:now
      [
        ("op", Sink.S job.j_op);
        ("client", Sink.I job.j_client);
        ("attempt", Sink.I job.j_attempt);
        ("outcome", Sink.S outcome);
      ]
  in
  let emit_wait job now station_name =
    if now > job.j_wait_begin then
      emit ~trace:job.j_req ~id:(next_span ()) ~parent:job.j_root_span ~depth:1 ~layer:Sink.Server
        ~name:("sched.wait." ^ station_name) ~b:job.j_wait_begin ~e:now []
  in
  let emit_serve job ~b ~e s =
    emit ~trace:job.j_req ~id:(next_span ()) ~parent:job.j_root_span ~depth:1 ~layer:s.st.st_layer
      ~name:("sched.serve." ^ s.st.st_name) ~b ~e []
  in
  (* client lifecycle ------------------------------------------------- *)
  let next_request cs c now =
    cs.cur_attempt <- 0;
    cs.todo <- cs.todo - 1;
    if cs.todo > 0 then
      Event_queue.push ~pin:(pin ()) ~site:"sched.think" queue ~time:(now + config.think_us)
        (Submit c)
  in
  let retry_or_fail cs c attempt now =
    match config.overload.retry with
    | Some p when attempt < p.Backoff.attempts ->
      incr retry_n;
      Event_queue.push ~pin:(pin ()) ~site:"sched.retry" queue
        ~time:(now + Backoff.delay_us p ~attempt)
        (Retry (c, cs.cur_req, attempt + 1))
    | Some _ | None ->
      incr failed;
      next_request cs c now
  in
  (* station mechanics ------------------------------------------------ *)
  let rec start_fifo si job now =
    let s = st.(si) in
    s.cur <- Some job;
    match job.j_segments with
    | [] -> assert false
    | (_, us) :: _ ->
      s.busy <- s.busy + us;
      emit_wait job now s.st.st_name;
      Event_queue.push ~pin:(pin ()) ~site:"sched.fifo_done" queue ~time:(now + us) (Fifo_done si)

  and dispatch_rr si now =
    let s = st.(si) in
    match Queue.take_opt s.q with
    | None -> s.cur <- None
    | Some job ->
      s.cur <- Some job;
      let quantum =
        match s.st.st_discipline with Round_robin q -> q | Fifo | Delay -> assert false
      in
      let slice = if job.j_slice_left < quantum then job.j_slice_left else quantum in
      s.cur_slice <- slice;
      s.busy <- s.busy + slice;
      emit_wait job now s.st.st_name;
      Event_queue.push ~pin:(pin ()) ~site:"sched.slice_done" queue ~time:(now + slice)
        (Slice_done si)

  and enqueue_segment job now =
    match job.j_segments with
    | [] -> complete job now
    | (si, us) :: _ ->
      job.j_wait_begin <- now;
      let s = st.(si) in
      (match s.st.st_discipline with
      | Delay ->
        s.busy <- s.busy + us;
        Event_queue.push ~pin:(pin ()) ~site:"sched.delay_done" queue ~time:(now + us)
          (Delay_done job)
      | Fifo ->
        (* the queue can be non-empty while [cur] is briefly [None]
           (admission re-entering from a completion mid-handler); joining
           behind the waiters keeps service strictly FIFO *)
        (match s.cur with
        | None when Queue.is_empty s.q -> start_fifo si job now
        | None | Some _ ->
          Queue.push job s.q;
          if Queue.length s.q > s.maxq then s.maxq <- Queue.length s.q)
      | Round_robin _ ->
        job.j_slice_left <- us;
        Queue.push job s.q;
        if Queue.length s.q > s.maxq then s.maxq <- Queue.length s.q;
        (match s.cur with None -> dispatch_rr si now | Some _ -> ()))

  and advance job now =
    job.j_segments <- List.tl job.j_segments;
    enqueue_segment job now

  and complete job now =
    decr admitted;
    let cs = clients.(job.j_client) in
    if job.j_live then begin
      job.j_live <- false;
      cs.waiting <- None;
      close_root job now "ok";
      let response_us = now - job.j_req_start_us in
      Stats.observe stats "response_ms" (float_of_int response_us /. 1000.);
      Stats.Hist.record resp_hist response_us;
      incr completed;
      next_request cs job.j_client now
    end
    else begin
      incr late_n;
      close_root job now "late"
    end;
    drain_accept now

  and admit job now =
    incr admitted;
    if now > job.j_submit_us then
      emit ~trace:job.j_req ~id:(next_span ()) ~parent:job.j_root_span ~depth:1 ~layer:Sink.Server
        ~name:"sched.accept" ~b:job.j_submit_us ~e:now [];
    job.j_wait_begin <- now;
    enqueue_segment job now

  and drain_accept now =
    let limit = config.overload.accept_limit in
    if limit > 0 then begin
      let continue = ref true in
      while !continue && !admitted < limit do
        match Queue.take_opt accept_q with
        | None -> continue := false
        | Some job -> (
          match config.overload.policy with
          | Deadline d when now - job.j_submit_us > d ->
            incr miss_n;
            emit_event job now "sched.deadline_miss";
            close_root job now "deadline";
            if job.j_live then begin
              job.j_live <- false;
              let cs = clients.(job.j_client) in
              cs.waiting <- None;
              retry_or_fail cs job.j_client job.j_attempt now
            end
          | Block | Shed | Deadline _ -> admit job now)
      done
    end
  in
  let submit_attempt c attempt now =
    let cs = clients.(c) in
    if attempt = 1 then begin
      incr req_counter;
      cs.cur_req <- !req_counter;
      cs.start_us <- now;
      cs.issued <- cs.issued + 1
    end;
    cs.cur_attempt <- attempt;
    incr offered;
    (* client [c]'s k-th request runs profile [(c + k) mod n]: staggered
       so simultaneous clients spread over the mix, cycling so every
       population sees the full mix *)
    let prof = profiles.((c + cs.issued - 1) mod Array.length profiles) in
    let job =
      {
        j_client = c;
        j_req = cs.cur_req;
        j_attempt = attempt;
        j_submit_us = now;
        j_req_start_us = cs.start_us;
        j_op = prof.pr_name;
        j_root_span = next_span ();
        j_segments = prof.pr_segments;
        j_slice_left = 0;
        j_wait_begin = now;
        j_live = true;
      }
    in
    cs.waiting <- Some job;
    (match config.overload.retry with
    | Some p ->
      Event_queue.push ~pin:(pin ()) ~site:"sched.timeout" queue
        ~time:(now + p.Backoff.timeout_us)
        (Timeout (c, job.j_req, attempt))
    | None -> ());
    let limit = config.overload.accept_limit in
    if limit <= 0 || (!admitted < limit && Queue.is_empty accept_q) then admit job now
    else
      match config.overload.policy with
      | Shed ->
        incr shed_n;
        emit_event job now "sched.shed";
        close_root job now "shed";
        job.j_live <- false;
        cs.waiting <- None;
        retry_or_fail cs c attempt now
      | Block | Deadline _ ->
        Queue.push job accept_q;
        if Queue.length accept_q > !max_accept then max_accept := Queue.length accept_q
  in
  let handle at event =
    match event with
    | Submit c ->
      touch at;
      submit_attempt c 1 at
    | Retry (c, req, attempt) ->
      let cs = clients.(c) in
      if cs.cur_req = req && cs.cur_attempt + 1 = attempt then begin
        touch at;
        submit_attempt c attempt at
      end
    | Timeout (c, req, attempt) -> (
      let cs = clients.(c) in
      match cs.waiting with
      | Some job when job.j_req = req && job.j_attempt = attempt ->
        touch at;
        incr abandon_n;
        emit_event job at "sched.abandon";
        job.j_live <- false;
        cs.waiting <- None;
        retry_or_fail cs c attempt at
      | Some _ | None -> ())
    | Fifo_done si -> (
      touch at;
      let s = st.(si) in
      match s.cur with
      | None -> assert false
      | Some job ->
        s.cur <- None;
        let us = match job.j_segments with (_, us) :: _ -> us | [] -> assert false in
        emit_serve job ~b:(at - us) ~e:at s;
        advance job at;
        (* advancing can start a new job here (a completion admits queued
           work into this freed station); only dispatch if still idle *)
        (match s.cur with
        | Some _ -> ()
        | None -> (
          match Queue.take_opt s.q with None -> () | Some next -> start_fifo si next at)))
    | Slice_done si -> (
      touch at;
      let s = st.(si) in
      match s.cur with
      | None -> assert false
      | Some job ->
        s.cur <- None;
        emit_serve job ~b:(at - s.cur_slice) ~e:at s;
        job.j_slice_left <- job.j_slice_left - s.cur_slice;
        if job.j_slice_left <= 0 then advance job at
        else begin
          job.j_wait_begin <- at;
          Queue.push job s.q
        end;
        (match s.cur with None -> dispatch_rr si at | Some _ -> ()))
    | Delay_done job ->
      touch at;
      let si, us = match job.j_segments with seg :: _ -> seg | [] -> assert false in
      emit_serve job ~b:(at - us) ~e:at st.(si);
      advance job at
  in
  (* every client starts thinking at time 0; the same per-client skew the
     closed loop has always used avoids a perfectly simultaneous herd *)
  for c = 0 to config.clients - 1 do
    Event_queue.push ~pin:(pin ()) ~site:"sched.start" queue
      ~time:(config.think_us + (c mod 7))
      (Submit c)
  done;
  let rec loop () =
    match Event_queue.pop queue with
    | None -> ()
    | Some (at, event) ->
      handle at event;
      (match observer with None -> () | Some f -> f at);
      loop ()
  in
  loop ();
  let span = max 1 !span_end in
  let summary = Stats.summary stats "response_ms" in
  {
    simulated_us = span;
    offered = !offered;
    completed = !completed;
    failed = !failed;
    shed_count = !shed_n;
    deadline_misses = !miss_n;
    abandoned = !abandon_n;
    retried = !retry_n;
    late = !late_n;
    max_accept_queue = !max_accept;
    throughput_per_sec = float_of_int !completed /. (float_of_int span /. 1e6);
    mean_response_ms = summary.Stats.mean;
    p50_response_ms = Stats.percentile stats "response_ms" 0.5;
    p95_response_ms = Stats.percentile stats "response_ms" 0.95;
    p99_response_ms = Stats.percentile stats "response_ms" 0.99;
    station_reports =
      Array.to_list
        (Array.map
           (fun s ->
             {
               sr_name = s.st.st_name;
               busy_us = s.busy;
               utilisation = float_of_int s.busy /. float_of_int span;
               max_queue = s.maxq;
             })
           st);
  }
