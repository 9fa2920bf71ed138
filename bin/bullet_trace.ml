(* bullet_trace: the trace toolchain's command-line consumer.

   By default it records a small deterministic scenario against a fresh
   simulated rig — a cold 1 MB READ that misses the cache and walks down
   to individual sector transfers, a hot READ served from RAM, and a
   CREATE+DELETE pair — then pretty-prints the span trees.  It can also
   load a JSONL dump produced earlier (or by another process) and render
   that instead.

     bullet_trace                       span trees of the recorded scenario
     bullet_trace --attrib              + per-trace and per-op attribution
     bullet_trace --size 65536          scenario file size in bytes
     bullet_trace --out trace.jsonl     also dump the spans as JSONL
     bullet_trace --load trace.jsonl    render an existing dump instead
     bullet_trace --chrome trace.json   Chrome about://tracing export
     bullet_trace --trace N             restrict output to one trace id
     bullet_trace --sched               trace the overloaded scheduler run
     bullet_trace --lease               trace the leased-station lease lifecycle

   Exit status 1 if any trace's per-layer attribution fails to sum
   exactly to its end-to-end duration — the invariant the attribution
   sweep guarantees by construction, checked here against real data.     *)

module Server = Bullet_core.Server
module Client = Bullet_core.Client
module Sink = Amoeba_trace.Sink
module Trace = Amoeba_trace.Trace
module Attrib = Amoeba_trace.Attrib

(* ---- recording ---- *)

(* A cache small enough that two filler files evict the target: the
   traced READ genuinely goes to disk. *)
let record size =
  let clock = Amoeba_sim.Clock.create () in
  let config = { Server.default_config with cache_bytes = 2 * 1024 * 1024 } in
  let server = Server.boot ~config ~clock ~id:"bullet" ~sectors:131_072 ~max_files:2048 () in
  let transport = Amoeba_rpc.Transport.create ~clock in
  Bullet_core.Proto.serve server transport;
  let client = Client.connect transport (Server.port server) in
  (* Untraced setup: the target file, then enough filler traffic to push
     it out of the server cache. *)
  let cap = Client.create client ~p_factor:2 (Bytes.make size 'b') in
  let filler = Bytes.make (1024 * 1024) 'f' in
  let f1 = Client.create client ~p_factor:2 filler in
  let f2 = Client.create client ~p_factor:2 filler in
  ignore (Client.read_now client f1);
  ignore (Client.read_now client f2);
  let tracer = Trace.create ~clock () in
  Amoeba_rpc.Transport.set_tracer transport (Some tracer);
  Server.set_tracer server (Some tracer);
  (* Cold READ (cache miss, disk spans), hot SIZE+READ (cache hit),
     then a traced CREATE+DELETE pair. *)
  ignore (Client.read_now client cap);
  ignore (Client.read client cap);
  let cap2 = Client.create client ~p_factor:2 (Bytes.make size 'c') in
  Client.delete client cap2;
  Amoeba_rpc.Transport.set_tracer transport None;
  Server.set_tracer server None;
  Sink.spans (Trace.sink tracer)

(* ---- loading ---- *)

let load path =
  let ic = open_in path in
  let rec go n acc =
    match input_line ic with
    | exception End_of_file ->
      close_in ic;
      List.rev acc
    | "" -> go (n + 1) acc
    | line -> (
      match Sink.span_of_line line with
      | Ok span -> go (n + 1) (span :: acc)
      | Error e ->
        Printf.eprintf "%s:%d: %s\n" path n e;
        exit 2)
  in
  go 1 []

(* ---- rendering ---- *)

let pretty_bytes n =
  if n >= 1024 * 1024 && n mod (1024 * 1024) = 0 then Printf.sprintf "%d MB" (n / (1024 * 1024))
  else if n >= 1024 && n mod 1024 = 0 then Printf.sprintf "%d KB" (n / 1024)
  else Printf.sprintf "%d B" n

let attr_string attrs =
  String.concat " "
    (List.map
       (fun (k, v) ->
         match v with
         | Sink.I i -> Printf.sprintf "%s=%d" k i
         | Sink.S s -> Printf.sprintf "%s=%s" k s)
       attrs)

let print_tree spans =
  (* Parents begin no later than their children and carry smaller span
     ids, so (begin_us, span_id) order lists each subtree in call order. *)
  let ordered =
    List.sort
      (fun (a : Sink.span) (b : Sink.span) ->
        match Int.compare a.begin_us b.begin_us with
        | 0 -> Int.compare a.span_id b.span_id
        | c -> c)
      spans
  in
  List.iter
    (fun (s : Sink.span) ->
      let indent = String.make (2 * s.Sink.depth) ' ' in
      let label = Printf.sprintf "%s%s" indent s.Sink.name in
      if s.Sink.end_us = s.Sink.begin_us then
        Printf.printf "  [%-5s] %-36s @ %8d %s\n" (Sink.layer_name s.Sink.layer) label
          s.Sink.begin_us (attr_string s.Sink.attrs)
      else
        Printf.printf "  [%-5s] %-36s %8d .. %8d (%7d us) %s\n"
          (Sink.layer_name s.Sink.layer) label s.Sink.begin_us s.Sink.end_us
          (s.Sink.end_us - s.Sink.begin_us) (attr_string s.Sink.attrs))
    ordered

let print_attrib (t : Attrib.totals) =
  let pct part = if t.Attrib.total_us = 0 then 0. else 100. *. float_of_int part /. float_of_int t.Attrib.total_us in
  Printf.printf "    total %8d us | net %5.1f%% cpu %5.1f%% cache %5.1f%% disk %5.1f%% alloc %5.1f%% other %5.1f%%\n"
    t.Attrib.total_us (pct t.Attrib.net_us) (pct t.Attrib.cpu_us) (pct t.Attrib.cache_us)
    (pct t.Attrib.disk_us) (pct t.Attrib.alloc_us) (pct t.Attrib.other_us)

(* ---- Chrome trace_event export ---- *)

let chrome_json spans =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[";
  List.iteri
    (fun i (s : Sink.span) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%d,\"dur\":%d,\"pid\":1,\"tid\":%d}"
           (String.escaped s.Sink.name)
           (Sink.layer_name s.Sink.layer) s.Sink.begin_us
           (s.Sink.end_us - s.Sink.begin_us) s.Sink.trace_id))
    spans;
  Buffer.add_string buf "]}";
  Buffer.contents buf

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

(* ---- main ---- *)

let run size attrib out load_path chrome only_trace sched lease =
  let spans =
    match (load_path, sched, lease) with
    | Some p, _, _ -> load p
    | None, _, true ->
      Printf.printf
        "lease scenario: grant, zero-RPC cache hits, expiry+renewal, revocation after a \
         replace, failed read after removal\n";
      Sink.spans (Experiments.Lease.lease_trace ())
    | None, true, _ ->
      let sink, report = Experiments.Load.load_sched_trace () in
      Printf.printf
        "sched scenario: overloaded deterministic run - %d attempts offered, %d completed, %d \
         shed, %d deadline misses, %.1f req/s goodput\n"
        report.Amoeba_sched.Sched.offered report.Amoeba_sched.Sched.completed
        report.Amoeba_sched.Sched.shed_count report.Amoeba_sched.Sched.deadline_misses
        report.Amoeba_sched.Sched.throughput_per_sec;
      Sink.spans sink
    | None, false, false -> record size
  in
  (match out with
  | Some p ->
    write_file p
      (String.concat "" (List.map (fun s -> Sink.line_of_span s ^ "\n") spans));
    Printf.printf "wrote %d spans to %s\n" (List.length spans) p
  | None -> ());
  (match chrome with
  | Some p ->
    write_file p (chrome_json spans);
    Printf.printf "wrote Chrome trace to %s (open in about://tracing)\n" p
  | None -> ());
  let traces = Attrib.by_trace spans in
  let traces =
    match only_trace with
    | Some id -> List.filter (fun (tid, _) -> tid = id) traces
    | None -> traces
  in
  if load_path = None && (not sched) && not lease then
    Printf.printf "recorded scenario: cold READ / hot SIZE+READ / CREATE+DELETE of a %s file\n"
      (pretty_bytes size);
  let bad = ref 0 in
  List.iter
    (fun (tid, trace_spans) ->
      let t = Attrib.sweep trace_spans in
      let root_us = Attrib.root_duration_us trace_spans in
      Printf.printf "\ntrace %d: %s, %d spans, %d us end-to-end\n" tid
        (Attrib.op_class trace_spans) (List.length trace_spans) root_us;
      print_tree trace_spans;
      if attrib then print_attrib t;
      let parts =
        t.Attrib.net_us + t.Attrib.cpu_us + t.Attrib.cache_us + t.Attrib.disk_us
        + t.Attrib.alloc_us + t.Attrib.other_us
      in
      (* Retried sched attempts share a trace id and a late completion
         can overlap the next attempt, so the union of roots (what the
         sweep totals) may be shorter than their sum; the layer
         partition must still be exact. *)
      if parts <> t.Attrib.total_us || ((not sched) && t.Attrib.total_us <> root_us) then begin
        incr bad;
        Printf.printf "    ATTRIBUTION MISMATCH: layers sum to %d, total %d, roots %d\n" parts
          t.Attrib.total_us root_us
      end)
    traces;
  if attrib && List.length traces > 1 then begin
    (* RPC transactions per op class: the lease fast path's headline
       number — hot leased reads must show 0.0 here. *)
    let rpcs_of cls =
      List.fold_left
        (fun acc (_, ts) -> if String.equal (Attrib.op_class ts) cls then acc + Attrib.rpc_count ts else acc)
        0 traces
    in
    Printf.printf "\nby op class\n";
    List.iter
      (fun (cls, n, t) ->
        Printf.printf "  %-16s x%-3d  rpc/op %4.1f\n" cls n
          (float_of_int (rpcs_of cls) /. float_of_int n);
        print_attrib t)
      (Attrib.by_class (List.concat_map snd traces))
  end;
  if !bad > 0 then begin
    Printf.eprintf "\n%d trace(s) failed the attribution invariant\n" !bad;
    exit 1
  end

open Cmdliner

let size =
  Arg.(
    value
    & opt int (1024 * 1024)
    & info [ "size" ] ~docv:"BYTES" ~doc:"Scenario file size in bytes.")

let attrib =
  Arg.(value & flag & info [ "attrib" ] ~doc:"Print per-trace and per-op time attribution.")

let out =
  Arg.(
    value
    & opt (some string) None
    & info [ "out" ] ~docv:"FILE" ~doc:"Write the spans as JSONL to $(docv).")

let load_path =
  Arg.(
    value
    & opt (some file) None
    & info [ "load" ] ~docv:"FILE" ~doc:"Render a JSONL dump instead of recording.")

let chrome =
  Arg.(
    value
    & opt (some string) None
    & info [ "chrome" ] ~docv:"FILE" ~doc:"Export Chrome trace_event JSON to $(docv).")

let only_trace =
  Arg.(
    value
    & opt (some int) None
    & info [ "trace" ] ~docv:"ID" ~doc:"Restrict output to one trace id.")

let sched =
  Arg.(
    value & flag
    & info [ "sched" ]
        ~doc:"Trace the overloaded scheduler run instead of recording the file-server scenario.")

let lease =
  Arg.(
    value & flag
    & info [ "lease" ]
        ~doc:
          "Trace the leased-station scenario (grant, zero-RPC hits, renewal, revocation) instead \
           of recording the file-server scenario.")

let cmd =
  let doc = "record, dump and attribute Bullet request traces" in
  Cmd.v (Cmd.info "bullet_trace" ~doc)
    Term.(const run $ size $ attrib $ out $ load_path $ chrome $ only_trace $ sched $ lease)

(* Under AMOEBA_TIE_CHECK=1 (every golden rule in determinism/golden), turn a
   clean run into a failure if any scenario scheduled two same-time
   events without pinning their relative order. *)
let check_ties code =
  let module Eq = Amoeba_sim.Event_queue in
  if code = 0 && Eq.tie_check_enabled () then (
    match Eq.ties () with
    | [] -> code
    | ties ->
      List.iter (fun t -> Printf.eprintf "%s\n" (Eq.tie_to_string t)) ties;
      Printf.eprintf "bullet_trace: %d event-queue tie(s) detected\n" (List.length ties);
      1)
  else code

let () = exit (check_ties (Cmd.eval cmd))
