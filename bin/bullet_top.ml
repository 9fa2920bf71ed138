(* bullet_top: a terminal dashboard over the metrics layer.

     bullet_top --replay            deterministic render of the METRICS
                                    experiment (golden under dune runtest)
     bullet_top [--port N]          one STD_STATUS snapshot from a bulletd
     bullet_top --watch 2 [--port]  poll and redraw every 2 s

   The replay mode needs no server: it drives the scripted fault plans
   of the METRICS experiment (drive rejoin, overload storm, lease skew)
   plus the CLUSTER rebalance episode in-process and draws each
   scenario's time series, health transitions and SLO alert edges.
   Everything it prints derives from the virtual clock, so two runs are
   byte-identical. *)

module E = Experiments.Common
module Mx = Experiments.Metrics
module Cl = Experiments.Cluster
module Metrics = Amoeba_metrics.Metrics
module Health = Amoeba_metrics.Health
module Message = Amoeba_rpc.Message
module Status = Amoeba_rpc.Status
module Proto = Bullet_core.Proto

(* ---- shared rendering ---- *)

let levels = ".:-=+*#%@"

let spark values =
  match (List.fold_left min max_int values, List.fold_left max min_int values) with
  | lo, hi when lo = hi -> String.make (List.length values) (if lo = 0 then '.' else '=')
  | lo, hi ->
    String.concat ""
      (List.map
         (fun v ->
           let i = (v - lo) * (String.length levels - 1) / (hi - lo) in
           String.make 1 levels.[i])
         values)

(* State at time [at] given the transition edges (oldest first). *)
let state_at transitions at =
  List.fold_left
    (fun acc (t, st) -> if t <= at then st else acc)
    Health.healthy transitions

let render_scenario (s : E.metrics_scenario) =
  Printf.printf "── %s  (scrape every %d ms, %d snapshots)\n" s.E.ms_name
    (s.E.ms_interval_us / 1000)
    (List.length s.E.ms_snapshots);
  let names =
    List.sort_uniq String.compare
      (List.concat_map
         (fun snap -> List.map (fun { Metrics.s_name; _ } -> s_name) snap.Metrics.samples)
         s.E.ms_snapshots)
  in
  let series name =
    List.map
      (fun snap ->
        match Metrics.find snap name with None -> 0 | Some v -> Metrics.value_int v)
      s.E.ms_snapshots
  in
  let health_line =
    String.concat ""
      (List.map
         (fun snap ->
           (* the glyph is the rule's initial: H, D, O, L, T, R *)
           let st = state_at s.E.ms_transitions snap.Metrics.at_us in
           String.uppercase_ascii (String.sub st.Health.rule 0 1))
         s.E.ms_snapshots)
  in
  Printf.printf "  %-28s %s\n" "health" health_line;
  List.iter
    (fun name ->
      let vs = series name in
      let lo = List.fold_left min max_int vs and hi = List.fold_left max min_int vs in
      (* constant series carry no story on a dashboard *)
      if lo <> hi then Printf.printf "  %-28s %s  %d..%d\n" name (spark vs) lo hi)
    names;
  List.iter
    (fun (at, st) ->
      Printf.printf "  state  %-16s at %8.1f s\n" (Health.state_label st)
        (float_of_int at /. 1_000_000.))
    s.E.ms_transitions;
  List.iter
    (fun (at, name, firing) ->
      Printf.printf "  alert  %-16s %-5s at %8.1f s\n" name
        (if firing then "fire" else "clear")
        (float_of_int at /. 1_000_000.))
    s.E.ms_alerts;
  print_newline ()

let replay () =
  print_endline "bullet_top --replay: the METRICS experiment, rendered";
  print_newline ();
  let r = Mx.metrics_experiment () in
  List.iter render_scenario r.Mx.mx_scenarios;
  Printf.printf "STD_STATUS: %d metrics in %d bytes, codec roundtrip %s\n" r.Mx.mx_status_metrics
    r.Mx.mx_status_bytes
    (if r.Mx.mx_roundtrip_ok then "ok" else "BROKEN");
  print_newline ();
  let c = Cl.cluster_experiment () in
  render_scenario c.Cl.cl_scenario;
  Printf.printf
    "CLUSTER: %d objects on %d live servers, %d migrated, %d fallthrough (%d repaired), \
     under-replicated %d\n"
    c.Cl.cl_objects c.Cl.cl_live_servers c.Cl.cl_migrated c.Cl.cl_fallthroughs c.Cl.cl_read_repairs
    c.Cl.cl_under_final

(* ---- live mode: STD_STATUS over TCP ---- *)

let cmd_hello = 0

let null_port = Amoeba_cap.Port.of_int64 0L

let fetch_snapshot conn =
  let hello = Amoeba_rpc.Tcp.trans conn (Message.request ~port:null_port ~command:cmd_hello ()) in
  let bullet_port =
    match hello.Message.cap with
    | Some cap when hello.Message.status = Status.Ok -> cap.Amoeba_cap.Capability.port
    | Some _ | None ->
      prerr_endline "malformed hello reply";
      exit 1
  in
  let reply =
    Amoeba_rpc.Tcp.trans conn
      (Message.request ~port:bullet_port ~command:Proto.cmd_std_status ())
  in
  if reply.Message.status <> Status.Ok then begin
    Printf.eprintf "error: %s\n" (Status.to_string reply.Message.status);
    exit 1
  end;
  match Proto.decode_status reply.Message.body with
  | Ok snap -> snap
  | Error e ->
    Printf.eprintf "malformed status reply: %s\n" e;
    exit 1

let render_live ?prev snap =
  Printf.printf "bullet_top — server virtual clock %d us\n\n" snap.Metrics.at_us;
  Printf.printf "  %-28s %-8s %14s %10s\n" "metric" "kind" "value" "delta";
  let prev_int name =
    match prev with
    | None -> None
    | Some p -> Option.map Metrics.value_int (Metrics.find p name)
  in
  List.iter
    (fun { Metrics.s_name; s_value } ->
      let delta =
        match prev_int s_name with
        | None -> ""
        | Some before -> Printf.sprintf "%+d" (Metrics.value_int s_value - before)
      in
      match s_value with
      | Metrics.Counter n -> Printf.printf "  %-28s %-8s %14d %10s\n" s_name "counter" n delta
      | Metrics.Gauge n -> Printf.printf "  %-28s %-8s %14d %10s\n" s_name "gauge" n delta
      | Metrics.Hist { count; p50; p99; _ } ->
        Printf.printf "  %-28s %-8s %14d %10s  p50 %d p99 %d\n" s_name "hist" count delta p50
          p99)
    snap.Metrics.samples

let live host port watch =
  let poll () =
    let conn = Amoeba_rpc.Tcp.connect ~host ~port () in
    Fun.protect
      ~finally:(fun () -> Amoeba_rpc.Tcp.close conn)
      (fun () -> fetch_snapshot conn)
  in
  match watch with
  | None -> render_live (poll ())
  | Some secs ->
    let prev = ref None in
    while true do
      let snap = poll () in
      print_string "\027[2J\027[H";
      render_live ?prev:!prev snap;
      prev := Some snap;
      flush stdout;
      Unix.sleepf secs
    done

open Cmdliner

let replay_flag =
  Arg.(
    value & flag
    & info [ "replay" ]
        ~doc:"Render the deterministic METRICS experiment instead of polling a server.")

let host = Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST" ~doc:"Server host.")

let port = Arg.(value & opt int 7654 & info [ "port" ] ~docv:"PORT" ~doc:"Server TCP port.")

let watch =
  Arg.(
    value
    & opt (some float) None
    & info [ "watch" ] ~docv:"SECS" ~doc:"Poll and redraw every $(docv) seconds.")

let main replay_mode host port watch =
  if replay_mode then replay () else live host port watch

let () =
  let doc = "dashboard over the Bullet server's live metrics" in
  let info = Cmd.info "bullet_top" ~doc in
  exit (Cmd.eval (Cmd.v info Term.(const main $ replay_flag $ host $ port $ watch)))
