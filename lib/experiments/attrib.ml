open Common

type attrib_breakdown = {
  at_total_us : int;  (* end-to-end duration; equals the sum of the rest *)
  at_net_us : int;  (* wire latency/transmit and timeout waits *)
  at_cpu_us : int;  (* per-request server CPU charge *)
  at_cache_us : int;  (* cache memcpy traffic *)
  at_disk_us : int;  (* seek + rotation + transfer *)
  at_other_us : int;  (* server/client self-time no deeper span claims *)
}

type attrib_row = {
  at_size : int;
  at_read : attrib_breakdown; (* cached SIZE+READ pair *)
  at_write : attrib_breakdown; (* CREATE+DELETE pair *)
}

let breakdown_of_totals (t : Amoeba_trace.Attrib.totals) =
  {
    at_total_us = t.Amoeba_trace.Attrib.total_us;
    at_net_us = t.Amoeba_trace.Attrib.net_us;
    at_cpu_us = t.Amoeba_trace.Attrib.cpu_us;
    at_cache_us = t.Amoeba_trace.Attrib.cache_us;
    at_disk_us = t.Amoeba_trace.Attrib.disk_us;
    (* extent bookkeeping is instantaneous, so alloc time folds into the
       server's self-time bucket *)
    at_other_us = t.Amoeba_trace.Attrib.other_us + t.Amoeba_trace.Attrib.alloc_us;
  }

(* Rebuild Fig. 2's measurements with the tracer on and attribute every
   simulated microsecond to a layer.  The paper's claim becomes a
   measured table: a cached READ is network + server CPU (+ memcpy),
   while CREATE+DELETE is dominated by the synchronous disk writes. *)
let fig2_attrib ?(sizes = paper_sizes) () =
  let run size =
    let bed = make_bullet_bed () in
    let tracer = Amoeba_trace.Trace.create ~clock:bed.b_clock () in
    let sink = Amoeba_trace.Trace.sink tracer in
    let attributed f =
      Amoeba_trace.Sink.clear sink;
      Transport.set_tracer (Client.transport bed.b_client) (Some tracer);
      Server.set_tracer bed.b_server (Some tracer);
      f ();
      Transport.set_tracer (Client.transport bed.b_client) None;
      Server.set_tracer bed.b_server None;
      breakdown_of_totals (Amoeba_trace.Attrib.of_spans (Amoeba_trace.Sink.spans sink))
    in
    let data = Bytes.make size 'b' in
    (* Same protocol as [Fig2.fig2_bullet]: the read test runs against a
       file already in cache; the write test is a traced create+delete. *)
    let cap = Client.create bed.b_client ~p_factor:2 data in
    let at_read = attributed (fun () -> ignore (Client.read bed.b_client cap)) in
    Client.delete bed.b_client cap;
    let at_write =
      attributed (fun () ->
          let cap = Client.create bed.b_client ~p_factor:2 data in
          Client.delete bed.b_client cap)
    in
    { at_size = size; at_read; at_write }
  in
  List.map run sizes

let run () =
  header "ATTRIB - Fig. 2 rows with per-layer time attribution (trace spans)";
  let rows = fig2_attrib () in
  let pct part total = if total = 0 then 0. else 100. *. float_of_int part /. float_of_int total in
  let table title pick =
    Printf.printf "%s\n" title;
    Printf.printf "  %-10s %10s %7s %7s %7s %7s %7s\n" "File Size" "total ms" "net%" "cpu%"
      "cache%" "disk%" "other%";
    List.iter
      (fun r ->
        let b = pick r in
        Printf.printf "  %-10s %10.2f %7.1f %7.1f %7.1f %7.1f %7.1f\n" (size_label r.at_size)
          (ms b.at_total_us) (pct b.at_net_us b.at_total_us)
          (pct b.at_cpu_us b.at_total_us) (pct b.at_cache_us b.at_total_us)
          (pct b.at_disk_us b.at_total_us) (pct b.at_other_us b.at_total_us))
      rows
  in
  table "(a) READ, file in server cache (paper: RPC + memcpy, no disk)"
    (fun r -> r.at_read);
  print_newline ();
  table "(b) CREATE+DELETE, write-through to both disks (paper: disk-bound)"
    (fun r -> r.at_write);
  Printf.printf
    "\n(every simulated microsecond is charged to exactly one layer; rows\n\
    \ sum to 100%% by construction — see bin/bullet_trace for span trees)\n";
  []
