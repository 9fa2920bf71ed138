type t = { name : string; run : unit -> string list; files : string list }

let all =
  [
    { name = "fig2"; run = Fig2.run; files = [] };
    { name = "attrib"; run = Attrib.run; files = [] };
    { name = "fig3"; run = Fig3.run; files = [] };
    { name = "compare"; run = Compare.run; files = [] };
    { name = "pfactor"; run = Pfactor.run; files = [] };
    { name = "frag"; run = Frag.run; files = [] };
    { name = "cache"; run = Cache.run; files = [] };
    { name = "ablation"; run = Ablation.run; files = [] };
    { name = "trace"; run = Trace.run; files = [] };
    { name = "sweep"; run = Sweep.run; files = [] };
    { name = "scale"; run = Scale.run; files = [] };
    { name = "naming"; run = Naming.run; files = [] };
    { name = "geo"; run = Geo.run; files = [] };
    { name = "faults"; run = Faults.run; files = [] };
    { name = "resync"; run = Resync.run; files = [] };
    { name = "load"; run = Load.run; files = [ "BENCH_load.json" ] };
    { name = "lease"; run = Lease.run; files = [ "BENCH_lease.json" ] };
    {
      name = "metrics";
      run = Metrics.run;
      files = [ "BENCH_metrics.json"; "BENCH_metrics_dump.txt" ];
    };
    { name = "txn"; run = Txn.run; files = [ "BENCH_txn.json"; "BENCH_txn_dump.txt" ] };
    {
      name = "cluster";
      run = Cluster.run;
      files = [ "BENCH_cluster.json"; "BENCH_cluster_dump.txt" ];
    };
  ]
