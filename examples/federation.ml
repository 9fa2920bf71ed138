(* "One single large file service that crosses international borders"
   (paper §2.1): four sites in three countries, one global name space,
   nearest-replica reads over modelled 1989 links.

   Run with:  dune exec examples/federation.exe *)

module Fed = Amoeba_wan.Federation
module Link = Amoeba_rpc.Link
module Clock = Amoeba_sim.Clock

let () =
  let fed = Fed.create ~home_region:"nl" () in
  Fed.add_site fed ~name:"cwi" ~region:"nl";
  Fed.add_site fed ~name:"tromso" ~region:"no";
  Fed.add_site fed ~name:"berlin" ~region:"de";
  Printf.printf "federation: %s (home=%s)\n" (String.concat ", " (Fed.sites fed)) (Fed.home fed);

  List.iter
    (fun (a, b) ->
      Printf.printf "  link %-8s -> %-8s %s\n" a b (Link.to_string (Fed.link_between fed a b)))
    [ ("home", "cwi"); ("home", "tromso"); ("tromso", "berlin") ];

  let clock = Fed.clock fed in
  let report = Bytes.make 65_536 'r' in

  (* publish from Amsterdam with a replica in Norway *)
  let _, publish_us =
    Clock.elapsed clock (fun () ->
        ignore (Fed.publish fed ~from:"home" ~name:"annual-report" ~replicate_to:[ "tromso" ] report))
  in
  Printf.printf "published 64 KB with a Norwegian replica (%.1f ms)\n" (Clock.to_ms publish_us);
  Printf.printf "replicas: %s\n" (String.concat ", " (Fed.replica_sites fed "annual-report"));

  (* readers everywhere resolve the same name; each is served by the
     closest replica *)
  let read_from site =
    let (_, served_by), us =
      Clock.elapsed clock (fun () -> Fed.fetch fed ~from:site "annual-report")
    in
    Printf.printf "  read from %-8s served by %-8s %10.1f ms\n" site served_by (Clock.to_ms us)
  in
  List.iter read_from [ "home"; "cwi"; "tromso"; "berlin" ];

  (* what Norway would have paid without its replica *)
  let _, wide_us =
    Clock.elapsed clock (fun () ->
        ignore (Fed.fetch_from_replica fed ~from:"tromso" "annual-report" ~replica:"home"))
  in
  Printf.printf "Norway reading the Dutch copy instead: %.1f ms - replication pays for itself\n"
    (Clock.to_ms wide_us)
