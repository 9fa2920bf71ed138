open Common

type geo_report = {
  file_bytes : int;
  local_read_us : int;
  regional_read_us : int;
  wide_read_us : int;
  nearest_pick : string;
  publish_local_us : int;
  publish_replicated_us : int;
}

let geo_experiment () =
  let file_bytes = 65_536 in
  let fed = Amoeba_wan.Federation.create ~home_region:"nl" () in
  Amoeba_wan.Federation.add_site fed ~name:"cwi" ~region:"nl";
  Amoeba_wan.Federation.add_site fed ~name:"tromso" ~region:"no";
  let clock = Amoeba_wan.Federation.clock fed in
  let data = Bytes.make file_bytes 'g' in
  let publish_local_us =
    time clock (fun () ->
        ignore (Amoeba_wan.Federation.publish fed ~from:"home" ~name:"plain" data))
  in
  let publish_replicated_us =
    time clock (fun () ->
        ignore
          (Amoeba_wan.Federation.publish fed ~from:"home" ~name:"mirrored"
             ~replicate_to:[ "tromso" ] data))
  in
  let read_via replica from =
    time clock (fun () ->
        ignore (Amoeba_wan.Federation.fetch_from_replica fed ~from "mirrored" ~replica))
  in
  (* warm both replica caches so the comparison isolates the wire *)
  ignore (Amoeba_wan.Federation.fetch_from_replica fed ~from:"home" "mirrored" ~replica:"home");
  ignore (Amoeba_wan.Federation.fetch_from_replica fed ~from:"tromso" "mirrored" ~replica:"tromso");
  let local_read_us = read_via "home" "home" in
  let regional_read_us = read_via "home" "cwi" in
  let wide_read_us = read_via "home" "tromso" in
  let _, nearest_pick = Amoeba_wan.Federation.fetch fed ~from:"tromso" "mirrored" in
  {
    file_bytes;
    local_read_us;
    regional_read_us;
    wide_read_us;
    nearest_pick;
    publish_local_us;
    publish_replicated_us;
  }

let run () =
  header "GEO - geographic scalability: one name space across countries (paper 2.1)";
  let r = geo_experiment () in
  Printf.printf "  64 KB read, replica at reader's site   %10.1f ms\n" (ms r.local_read_us);
  Printf.printf "  64 KB read, replica one gateway away   %10.1f ms\n" (ms r.regional_read_us);
  Printf.printf "  64 KB read, replica across the line    %10.1f ms\n" (ms r.wide_read_us);
  Printf.printf "  fetch from Norway picked replica at    %10s\n" r.nearest_pick;
  Printf.printf "  publish, single site                   %10.1f ms\n" (ms r.publish_local_us);
  Printf.printf "  publish + replica shipped abroad       %10.1f ms\n"
    (ms r.publish_replicated_us);
  Printf.printf
    "  (immutable files make replicas trivially consistent; readers are\n\
    \   served by the nearest copy)\n";
  []
