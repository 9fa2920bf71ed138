(* Tests for the wide-area federation: gateways, replica placement,
   nearest-replica reads. *)

open Helpers
module Fed = Amoeba_wan.Federation
module Link = Amoeba_rpc.Link
module Clock = Amoeba_sim.Clock

let make () =
  let fed = Fed.create ~home_region:"nl" () in
  Fed.add_site fed ~name:"cwi" ~region:"nl";
  Fed.add_site fed ~name:"tromso" ~region:"no";
  Fed.add_site fed ~name:"berlin" ~region:"de";
  fed

let test_sites () =
  let fed = make () in
  check_bool "all sites" true (Fed.sites fed = [ "berlin"; "cwi"; "home"; "tromso" ]);
  check_string "home" "home" (Fed.home fed)

let test_link_classification () =
  let fed = make () in
  check_string "same site" "local" (Link.to_string (Fed.link_between fed "cwi" "cwi"));
  check_string "same region" "regional" (Link.to_string (Fed.link_between fed "home" "cwi"));
  check_string "abroad" "wide-area" (Link.to_string (Fed.link_between fed "home" "tromso"))

let test_wide_link_slowest () =
  let local = Link.model Link.Local and regional = Link.model Link.Regional in
  let wide = Link.model Link.Wide in
  let cost m = Amoeba_rpc.Net_model.transaction_us m ~request_bytes:1000 ~reply_bytes:1000 in
  check_bool "local < regional" true (cost local < cost regional);
  check_bool "regional < wide" true (cost regional < cost wide)

let test_publish_fetch_roundtrip () =
  let fed = make () in
  let data = payload 5_000 in
  let (_ : Amoeba_cap.Capability.t) = Fed.publish fed ~from:"cwi" ~name:"doc" data in
  let contents, served_by = Fed.fetch fed ~from:"cwi" "doc" in
  check_bytes "roundtrip" data contents;
  check_string "served locally" "cwi" served_by

let test_unknown_site_rejected () =
  let fed = make () in
  (try
     ignore (Fed.publish fed ~from:"atlantis" ~name:"x" (payload 1));
     Alcotest.fail "expected Unknown_site"
   with Fed.Unknown_site "atlantis" -> ())

let test_replication_and_nearest_read () =
  let fed = make () in
  let data = payload 20_000 in
  let (_ : Amoeba_cap.Capability.t) =
    Fed.publish fed ~from:"home" ~name:"shared" ~replicate_to:[ "tromso" ] data
  in
  check_bool "two replicas" true
    (List.sort compare (Fed.replica_sites fed "shared") = [ "home"; "tromso" ]);
  (* a reader in Norway is served by the Norwegian replica, not across
     the international line *)
  let contents, served_by = Fed.fetch fed ~from:"tromso" "shared" in
  check_bytes "replica content identical" data contents;
  check_string "nearest replica wins" "tromso" served_by;
  (* a reader in Amsterdam is served at home *)
  let _, served_by = Fed.fetch fed ~from:"cwi" "shared" in
  check_string "regional beats wide" "home" served_by

let test_replica_read_faster_than_remote () =
  let fed = make () in
  let data = payload 65_536 in
  let (_ : Amoeba_cap.Capability.t) =
    Fed.publish fed ~from:"home" ~name:"big" ~replicate_to:[ "tromso" ] data
  in
  let clock = Fed.clock fed in
  let _, t_near =
    Clock.elapsed clock (fun () -> ignore (Fed.fetch_from_replica fed ~from:"tromso" "big" ~replica:"tromso"))
  in
  let _, t_far =
    Clock.elapsed clock (fun () -> ignore (Fed.fetch_from_replica fed ~from:"tromso" "big" ~replica:"home"))
  in
  check_bool "local replica much faster" true (t_near * 10 < t_far)

let test_replication_costs_publish_time () =
  let fed = make () in
  let data = payload 30_000 in
  let clock = Fed.clock fed in
  let _, t_plain =
    Clock.elapsed clock (fun () -> ignore (Fed.publish fed ~from:"home" ~name:"a" data))
  in
  let _, t_replicated =
    Clock.elapsed clock (fun () ->
        ignore (Fed.publish fed ~from:"home" ~name:"b" ~replicate_to:[ "berlin" ] data))
  in
  check_bool "shipping a replica abroad is paid at publish time" true
    (t_replicated > 2 * t_plain)

let test_rebind_name () =
  let fed = make () in
  let (_ : Amoeba_cap.Capability.t) = Fed.publish fed ~from:"home" ~name:"n" (payload 10) in
  let (_ : Amoeba_cap.Capability.t) = Fed.publish fed ~from:"home" ~name:"n" (payload 99) in
  let contents, _ = Fed.fetch fed ~from:"home" "n" in
  check_int "newest bound" 99 (Bytes.length contents)

let test_unpublish () =
  let fed = make () in
  let (_ : Amoeba_cap.Capability.t) =
    Fed.publish fed ~from:"home" ~name:"gone" ~replicate_to:[ "tromso" ] (payload 10)
  in
  Fed.unpublish fed "gone";
  (try
     ignore (Fed.fetch fed ~from:"home" "gone");
     Alcotest.fail "expected Not_found"
   with Amoeba_rpc.Status.Error Amoeba_rpc.Status.Not_found -> ())

let test_partition_kills_wide_spares_local () =
  (* partition the international line: cross-border fetches fail even
     with retries, same-site fetches are untouched — and consume no
     random draws, so their timing is bit-identical to a quiet run *)
  let fed = Fed.create ~home_region:"nl" ~attempts:2 ~backoff_us:10_000 () in
  Fed.add_site fed ~name:"tokyo" ~region:"jp";
  let clock = Fed.clock fed in
  let (_ : Amoeba_cap.Capability.t) =
    Fed.publish fed ~from:"home" ~name:"doc" ~replicate_to:[ "tokyo" ] (payload 4_096)
  in
  ignore (Fed.fetch_from_replica fed ~from:"home" "doc" ~replica:"home");
  let quiet =
    let _, us =
      Clock.elapsed clock (fun () ->
          ignore (Fed.fetch_from_replica fed ~from:"home" "doc" ~replica:"home"))
    in
    us
  in
  let plan =
    Amoeba_fault.Plan.create ~seed:9L
    |> fun p ->
    Amoeba_fault.Plan.at p ~us:(Clock.now clock)
      (Amoeba_fault.Plan.Link_partition Amoeba_rpc.Link.Wide)
  in
  let injector = Amoeba_fault.Injector.attach ~transport:(Fed.transport fed) ~clock plan in
  Amoeba_fault.Injector.poll injector;
  (try
     ignore (Fed.fetch_from_replica fed ~from:"home" "doc" ~replica:"tokyo");
     Alcotest.fail "expected the wide fetch to time out"
   with Amoeba_rpc.Status.Error Amoeba_rpc.Status.Timeout -> ());
  check_bool "partition drops counted" true
    (Amoeba_sim.Stats.count (Amoeba_fault.Injector.stats injector) "link_partition_drops" > 0);
  let faulted =
    let _, us =
      Clock.elapsed clock (fun () ->
          ignore (Fed.fetch_from_replica fed ~from:"home" "doc" ~replica:"home"))
    in
    us
  in
  check_int "local fetch timing untouched by the partition" quiet faulted;
  Amoeba_fault.Injector.detach injector

let test_link_heal_restores_wide () =
  let fed = Fed.create ~home_region:"nl" ~attempts:2 ~backoff_us:10_000 () in
  Fed.add_site fed ~name:"tokyo" ~region:"jp";
  let clock = Fed.clock fed in
  let data = payload 2_048 in
  let (_ : Amoeba_cap.Capability.t) =
    Fed.publish fed ~from:"home" ~name:"doc" ~replicate_to:[ "tokyo" ] data
  in
  (* far beyond anything the retried fetch can reach: a fully-retried
     wide op still only runs the clock forward by tens of virtual
     seconds, so the heal must not land inside the retry window *)
  let heal_at = Clock.now clock + 600_000_000 in
  let plan =
    Amoeba_fault.Plan.create ~seed:10L
    |> fun p ->
    Amoeba_fault.Plan.at p ~us:(Clock.now clock)
      (Amoeba_fault.Plan.Link_partition Amoeba_rpc.Link.Wide)
    |> fun p -> Amoeba_fault.Plan.at p ~us:heal_at (Amoeba_fault.Plan.Link_heal Amoeba_rpc.Link.Wide)
  in
  let injector = Amoeba_fault.Injector.attach ~transport:(Fed.transport fed) ~clock plan in
  Amoeba_fault.Injector.poll injector;
  (try
     ignore (Fed.fetch_from_replica fed ~from:"home" "doc" ~replica:"tokyo");
     Alcotest.fail "expected a timeout while partitioned"
   with Amoeba_rpc.Status.Error Amoeba_rpc.Status.Timeout -> ());
  Clock.advance_to clock heal_at;
  Amoeba_fault.Injector.poll injector;
  check_bytes "wide fetch works after the scripted heal" data
    (Fed.fetch_from_replica fed ~from:"home" "doc" ~replica:"tokyo");
  Amoeba_fault.Injector.detach injector

let suite =
  ( "wan",
    [
      Alcotest.test_case "sites" `Quick test_sites;
      Alcotest.test_case "link classification" `Quick test_link_classification;
      Alcotest.test_case "wide link slowest" `Quick test_wide_link_slowest;
      Alcotest.test_case "publish/fetch roundtrip" `Quick test_publish_fetch_roundtrip;
      Alcotest.test_case "unknown site rejected" `Quick test_unknown_site_rejected;
      Alcotest.test_case "replication and nearest read" `Quick test_replication_and_nearest_read;
      Alcotest.test_case "local replica faster than remote" `Quick
        test_replica_read_faster_than_remote;
      Alcotest.test_case "replication paid at publish time" `Quick
        test_replication_costs_publish_time;
      Alcotest.test_case "rebind name" `Quick test_rebind_name;
      Alcotest.test_case "unpublish deletes replicas" `Quick test_unpublish;
      Alcotest.test_case "partition kills wide, spares local" `Quick
        test_partition_kills_wide_spares_local;
      Alcotest.test_case "scripted link heal restores wide" `Quick test_link_heal_restores_wide;
    ] )
