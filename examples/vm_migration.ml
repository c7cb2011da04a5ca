(* VM migration under load (the §5.2 scenario): an incast of UDP
   senders targets one VM; mid-trace the VM migrates to another rack.
   We compare how NoCache (follow-me) and SwitchV2P (misdelivery tags +
   invalidation packets) cope with the stale state.

   Run with: dune exec examples/vm_migration.exe *)

module Time_ns = Dessim.Time_ns
module Vip = Netcore.Addr.Vip
module Topology = Topo.Topology
module Spec = Netsim.Scenario

let () =
  (* The topology and the schemes come from a spec; the incast below
     is hand-built. *)
  let spec =
    Spec.make ~name:"vm_migration"
      ~topo:(Spec.preset `FT8 `Tiny)
      Spec.[ scheme Nocache; scheme Ondemand; scheme (switchv2p (Pct 50)) ]
  in
  let setup = Experiments.Scenario.realize spec in
  let topo = setup.Experiments.Setup.topo in
  let hosts = Topology.hosts topo in
  let dst_vip = Vip.of_int 0 in

  (* 16 senders on distinct servers, 1000 small packets each over 1ms. *)
  let rng = Dessim.Rng.create 7 in
  let flows =
    Workloads.Tracegen.incast rng ~num_vms:(Spec.num_vms spec)
      ~senders:(min 16 (Array.length hosts - 1))
      ~dst_vip ~packets_per_sender:1000 ~packet_bytes:128
      ~duration:(Time_ns.of_ms 1)
  in

  let run s =
    let scheme = Experiments.Scenario.build_scheme spec setup s in
    let net = Netsim.Network.create topo ~scheme in
    (* Migrate the victim to a host in another rack at t = 500us. *)
    let old_host = Netsim.Network.vm_host net dst_vip in
    let old_tor = Topology.tor_of topo old_host in
    let new_host =
      Array.to_list hosts
      |> List.find (fun h -> Topology.tor_of topo h <> old_tor)
    in
    Netsim.Network.run net flows
      ~migrations:
        [ { Netsim.Network.at = Time_ns.of_us 500; vip = dst_vip; to_host = new_host } ]
      ~until:(Time_ns.of_ms 3);
    let m = Netsim.Network.metrics net in
    Printf.printf
      "%-10s gateway-pkts %6d  misdelivered %4d  mean-latency %6.1fus  last-misdelivery %s\n"
      scheme.Netsim.Scheme.name
      (Netsim.Metrics.gateway_packets m)
      (Netsim.Metrics.misdelivered_packets m)
      (Netsim.Metrics.mean_packet_latency m *. 1e6)
      (match Netsim.Metrics.last_misdelivered_arrival m with
      | Some t -> Printf.sprintf "%.0fus" (Time_ns.to_us t)
      | None -> "-");
    scheme.Netsim.Scheme.stats ()
  in

  print_endline "Incast + VM migration at t=500us (trace ends at 1ms):\n";
  let v2p_stats = List.nth (List.map run spec.Spec.schemes) 2 in
  print_endline "\nSwitchV2P protocol counters:";
  List.iter (fun (k, v) -> Printf.printf "  %-26s %.0f\n" k v) v2p_stats
