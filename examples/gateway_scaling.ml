(* Gateway fleet scaling (the Figure 9 scenario): shrink the number of
   translation gateway replicas and watch SwitchV2P hold its
   performance while the pure gateway design collapses — in-network
   caching absorbs the load the gateways would have served.

   Run with: dune exec examples/gateway_scaling.exe *)

module Spec = Netsim.Scenario

(* One scenario per fleet size: restricting the gateways is a network
   config axis, the schemes are the sweep. *)
let spec ?gateways () =
  Spec.make ~name:"gateway_scaling"
    ~topo:(Spec.preset `FT8 `Tiny)
    ~streams:[ Spec.stream Spec.Hadoop ]
    ?gateways_used:gateways
    Spec.[ scheme Nocache; scheme (switchv2p (Pct 100)) ]

let () =
  let all = spec () in
  let topo = (Experiments.Scenario.realize all).Experiments.Setup.topo in
  let total_gw = Array.length (Topo.Topology.gateways topo) in
  Printf.printf
    "Hadoop-like trace (%d flows); gateway fleet shrinking from %d to 1\n\n"
    (List.length (Spec.flows all)) total_gw;
  Printf.printf "%-10s %-12s %10s %10s %8s\n" "gateways" "scheme" "mean-FCT"
    "gw-pkts" "drops";
  List.iter
    (fun k ->
      if k >= 1 then begin
        let spec = spec ~gateways:k () in
        List.iter
          (fun s ->
            let r = Experiments.Scenario.run_scheme spec s in
            Printf.printf "%-10d %-12s %8.1fus %10d %8d\n" k
              r.Experiments.Runner.scheme
              (r.Experiments.Runner.mean_fct *. 1e6)
              r.Experiments.Runner.gw_packets
              r.Experiments.Runner.packets_dropped)
          spec.Spec.schemes;
        print_newline ()
      end)
    [ total_gw; total_gw / 2; 1 ]
