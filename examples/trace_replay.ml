(* Trace replay: generate an Alibaba-like microservice RPC trace (hot
   callees, request/response pairs) and replay it under every
   translation scheme, printing a comparison table — the experiment
   that motivates in-network caching for east-west RPC traffic.

   Run with: dune exec examples/trace_replay.exe *)

module Spec = Netsim.Scenario

(* Every scheme at one aggregate cache size. *)
let spec pct =
  let sl = Spec.Pct pct in
  Spec.make ~name:"trace_replay"
    ~topo:(Spec.preset `FT16 `Tiny)
    ~streams:[ Spec.stream Spec.Alibaba ]
    (List.map Spec.scheme
       Spec.[ Nocache; Ondemand; Gwcache sl; Locallearning sl; switchv2p sl; Direct ])

let () =
  let spec50 = spec 50 in
  let topo = (Experiments.Scenario.realize spec50).Experiments.Setup.topo in
  Printf.printf "Replaying %d RPC flows over %d VMs on %d switches\n\n"
    (List.length (Spec.flows spec50))
    (Spec.num_vms spec50)
    (Array.length (Topo.Topology.switches topo));
  (* Two cache regimes: at small caches, fewer-but-larger caches
     (GwCache) can edge out the distributed design; at larger caches
     SwitchV2P pulls ahead — the crossover the paper describes. *)
  List.iter
    (fun pct ->
      let spec = spec pct in
      Printf.printf "--- aggregate cache = %d%% of VIP space (%d entries) ---\n"
        pct
        (Spec.cache_slots spec (Spec.Pct pct));
      Printf.printf "%-14s %9s %10s %10s %9s\n" "scheme" "hit-rate" "mean-FCT"
        "mean-FPL" "stretch";
      List.iter
        (fun s ->
          let r = Experiments.Scenario.run_scheme spec s in
          Printf.printf "%-14s %8.1f%% %8.1fus %8.1fus %9.2f\n"
            r.Experiments.Runner.scheme
            (100.0 *. r.Experiments.Runner.hit_rate)
            (r.Experiments.Runner.mean_fct *. 1e6)
            (r.Experiments.Runner.mean_fpl *. 1e6)
            r.Experiments.Runner.stretch)
        spec.Spec.schemes;
      print_newline ())
    [ 50; 400 ]
