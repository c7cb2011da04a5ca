type row = { trace : string; stats : Workloads.Trace_stats.t }
type t = { rows : row list }

module Spec = Netsim.Scenario

let run ?(scale = `Small) () =
  (* No simulation here, but trace generation + analysis of five
     workloads still parallelizes cleanly. *)
  let task trace =
    let name = "datasets/" ^ Fig5.trace_name trace in
    ( name,
      fun () ->
        Workloads.Trace_stats.analyze
          (Spec.flows
             (Spec.make ~name ~topo:(Fig5.preset scale trace)
                ~streams:[ Spec.stream trace ] [])) )
  in
  let rows =
    List.map2
      (fun trace stats -> { trace = Fig5.trace_name trace; stats })
      Fig5.traces
      (Parallel.map (List.map task Fig5.traces))
  in
  { rows }

let print t =
  Report.table ~title:"Datasets: address-reuse characteristics (paper §5)"
    ~header:
      [
        "trace";
        "flows";
        "dsts";
        ">=2 flows";
        ">=10 flows";
        "reuse";
        "reuse dist";
        "mean size";
      ]
    (List.map
       (fun r ->
         let s = r.stats in
         [
           r.trace;
           string_of_int s.Workloads.Trace_stats.flows;
           string_of_int s.Workloads.Trace_stats.distinct_destinations;
           string_of_int s.Workloads.Trace_stats.destinations_with_2_flows;
           string_of_int s.Workloads.Trace_stats.destinations_with_10_flows;
           Report.fpct (Workloads.Trace_stats.reuse_fraction s);
           Printf.sprintf "%.2fms"
             (s.Workloads.Trace_stats.mean_reuse_distance *. 1e3);
           Printf.sprintf "%.0fB" s.Workloads.Trace_stats.mean_flow_bytes;
         ])
       t.rows)
