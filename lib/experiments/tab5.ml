type dist = { core : float; spine : float; tor : float }
type row = { trace : string; total : dist; first : dist }
type t = { rows : row list }

let dist_of ~core ~spine ~tor =
  let total = core + spine + tor in
  if total = 0 then { core = 0.0; spine = 0.0; tor = 0.0 }
  else
    let f x = float_of_int x /. float_of_int total in
    { core = f core; spine = f spine; tor = f tor }

module Spec = Netsim.Scenario

let run ?(scale = `Small) ?(cache_pct = 50) () =
  let task trace =
    let full_name = "tab5/" ^ Fig5.trace_name trace in
    let spec =
      Spec.make ~name:full_name ~topo:(Fig5.preset scale trace)
        ~streams:[ Spec.stream trace ]
        [ Spec.scheme (Spec.switchv2p (Spec.Pct cache_pct)) ]
    in
    ( full_name,
      fun () ->
        Scenario.run_scheme ~report_name:full_name spec
          (List.hd spec.Spec.schemes) )
  in
  let rows =
    List.map2
      (fun trace (r : Runner.result) ->
        let core, spine, tor, _, _ = r.Runner.layer_hits in
        let fcore, fspine, ftor, _, _ = r.Runner.fp_layer_hits in
        {
          trace = Fig5.trace_name trace;
          total = dist_of ~core ~spine ~tor;
          first = dist_of ~core:fcore ~spine:fspine ~tor:ftor;
        })
      Fig5.traces
      (Parallel.map (List.map task Fig5.traces))
  in
  { rows }

let print t =
  Report.table
    ~title:"Table 5: SwitchV2P cache-hit distribution across the topology"
    ~header:
      [
        "trace";
        "core";
        "spine";
        "tor";
        "fp core";
        "fp spine";
        "fp tor";
      ]
    (List.map
       (fun r ->
         [
           r.trace;
           Report.fpct r.total.core;
           Report.fpct r.total.spine;
           Report.fpct r.total.tor;
           Report.fpct r.first.core;
           Report.fpct r.first.spine;
           Report.fpct r.first.tor;
         ])
       t.rows)
