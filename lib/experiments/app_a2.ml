module Time_ns = Dessim.Time_ns

type cell = { hit : float; fct_x : float }
type t = { cache_pcts : int list; series : (string * cell array) list }

module Spec = Netsim.Scenario

let run ?(scale = `Small) ?(cache_pcts = [ 1; 10; 50; 200 ]) () =
  let spec =
    Spec.make ~name:"appA2" ~topo:(Spec.preset `FT8 scale)
      ~streams:[ Spec.stream Spec.Websearch ] []
  in
  let exec kind = Scenario.run_scheme spec (Spec.scheme kind) in
  let base = exec Spec.Nocache in
  let swept name make =
    ( name,
      Array.of_list
        (List.map
           (fun pct ->
             let r = exec (make (Spec.Pct pct)) in
             {
               hit = r.Runner.hit_rate;
               fct_x =
                 Runner.improvement ~baseline:base.Runner.mean_fct
                   ~v:r.Runner.mean_fct;
             })
           cache_pcts) )
  in
  let controller interval slots = Spec.Controller { slots; interval } in
  let series =
    [
      swept "Controller-150us" (controller (Time_ns.of_us 150));
      swept "Controller-300us" (controller (Time_ns.of_us 300));
      swept "SwitchV2P" (fun sl -> Spec.switchv2p sl);
      swept "GwCache" (fun sl -> Spec.Gwcache sl);
    ]
  in
  { cache_pcts; series }

let print t =
  let header =
    "scheme" :: List.map (fun p -> string_of_int p ^ "%") t.cache_pcts
  in
  Report.table ~title:"Appendix A.2: hit rate vs cache size (WebSearch)"
    ~header
    (List.map
       (fun (s, cells) ->
         s :: Array.to_list (Array.map (fun c -> Report.fpct c.hit) cells))
       t.series);
  Report.table ~title:"Appendix A.2: FCT improvement vs cache size (WebSearch)"
    ~header
    (List.map
       (fun (s, cells) ->
         s :: Array.to_list (Array.map (fun c -> Report.fx c.fct_x) cells))
       t.series)
