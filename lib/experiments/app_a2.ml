module Time_ns = Dessim.Time_ns

type cell = { hit : float; fct_x : float }
type t = { cache_pcts : int list; series : (string * cell array) list }

module Spec = Netsim.Scenario

(* One spec: the NoCache baseline, then each series' cache sizes in
   order, all run through the worker pool. *)
let run ?(scale = `Small) ?(cache_pcts = [ 1; 10; 50; 200 ]) () =
  let controller interval slots = Spec.Controller { slots; interval } in
  let series =
    [
      ("Controller-150us", controller (Time_ns.of_us 150));
      ("Controller-300us", controller (Time_ns.of_us 300));
      ("SwitchV2P", fun sl -> Spec.switchv2p sl);
      ("GwCache", fun sl -> Spec.Gwcache sl);
    ]
  in
  let spec =
    Spec.make ~name:"appA2" ~topo:(Spec.preset `FT8 scale)
      ~streams:[ Spec.stream Spec.Websearch ]
      (Spec.scheme ~label:"NoCache" Spec.Nocache
      :: List.concat_map
           (fun (name, mk) ->
             List.map
               (fun pct ->
                 Spec.scheme ~label:(Printf.sprintf "%s@%d%%" name pct)
                   (mk (Spec.Pct pct)))
               cache_pcts)
           series)
  in
  match Parallel.map (Scenario.tasks spec) with
  | [] -> assert false
  | base :: rest ->
      let rest = Array.of_list rest and n = List.length cache_pcts in
      let cell (r : Runner.result) =
        {
          hit = r.Runner.hit_rate;
          fct_x =
            Runner.improvement ~baseline:base.Runner.mean_fct ~v:r.Runner.mean_fct;
        }
      in
      {
        cache_pcts;
        series =
          List.mapi
            (fun i (name, _) -> (name, Array.map cell (Array.sub rest (i * n) n)))
            series;
      }

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
