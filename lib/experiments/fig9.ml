type point = { gateways : int; fct_x : float; fpl_x : float; drops : int }

type t = {
  gateway_counts : int list;
  series : (string * point array) list;
}

module Spec = Netsim.Scenario

let scheme_shape sl =
  [
    ("NoCache", Spec.Nocache);
    ("LocalLearning", Spec.Locallearning sl);
    ("GwCache", Spec.Gwcache sl);
    ("SwitchV2P", Spec.switchv2p sl);
  ]

(* Restricting the gateway fleet is a [Network.config] axis, so each
   gateway count is its own scenario over the shared topology and
   flows (one scheme list per scenario). *)
let scenario ?(scale = `Small) ?(cache_pct = 50) ~gateways () =
  Spec.make
    ~name:(Printf.sprintf "fig9@%dgw" gateways)
    ~topo:(Spec.preset `FT8 scale)
    ~streams:[ Spec.stream Spec.Hadoop ]
    ~gateways_used:gateways
    (List.map
       (fun (label, kind) -> Spec.scheme ~label kind)
       (scheme_shape (Spec.Pct cache_pct)))

let gateway_counts_of total_gw =
  List.sort_uniq compare
    (List.filter
       (fun k -> k >= 1)
       [ total_gw; total_gw / 2; total_gw / 4; max 1 (total_gw / 10) ])
  |> List.rev

let run ?(scale = `Small) ?(cache_pct = 50) () =
  let setup = Setup.pooled (Spec.preset `FT8 scale) in
  let total_gw = Array.length (Topo.Topology.gateways setup.Setup.topo) in
  let gateway_counts = gateway_counts_of total_gw in
  let specs =
    List.map (fun k -> (k, scenario ~scale ~cache_pct ~gateways:k ())) gateway_counts
  in
  let task_of k spec s =
    ( Printf.sprintf "fig9/%s@%dgw" (Scenario.label spec s) k,
      fun () -> Scenario.run_scheme spec s )
  in
  (* Baseline: NoCache with the full gateway fleet, then every
     (scheme, gateway count) pair — all independent runs. *)
  let base_spec = scenario ~scale ~cache_pct ~gateways:total_gw () in
  let tasks =
    ("fig9/base", fun () -> Scenario.run_scheme base_spec (List.hd base_spec.Spec.schemes))
    :: List.concat_map
         (fun (name, _) ->
           List.map
             (fun (k, spec) ->
               let s =
                 List.find
                   (fun s -> Scenario.label spec s = name)
                   spec.Spec.schemes
               in
               task_of k spec s)
             specs)
         (scheme_shape (Spec.Pct cache_pct))
  in
  match Parallel.map tasks with
  | [] -> assert false
  | base :: rest ->
      let point k (r : Runner.result) =
        {
          gateways = k;
          fct_x =
            Runner.improvement ~baseline:base.Runner.mean_fct
              ~v:r.Runner.mean_fct;
          fpl_x =
            Runner.improvement ~baseline:base.Runner.mean_fpl
              ~v:r.Runner.mean_fpl;
          drops = r.Runner.packets_dropped;
        }
      in
      let n_counts = List.length gateway_counts in
      let rec chunk schemes rest =
        match schemes with
        | [] ->
            assert (rest = []);
            []
        | (name, _) :: tl ->
            let rs = List.filteri (fun i _ -> i < n_counts) rest in
            let rest = List.filteri (fun i _ -> i >= n_counts) rest in
            (name, Array.of_list (List.map2 point gateway_counts rs))
            :: chunk tl rest
      in
      { gateway_counts; series = chunk (scheme_shape (Spec.Pct cache_pct)) rest }

let print t =
  let header =
    "scheme"
    :: List.map (fun k -> string_of_int k ^ "gw") t.gateway_counts
  in
  let metric title f =
    let rows =
      List.map
        (fun (scheme, points) ->
          scheme :: Array.to_list (Array.map f points))
        t.series
    in
    Report.table ~title:("Fig 9: " ^ title ^ " vs number of gateways") ~header
      rows
  in
  metric "FCT improvement (vs NoCache, all gateways)" (fun p ->
      Report.fx p.fct_x);
  metric "first-packet latency improvement" (fun p -> Report.fx p.fpl_x);
  metric "dropped packets" (fun p -> Report.fint p.drops)
