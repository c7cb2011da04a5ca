module Time_ns = Dessim.Time_ns
module Spec = Netsim.Scenario

type cell = { hit : float; fct_x : float; fpl_x : float }

type t = {
  kind : Spec.trace;
  cache_pcts : int list;
  nocache : Runner.result;
  series : (string * cell array) list;
}

let trace_name = function
  | Spec.Hadoop -> "Hadoop"
  | Spec.Microbursts -> "Microbursts"
  | Spec.Websearch -> "WebSearch"
  | Spec.Video -> "Video"
  | Spec.Alibaba -> "Alibaba"
  | Spec.Locality -> "Locality"

let traces = Spec.[ Hadoop; Websearch; Alibaba; Microbursts; Video ]

let preset ?seed scale kind =
  Spec.preset ?seed (match kind with Spec.Alibaba -> `FT16 | _ -> `FT8) scale

(* The paper runs the Controller baseline on WebSearch only (Figure
   5c), over 1-200% of the VIP space; every other sweep reaches
   1500%. *)
let with_controller kind = kind = Spec.Websearch

let default_pcts kind =
  if with_controller kind then [ 1; 10; 50; 200 ] else [ 1; 10; 50; 200; 1500 ]

(* The sweep's shape: one NoCache baseline, then per-scheme series
   that are either swept across cache sizes or cache-independent
   (fixed). Scheme-spec order in the scenario is exactly this task
   order. *)
let series_shape kind =
  [
    `Swept ("LocalLearning", fun sl -> Spec.Locallearning sl);
    `Swept ("GwCache", fun sl -> Spec.Gwcache sl);
    `Swept ("Bluebird", fun sl -> Spec.Bluebird sl);
    `Fixed ("OnDemand", Spec.Ondemand);
    `Fixed ("Direct", Spec.Direct);
    `Swept ("SwitchV2P", fun sl -> Spec.switchv2p sl);
  ]
  @
  if with_controller kind then
    [
      `Swept
        ( "Controller",
          fun sl -> Spec.Controller { slots = sl; interval = Time_ns.of_us 300 }
        );
    ]
  else []

let scenario ?(scale = `Small) ?cache_pcts kind =
  let cache_pcts = Option.value cache_pcts ~default:(default_pcts kind) in
  let swept name mk =
    List.map
      (fun pct ->
        Spec.scheme ~label:(Printf.sprintf "%s@%d%%" name pct) (mk (Spec.Pct pct)))
      cache_pcts
  in
  let schemes =
    Spec.scheme ~label:"NoCache" Spec.Nocache
    :: List.concat_map
         (function
           | `Fixed (name, kind) -> [ Spec.scheme ~label:name kind ]
           | `Swept (name, mk) -> swept name mk)
         (series_shape kind)
  in
  Spec.make ~name:(trace_name kind)
    ~topo:(preset scale kind)
    ~streams:[ Spec.stream kind ]
    schemes

(* UDP traces have no flow-completion semantics comparable to TCP's;
   use mean packet latency as the paper's FCT proxy there. *)
let fct_metric kind (r : Runner.result) =
  match kind with
  | Spec.Hadoop | Spec.Websearch | Spec.Alibaba | Spec.Locality ->
      r.Runner.mean_fct
  | Spec.Microbursts | Spec.Video -> r.Runner.mean_pkt_latency

let cell_of kind ~(nocache : Runner.result) (r : Runner.result) =
  {
    hit = r.Runner.hit_rate;
    fct_x =
      Runner.improvement
        ~baseline:(fct_metric kind nocache)
        ~v:(fct_metric kind r);
    fpl_x =
      Runner.improvement ~baseline:nocache.Runner.mean_fpl
        ~v:r.Runner.mean_fpl;
  }

let run ?scale ?cache_pcts kind =
  let cache_pcts = Option.value cache_pcts ~default:(default_pcts kind) in
  let spec = scenario ?scale ~cache_pcts kind in
  match Parallel.map (Scenario.tasks spec) with
  | [] -> assert false
  | nocache :: rest ->
      let rec split_at n xs =
        if n = 0 then ([], xs)
        else
          match xs with
          | x :: tl ->
              let a, b = split_at (n - 1) tl in
              (x :: a, b)
          | [] -> assert false
      in
      let rec assemble shape rest =
        match shape with
        | [] ->
            assert (rest = []);
            []
        | `Fixed (name, _) :: tl ->
            let r, rest = (List.hd rest, List.tl rest) in
            ( name,
              Array.of_list
                (List.map (fun _ -> cell_of kind ~nocache r) cache_pcts) )
            :: assemble tl rest
        | `Swept (name, _) :: tl ->
            let rs, rest = split_at (List.length cache_pcts) rest in
            (name, Array.of_list (List.map (cell_of kind ~nocache) rs))
            :: assemble tl rest
      in
      {
        kind;
        cache_pcts;
        nocache;
        series = assemble (series_shape kind) rest;
      }

let print t =
  let name = trace_name t.kind in
  let header =
    "scheme" :: List.map (fun p -> string_of_int p ^ "%") t.cache_pcts
  in
  let metric title f omit =
    let rows =
      List.filter_map
        (fun (scheme, cells) ->
          if List.mem scheme omit then None
          else Some (scheme :: Array.to_list (Array.map f cells)))
        t.series
    in
    Report.table ~title:(name ^ ": " ^ title ^ " vs cache size") ~header rows
  in
  (* The paper omits hit rates for schemes that never touch gateways. *)
  metric "cache hit rate"
    (fun c -> Report.fpct c.hit)
    [ "Bluebird"; "Direct"; "OnDemand" ];
  metric "FCT improvement over NoCache" (fun c -> Report.fx c.fct_x) [];
  metric "first-packet latency improvement over NoCache"
    (fun c -> Report.fx c.fpl_x)
    []
