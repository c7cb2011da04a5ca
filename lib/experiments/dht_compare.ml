module Time_ns = Dessim.Time_ns
module Spec = Netsim.Scenario

type row = {
  scheme : string;
  fct_x : float;
  stretch : float;
  gw_packets : int;
  extra : (string * float) list;
}

type t = { healthy : row list; under_failure : row list }

let row ~(base : Runner.result) (r : Runner.result) =
  {
    scheme = r.Runner.scheme;
    fct_x = Runner.improvement ~baseline:base.Runner.mean_fct ~v:r.Runner.mean_fct;
    stretch = r.Runner.stretch;
    gw_packets = r.Runner.gw_packets;
    extra = r.Runner.extra;
  }

(* Two specs over one topology and workload: the healthy fabric, and
   the same fabric with every spine failing (a [switchfail] per spine)
   halfway through the flow arrivals. *)
let run ?(scale = `Small) ?(cache_pct = 50) () =
  let compared =
    [ Spec.scheme Spec.Dht; Spec.scheme (Spec.switchv2p (Spec.Pct cache_pct)) ]
  in
  let healthy =
    Spec.make ~name:"dht" ~topo:(Spec.preset `FT8 scale)
      ~streams:[ Spec.stream Spec.Hadoop ]
      (Spec.scheme Spec.Nocache :: compared)
  in
  let last_start =
    List.fold_left
      (fun acc (f : Netcore.Flow.t) ->
        max acc (Time_ns.to_ns f.Netcore.Flow.start))
      0 (Spec.flows healthy)
  in
  let at = Time_ns.of_ns (last_start / 2) in
  let spines = Topo.Topology.spines (Scenario.realize healthy).Setup.topo in
  let failed =
    {
      healthy with
      Spec.name = "dht-failed";
      faults =
        Spec.Literal
          {
            Dessim.Fault.empty with
            specs =
              Array.map
                (fun sw -> { Dessim.Fault.at; action = Dessim.Fault.Switch_fail sw })
                spines;
          };
      schemes = compared;
    }
  in
  match Parallel.map (Scenario.tasks healthy @ Scenario.tasks failed) with
  | [ base; dht; v2p; dht_failed; v2p_failed ] ->
      {
        healthy = List.map (row ~base) [ base; dht; v2p ];
        under_failure = List.map (row ~base) [ dht_failed; v2p_failed ];
      }
  | _ -> assert false

let fmt_rows rows =
  List.map
    (fun r ->
      let fallbacks =
        match List.assoc_opt "dht_fallbacks" r.extra with
        | Some v -> Printf.sprintf "%.0f" v
        | None -> "-"
      in
      [
        r.scheme;
        Report.fx r.fct_x;
        Printf.sprintf "%.2f" r.stretch;
        string_of_int r.gw_packets;
        fallbacks;
      ])
    rows

let print t =
  let header = [ "scheme"; "FCT x"; "stretch"; "gw pkts"; "dht fallbacks" ] in
  Report.table ~title:"§2.4 alternative: DHT store vs SwitchV2P (healthy fabric)"
    ~header (fmt_rows t.healthy);
  Report.table
    ~title:
      "§2.4 alternative: all spine state lost mid-trace (DHT partitions vs \
       SwitchV2P caches)"
    ~header (fmt_rows t.under_failure)
