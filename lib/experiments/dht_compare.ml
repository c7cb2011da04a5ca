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

let run ?(scale = `Small) ?(cache_pct = 50) () =
  let spec =
    Spec.make ~name:"dht" ~topo:(Spec.preset `FT8 scale)
      ~streams:[ Spec.stream Spec.Hadoop ] []
  in
  let setup = Scenario.realize spec in
  let topo = setup.Setup.topo in
  let slots = Spec.cache_slots spec (Spec.Pct cache_pct) in
  let flows = Spec.flows spec in
  let until = Spec.horizon spec ~flows in
  let last_start =
    List.fold_left
      (fun acc (f : Netcore.Flow.t) ->
        max acc (Time_ns.to_ns f.Netcore.Flow.start))
      0 flows
  in
  let base = Runner.run setup ~scheme:(Schemes.Baselines.nocache ()) ~flows ~migrations:[] ~until in
  let row (r : Runner.result) =
    {
      scheme = r.Runner.scheme;
      fct_x = Runner.improvement ~baseline:base.Runner.mean_fct ~v:r.Runner.mean_fct;
      stretch = r.Runner.stretch;
      gw_packets = r.Runner.gw_packets;
      extra = r.Runner.extra;
    }
  in
  let run_v2p ~fail =
    let scheme, dp =
      Schemes.Switchv2p_scheme.make_with_dataplane topo ~total_cache_slots:slots
    in
    let net = Netsim.Network.create topo ~scheme in
    if fail then
      Dessim.Engine.schedule (Netsim.Network.engine net)
        ~at:(Time_ns.of_ns (last_start / 2))
        (fun () ->
          Array.iter
            (fun sw -> Switchv2p.Dataplane.fail_switch dp ~switch:sw)
            (Topo.Topology.spines topo));
    Netsim.Network.run net flows ~migrations:[] ~until;
    let m = Netsim.Network.metrics net in
    {
      scheme = "SwitchV2P";
      fct_x =
        Runner.improvement ~baseline:base.Runner.mean_fct
          ~v:(Netsim.Metrics.mean_fct m);
      stretch = Netsim.Metrics.mean_stretch m;
      gw_packets = Netsim.Metrics.gateway_packets m;
      extra = scheme.Netsim.Scheme.stats ();
    }
  in
  let run_dht ~fail =
    let scheme, control = Schemes.Dht_store.make_with_control topo in
    let net = Netsim.Network.create topo ~scheme in
    if fail then
      Dessim.Engine.schedule (Netsim.Network.engine net)
        ~at:(Time_ns.of_ns (last_start / 2))
        (fun () ->
          Array.iter
            (fun sw -> Schemes.Dht_store.fail_switch control ~switch:sw)
            (Topo.Topology.spines topo));
    Netsim.Network.run net flows ~migrations:[] ~until;
    let m = Netsim.Network.metrics net in
    {
      scheme = "DhtStore";
      fct_x =
        Runner.improvement ~baseline:base.Runner.mean_fct
          ~v:(Netsim.Metrics.mean_fct m);
      stretch = Netsim.Metrics.mean_stretch m;
      gw_packets = Netsim.Metrics.gateway_packets m;
      extra = scheme.Netsim.Scheme.stats ();
    }
  in
  {
    healthy = [ row base; run_dht ~fail:false; run_v2p ~fail:false ];
    under_failure = [ run_dht ~fail:true; run_v2p ~fail:true ];
  }

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
