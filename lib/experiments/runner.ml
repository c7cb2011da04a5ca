module Time_ns = Dessim.Time_ns
module Telemetry = Dessim.Telemetry
module Json = Dessim.Telemetry.Json

type result = {
  scheme : string;
  hit_rate : float;
  mean_fct : float;
  mean_fpl : float;
  mean_pkt_latency : float;
  gw_packets : int;
  packets_sent : int;
  packets_dropped : int;
  drops_by_kind : (string * int) list;
  drops_by_site : (string * int) list;
  misdelivered : int;
  flows : int;
  flows_started : int;
  flows_completed : int;
  stretch : float;
  layer_hits : int * int * int * int * int;
  fp_layer_hits : int * int * int * int * int;
  last_misdelivered_arrival : Time_ns.t option;
  reordering_events : int;
  extra : (string * float) list;
  class_hit_rates : (int * float) list;
  bytes_by_pod : (int * int) array;
  bytes_by_switch : (int * int) array;
}

let manifest_of (setup : Setup.t) ~scheme_name ~until =
  let params = Topo.Topology.params setup.Setup.topo in
  Json.Obj
    [
      ("scheme", Json.Str scheme_name);
      ("seed", Json.Int setup.Setup.seed);
      ("num_vms", Json.Int setup.Setup.num_vms);
      ("horizon_s", Json.Float (Time_ns.to_sec until));
      ("git_rev", Json.Str (Report.git_rev ()));
      ( "topology",
        Json.Obj
          [
            ("pods", Json.Int params.Topo.Params.pods);
            ("racks_per_pod", Json.Int params.Topo.Params.racks_per_pod);
            ("spines_per_pod", Json.Int params.Topo.Params.spines_per_pod);
            ("hosts_per_rack", Json.Int params.Topo.Params.hosts_per_rack);
            ("vms_per_host", Json.Int params.Topo.Params.vms_per_host);
          ] );
    ]

let counts_json kvs = Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) kvs)

let results_json (r : result) =
  let core, spine, tor, gw, host = r.layer_hits in
  Json.Obj
    [
      ("hit_rate", Json.Float r.hit_rate);
      ("mean_fct_s", Json.Float r.mean_fct);
      ("mean_first_packet_latency_s", Json.Float r.mean_fpl);
      ("mean_packet_latency_s", Json.Float r.mean_pkt_latency);
      ("packets_sent", Json.Int r.packets_sent);
      ("gateway_packets", Json.Int r.gw_packets);
      ("packets_dropped", Json.Int r.packets_dropped);
      ("misdelivered", Json.Int r.misdelivered);
      ("flows_started", Json.Int r.flows_started);
      ("flows_completed", Json.Int r.flows_completed);
      ("reordering_events", Json.Int r.reordering_events);
      ("mean_stretch", Json.Float r.stretch);
      ( "layer_hits",
        counts_json
          [
            ("core", core);
            ("spine", spine);
            ("tor", tor);
            ("gateway", gw);
            ("host", host);
          ] );
      ( "scheme_stats",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) r.extra) );
    ]

(* The result row of a finished run. [extra] is the scheme's own
   stats ([] where they do not merge across shards). *)
let result_of ~scheme ~topo ~flows ~reordering_events ~extra m =
  let pods = (Topo.Topology.params topo).Topo.Params.pods in
  {
    scheme;
    hit_rate = Netsim.Metrics.hit_rate m;
    mean_fct = Netsim.Metrics.mean_fct m;
    mean_fpl = Netsim.Metrics.mean_first_packet_latency m;
    mean_pkt_latency = Netsim.Metrics.mean_packet_latency m;
    gw_packets = Netsim.Metrics.gateway_packets m;
    packets_sent = Netsim.Metrics.packets_sent m;
    packets_dropped = Netsim.Metrics.packets_dropped m;
    drops_by_kind = Netsim.Metrics.drops_by_kind m;
    drops_by_site = Netsim.Metrics.drops_by_site m;
    misdelivered = Netsim.Metrics.misdelivered_packets m;
    flows = List.length flows;
    flows_started = Netsim.Metrics.flows_started m;
    flows_completed = Netsim.Metrics.flows_completed m;
    stretch = Netsim.Metrics.mean_stretch m;
    layer_hits = Netsim.Metrics.layer_hits m;
    fp_layer_hits = Netsim.Metrics.first_packet_layer_hits m;
    last_misdelivered_arrival = Netsim.Metrics.last_misdelivered_arrival m;
    reordering_events;
    extra;
    class_hit_rates =
      List.map (fun c -> (c, Netsim.Metrics.class_hit_rate m c))
        (Netsim.Metrics.classes m);
    bytes_by_pod =
      Array.init pods (fun pod -> (pod, Netsim.Metrics.bytes_of_pod m pod));
    bytes_by_switch =
      Array.map
        (fun sw -> (sw, Netsim.Metrics.bytes_of_switch m sw))
        (Topo.Topology.switches topo);
  }

let run ?net_config ?report_name ?faults (setup : Setup.t) ~scheme ~flows
    ~migrations ~until =
  let tel, net_config =
    match (report_name, Report.telemetry_dir ()) with
    | Some _, Some _ ->
        let tel = Telemetry.create () in
        let cfg =
          Option.value net_config ~default:Netsim.Network.default_config
        in
        (tel, Some { cfg with Netsim.Network.telemetry = tel })
    | _ -> (Telemetry.disabled, net_config)
  in
  let net = Netsim.Network.create ?config:net_config setup.Setup.topo ~scheme in
  Option.iter (Netsim.Network.install_faults net) faults;
  Netsim.Network.run net flows ~migrations ~until;
  let result =
    result_of ~scheme:scheme.Netsim.Scheme.name ~topo:setup.Setup.topo ~flows
      ~reordering_events:
        (Netsim.Transport.reordering_events (Netsim.Network.transport net))
      ~extra:(scheme.Netsim.Scheme.stats ())
      (Netsim.Network.metrics net)
  in
  (match (report_name, Report.telemetry_dir ()) with
  | Some name, Some dir when Telemetry.is_enabled tel ->
      Report.ensure_dir dir;
      let doc =
        Telemetry.to_json tel
          ~manifest:(manifest_of setup ~scheme_name:result.scheme ~until)
          ~extra:
            [
              ("results", results_json result);
              ("drops_by_kind", counts_json result.drops_by_kind);
              ("drops_by_site", counts_json result.drops_by_site);
            ]
      in
      Telemetry.write ~path:(Filename.concat dir (Report.slug name ^ ".json")) doc
  | _ -> ());
  result

(* Sharded variant: same trace, executed as [shards] lock-step domains
   over one logical simulation (Netsim.Parnet). Telemetry reports are
   not supported here; [extra] scheme stats are per-shard and not
   generically mergeable, so they are omitted. *)
let run_sharded ?net_config ?faults ~shards (setup : Setup.t) ~fresh_scheme
    ~flows ~migrations ~until =
  let scheme_name = ref "" in
  let fresh_scheme ~shard =
    let s = fresh_scheme ~shard in
    if shard = 0 then scheme_name := s.Netsim.Scheme.name;
    s
  in
  let par =
    Netsim.Parnet.run ?config:net_config ?faults ~shards setup.Setup.topo
      ~fresh_scheme ~flows ~migrations ~until
  in
  let result =
    result_of ~scheme:!scheme_name ~topo:setup.Setup.topo ~flows
      ~reordering_events:(Netsim.Parnet.reordering_events par) ~extra:[]
      (Netsim.Parnet.metrics par)
  in
  (par, result)

let improvement ~baseline ~v =
  if baseline <= 0.0 || v <= 0.0 then 1.0 else baseline /. v
