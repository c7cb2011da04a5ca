module Time_ns = Dessim.Time_ns
module Vip = Netcore.Addr.Vip
module Flow = Netcore.Flow
module Spec = Netsim.Scenario

type row = {
  variant : string;
  gateway_pkt_share : float;
  latency_x : float;
  last_misdelivery_us : float;
  misdelivered_x : float;
  invalidation_packets : int;
}

type t = { rows : row list }

let packet_bytes = 128
let packets_per_sender = 1000

(* Senders on distinct physical servers, all targeting [dst_vip]. *)
let incast_flows topo ~senders ~dst_vip ~duration =
  let vms_per_host = (Topo.Topology.params topo).Topo.Params.vms_per_host in
  let num_hosts = Array.length (Topo.Topology.hosts topo) in
  let dst_host_index = Vip.to_int dst_vip / vms_per_host in
  let sender_hosts =
    List.filter (fun h -> h <> dst_host_index) (List.init num_hosts Fun.id)
  in
  let rate_bps =
    float_of_int (packets_per_sender * packet_bytes * 8)
    /. Time_ns.to_sec duration
  in
  List.filteri (fun i _ -> i < senders) sender_hosts
  |> List.mapi (fun id host_index ->
         Flow.make ~pkt_bytes:packet_bytes ~id
           ~src_vip:(Vip.of_int (host_index * vms_per_host))
           ~dst_vip
           ~size_bytes:(packets_per_sender * packet_bytes)
           ~start:Time_ns.zero
           (Flow.Udp { rate_bps }))

let run ?(scale = `Small) ?(cache_pct = 50) ?(senders = 64) () =
  let v2p config = Spec.switchv2p ~config (Spec.Pct cache_pct) in
  let spec =
    Spec.make ~name:"tab4" ~topo:(Spec.preset `FT8 scale)
      (List.map
         (fun (label, kind) -> Spec.scheme ~label kind)
         [
           ("NoCache", Spec.Nocache);
           ("OnDemand", Spec.Ondemand);
           ( "SwitchV2P w/o invalidations",
             v2p (Switchv2p.Config.make ~invalidations:false ()) );
           ( "SwitchV2P w/o timestamp vector",
             v2p (Switchv2p.Config.make ~ts_vector:false ()) );
           ("SwitchV2P w/ timestamp vector", v2p Switchv2p.Config.default);
         ])
  in
  let topo = (Scenario.realize spec).Setup.topo in
  let hosts = Topo.Topology.hosts topo in
  let senders = min senders (Array.length hosts - 1) in
  let duration = Time_ns.of_ms 1 in
  let dst_vip = Vip.of_int 0 in
  (* Migrate to a host in a different rack of the same pod. *)
  let old_host = hosts.(0) in
  let new_host =
    let old_tor = Topo.Topology.tor_of topo old_host in
    match
      Array.to_list hosts
      |> List.find_opt (fun h -> Topo.Topology.tor_of topo h <> old_tor)
    with
    | Some h -> h
    | None -> invalid_arg "Tab4.run: topology too small for migration"
  in
  let flows = incast_flows topo ~senders ~dst_vip ~duration in
  let migrations =
    [
      {
        Netsim.Network.at = Time_ns.of_us 500;
        vip = dst_vip;
        to_host = new_host;
      };
    ]
  in
  let until = Time_ns.add duration (Time_ns.of_ms 2) in
  let task s =
    let full_name = "tab4/" ^ Scenario.label spec s in
    ( full_name,
      fun () ->
        let setup = Scenario.realize spec in
        Runner.run ~report_name:full_name setup
          ~scheme:(Scenario.build_scheme spec setup s)
          ~flows ~migrations ~until )
  in
  let runs =
    List.map2
      (fun s r -> (Scenario.label spec s, r))
      spec.Spec.schemes
      (Parallel.map (List.map task spec.Spec.schemes))
  in
  let base =
    match runs with
    | (_, b) :: _ -> b
    | [] -> assert false
  in
  let base_latency = base.Runner.mean_pkt_latency in
  let base_misdelivered = max 1 base.Runner.misdelivered in
  let rows =
    List.map
      (fun (variant, (r : Runner.result)) ->
        {
          variant;
          gateway_pkt_share =
            (if r.Runner.packets_sent = 0 then 0.0
             else
               float_of_int r.Runner.gw_packets
               /. float_of_int r.Runner.packets_sent);
          latency_x =
            (if base_latency <= 0.0 then 1.0
             else r.Runner.mean_pkt_latency /. base_latency);
          last_misdelivery_us =
            (match r.Runner.last_misdelivered_arrival with
            | Some ts -> Time_ns.to_us ts
            | None -> 0.0);
          misdelivered_x =
            float_of_int r.Runner.misdelivered
            /. float_of_int base_misdelivered;
          invalidation_packets =
            (match List.assoc_opt "invalidation_packets" r.Runner.extra with
            | Some v -> int_of_float v
            | None -> 0);
        })
      runs
  in
  { rows }

let print t =
  Report.table ~title:"Table 4: VM migration under incast (normalized by NoCache)"
    ~header:
      [
        "variant";
        "gw pkts";
        "avg latency";
        "last misdeliv [us]";
        "misdelivered";
        "inval pkts";
      ]
    (List.map
       (fun r ->
         [
           r.variant;
           Report.fpct r.gateway_pkt_share;
           Report.fx r.latency_x;
           Printf.sprintf "%.0f" r.last_misdelivery_us;
           Report.fx r.misdelivered_x;
           Report.fint r.invalidation_packets;
         ])
       t.rows)
