module Time_ns = Dessim.Time_ns
module Stats = Dessim.Stats
module Packet = Netcore.Packet

type drop_site =
  | Link_buffer
  | Failed_switch
  | Gateway_miss
  | Host_miss
  | Fault_blackhole
  | Fault_loss
  | Fault_gateway

let num_kinds = 4
let num_sites = 7

let kind_index (k : Packet.kind) =
  match k with
  | Packet.Data -> 0
  | Packet.Ack -> 1
  | Packet.Learning -> 2
  | Packet.Invalidation -> 3

let site_index = function
  | Link_buffer -> 0
  | Failed_switch -> 1
  | Gateway_miss -> 2
  | Host_miss -> 3
  | Fault_blackhole -> 4
  | Fault_loss -> 5
  | Fault_gateway -> 6

let kind_name = function
  | Packet.Data -> "data"
  | Packet.Ack -> "ack"
  | Packet.Learning -> "learning"
  | Packet.Invalidation -> "invalidation"

let site_name = function
  | Link_buffer -> "link_buffer"
  | Failed_switch -> "failed_switch"
  | Gateway_miss -> "gateway_miss"
  | Host_miss -> "host_miss"
  | Fault_blackhole -> "fault_blackhole"
  | Fault_loss -> "fault_loss"
  | Fault_gateway -> "fault_gateway"

let all_kinds = [ Packet.Data; Packet.Ack; Packet.Learning; Packet.Invalidation ]

let all_sites =
  [
    Link_buffer;
    Failed_switch;
    Gateway_miss;
    Host_miss;
    Fault_blackhole;
    Fault_loss;
    Fault_gateway;
  ]

type t = {
  topo : Topo.Topology.t;
  classify : (Packet.t -> int) option;
  class_sent : (int, int ref) Hashtbl.t;
  class_gateway : (int, int ref) Hashtbl.t;
  mutable flows_started : int;
  mutable flows_completed : int;
  mutable packets_sent : int;
  mutable retransmits : int;
  mutable delivered_packets : int;
  drops : int array; (* kind-major [kind * num_sites + site] matrix *)
  mutable gateway_packets : int;
  fct : Stats.Reservoir.t;
  fpl : Stats.Summary.t;
  pkt_latency : Stats.Summary.t;
  stretch : Stats.Summary.t;
  mutable hits_core : int;
  mutable hits_spine : int;
  mutable hits_tor : int;
  mutable resolved_gateway : int;
  mutable resolved_host : int;
  mutable fp_hits_core : int;
  mutable fp_hits_spine : int;
  mutable fp_hits_tor : int;
  mutable fp_resolved_gateway : int;
  mutable fp_resolved_host : int;
  switch_bytes : int array;
  mutable misdelivered : int;
  mutable last_misdelivered_arrival : Time_ns.t; (* [no_arrival] if none *)
}

let no_arrival = min_int

let create ?classify topo rng =
  {
    topo;
    classify;
    class_sent = Hashtbl.create 8;
    class_gateway = Hashtbl.create 8;
    flows_started = 0;
    flows_completed = 0;
    packets_sent = 0;
    retransmits = 0;
    delivered_packets = 0;
    drops = Array.make (num_kinds * num_sites) 0;
    gateway_packets = 0;
    fct = Stats.Reservoir.create rng;
    fpl = Stats.Summary.create ();
    pkt_latency = Stats.Summary.create ();
    stretch = Stats.Summary.create ();
    hits_core = 0;
    hits_spine = 0;
    hits_tor = 0;
    resolved_gateway = 0;
    resolved_host = 0;
    fp_hits_core = 0;
    fp_hits_spine = 0;
    fp_hits_tor = 0;
    fp_resolved_gateway = 0;
    fp_resolved_host = 0;
    switch_bytes = Array.make (Topo.Topology.num_nodes topo) 0;
    misdelivered = 0;
    last_misdelivered_arrival = no_arrival;
  }

(* Elementwise sum of two per-class counter tables into a fresh one. *)
let merge_tables a b =
  let out = Hashtbl.create (Hashtbl.length a + Hashtbl.length b) in
  let add table =
    Hashtbl.iter
      (fun k r ->
        match Hashtbl.find_opt out k with
        | Some acc -> acc := !acc + !r
        | None -> Hashtbl.add out k (ref !r))
      table
  in
  add a;
  add b;
  out

let merge a b =
  if Array.length a.switch_bytes <> Array.length b.switch_bytes then
    invalid_arg "Metrics.merge: different topologies";
  {
    topo = a.topo;
    classify = a.classify;
    class_sent = merge_tables a.class_sent b.class_sent;
    class_gateway = merge_tables a.class_gateway b.class_gateway;
    flows_started = a.flows_started + b.flows_started;
    flows_completed = a.flows_completed + b.flows_completed;
    packets_sent = a.packets_sent + b.packets_sent;
    retransmits = a.retransmits + b.retransmits;
    delivered_packets = a.delivered_packets + b.delivered_packets;
    drops = Array.init (num_kinds * num_sites) (fun i -> a.drops.(i) + b.drops.(i));
    gateway_packets = a.gateway_packets + b.gateway_packets;
    fct = Stats.Reservoir.merge a.fct b.fct;
    fpl = Stats.Summary.merge a.fpl b.fpl;
    pkt_latency = Stats.Summary.merge a.pkt_latency b.pkt_latency;
    stretch = Stats.Summary.merge a.stretch b.stretch;
    hits_core = a.hits_core + b.hits_core;
    hits_spine = a.hits_spine + b.hits_spine;
    hits_tor = a.hits_tor + b.hits_tor;
    resolved_gateway = a.resolved_gateway + b.resolved_gateway;
    resolved_host = a.resolved_host + b.resolved_host;
    fp_hits_core = a.fp_hits_core + b.fp_hits_core;
    fp_hits_spine = a.fp_hits_spine + b.fp_hits_spine;
    fp_hits_tor = a.fp_hits_tor + b.fp_hits_tor;
    fp_resolved_gateway = a.fp_resolved_gateway + b.fp_resolved_gateway;
    fp_resolved_host = a.fp_resolved_host + b.fp_resolved_host;
    switch_bytes =
      Array.init (Array.length a.switch_bytes) (fun i ->
          a.switch_bytes.(i) + b.switch_bytes.(i));
    misdelivered = a.misdelivered + b.misdelivered;
    last_misdelivered_arrival =
      Time_ns.max a.last_misdelivered_arrival b.last_misdelivered_arrival;
  }

let tenant_packet (pkt : Packet.t) =
  match Packet.kind pkt with
  | Packet.Data | Packet.Ack -> true
  | Packet.Learning | Packet.Invalidation -> false

(* [Hashtbl.find], not [find_opt]: a hit allocates no option. *)
let bump table key =
  match Hashtbl.find table key with
  | r -> incr r
  | exception Not_found -> Hashtbl.add table key (ref 1)

let classify_into t table pkt =
  match t.classify with
  | Some f -> bump table (f pkt)
  | None -> ()

let packet_sent t pkt =
  if tenant_packet pkt then begin
    t.packets_sent <- t.packets_sent + 1;
    if Packet.retransmit pkt then t.retransmits <- t.retransmits + 1;
    classify_into t t.class_sent pkt
  end

(* Every kind is counted: control-plane losses (learning /
   invalidation packets) matter for protocol health even though they
   are not tenant traffic. *)
let packet_dropped t ~site (pkt : Packet.t) =
  let i = (kind_index (Packet.kind pkt) * num_sites) + site_index site in
  t.drops.(i) <- t.drops.(i) + 1

let drops_of_kind t kind =
  let base = kind_index kind * num_sites in
  let acc = ref 0 in
  for s = 0 to num_sites - 1 do
    acc := !acc + t.drops.(base + s)
  done;
  !acc

let drops_of_site t site =
  let s = site_index site in
  let acc = ref 0 in
  for k = 0 to num_kinds - 1 do
    acc := !acc + t.drops.((k * num_sites) + s)
  done;
  !acc

let drops_by_kind t = List.map (fun k -> (kind_name k, drops_of_kind t k)) all_kinds
let drops_by_site t = List.map (fun s -> (site_name s, drops_of_site t s)) all_sites

let gateway_arrival t pkt =
  if tenant_packet pkt then begin
    t.gateway_packets <- t.gateway_packets + 1;
    classify_into t t.class_gateway pkt
  end

let switch_processed t ~switch (pkt : Packet.t) =
  t.switch_bytes.(switch) <- t.switch_bytes.(switch) + Packet.size pkt

let delivered t (pkt : Packet.t) ~now ~first_of_flow =
  t.delivered_packets <- t.delivered_packets + 1;
  if Packet.is_data pkt then begin
    (* Ints into [Stats]: a float argument would be boxed at the call
       unless this module is inlined into its caller. *)
    Stats.Summary.add_int t.stretch (Packet.hops pkt);
    Stats.Summary.add_ns t.pkt_latency
      (Time_ns.to_ns (Time_ns.sub now pkt.Packet.sent_at));
    if pkt.Packet.misdelivery >= 0 then
      t.last_misdelivered_arrival <- now;
    let layer =
      if Packet.gw_visited pkt then `Gateway
      else if pkt.Packet.hit_switch >= 0 then
        match Topo.Topology.role t.topo pkt.Packet.hit_switch with
        | Topo.Node.Core_switch -> `Core
        | Topo.Node.Regular_spine | Topo.Node.Gateway_spine -> `Spine
        | Topo.Node.Regular_tor | Topo.Node.Gateway_tor -> `Tor
      else `Host
    in
    (match layer with
    | `Core -> t.hits_core <- t.hits_core + 1
    | `Spine -> t.hits_spine <- t.hits_spine + 1
    | `Tor -> t.hits_tor <- t.hits_tor + 1
    | `Gateway -> t.resolved_gateway <- t.resolved_gateway + 1
    | `Host -> t.resolved_host <- t.resolved_host + 1);
    if first_of_flow then
      match layer with
      | `Core -> t.fp_hits_core <- t.fp_hits_core + 1
      | `Spine -> t.fp_hits_spine <- t.fp_hits_spine + 1
      | `Tor -> t.fp_hits_tor <- t.fp_hits_tor + 1
      | `Gateway -> t.fp_resolved_gateway <- t.fp_resolved_gateway + 1
      | `Host -> t.fp_resolved_host <- t.fp_resolved_host + 1
  end

let misdelivered t (pkt : Packet.t) =
  if Packet.is_data pkt then t.misdelivered <- t.misdelivered + 1

let flow_started t = t.flows_started <- t.flows_started + 1

let flow_completed t ~fct =
  t.flows_completed <- t.flows_completed + 1;
  Stats.Reservoir.add_ns t.fct (Time_ns.to_ns fct)

let reserve_flows t n = Stats.Reservoir.reserve t.fct n
let first_packet_latency t lat = Stats.Summary.add_ns t.fpl (Time_ns.to_ns lat)
let flows_started t = t.flows_started
let flows_completed t = t.flows_completed

let hit_rate t =
  if t.packets_sent = 0 then 0.0
  else
    let r =
      1.0 -. (float_of_int t.gateway_packets /. float_of_int t.packets_sent)
    in
    Float.max 0.0 (Float.min 1.0 r)

let table_get table key =
  match Hashtbl.find_opt table key with Some r -> !r | None -> 0

let class_packets_sent t cls = table_get t.class_sent cls

let class_hit_rate t cls =
  let sent = table_get t.class_sent cls in
  if sent = 0 then 0.0
  else
    let gw = table_get t.class_gateway cls in
    Float.max 0.0 (Float.min 1.0 (1.0 -. (float_of_int gw /. float_of_int sent)))

let classes t =
  List.sort compare (Hashtbl.fold (fun cls _ acc -> cls :: acc) t.class_sent [])

let gateway_packets t = t.gateway_packets
let packets_sent t = t.packets_sent
let retransmits_sent t = t.retransmits
let delivered_packets t = t.delivered_packets
let packets_dropped t = Array.fold_left ( + ) 0 t.drops
let mean_fct t = Stats.Reservoir.mean t.fct
let fct_percentile t p = Stats.Reservoir.percentile t.fct p
let mean_first_packet_latency t = Stats.Summary.mean t.fpl
let mean_packet_latency t = Stats.Summary.mean t.pkt_latency

let layer_hits t =
  (t.hits_core, t.hits_spine, t.hits_tor, t.resolved_gateway, t.resolved_host)

let first_packet_layer_hits t =
  ( t.fp_hits_core,
    t.fp_hits_spine,
    t.fp_hits_tor,
    t.fp_resolved_gateway,
    t.fp_resolved_host )

let bytes_of_switch t switch = t.switch_bytes.(switch)

let bytes_of_pod t pod =
  let acc = ref 0 in
  Array.iter
    (fun sw ->
      if Topo.Node.pod_of (Topo.Topology.kind t.topo sw) = pod then
        acc := !acc + t.switch_bytes.(sw))
    (Topo.Topology.switches t.topo);
  !acc

let total_switch_bytes t = Array.fold_left ( + ) 0 t.switch_bytes
let mean_stretch t = Stats.Summary.mean t.stretch
let misdelivered_packets t = t.misdelivered
let last_misdelivered_arrival t =
  if t.last_misdelivered_arrival = no_arrival then None
  else Some t.last_misdelivered_arrival
