module Engine = Dessim.Engine
module Time_ns = Dessim.Time_ns
module Rng = Dessim.Rng
module Spsc = Dessim.Spsc
module Packet = Netcore.Packet
module Flow = Netcore.Flow
module Vip = Netcore.Addr.Vip
module Pip = Netcore.Addr.Pip
module Topology = Topo.Topology
module Verdict = Switchv2p.Verdict

type migration = { at : Time_ns.t; vip : Vip.t; to_host : int }

type config = {
  seed : int;
  gw_proc_delay : Time_ns.t;
  host_fwd_delay : Time_ns.t;
  window : int;
  rto : Time_ns.t;
  gateways_used : int option;
  loopback_delay : Time_ns.t;
  classify : (Packet.t -> int) option;
  transport_mode : Transport.mode;
  telemetry : Dessim.Telemetry.t;
}

let default_config =
  {
    seed = 42;
    gw_proc_delay = Time_ns.of_us 40;
    host_fwd_delay = Time_ns.of_us 10;
    window = 64;
    rto = Time_ns.of_us 500;
    gateways_used = None;
    loopback_delay = Time_ns.of_us 1;
    classify = None;
    transport_mode = Transport.Windowed;
    telemetry = Dessim.Telemetry.disabled;
  }

(* --- typed events ------------------------------------------------------

   Every event the network queues is typed: an event code plus two int
   operands, never a closure. Packet events reference the packet by its
   pool slot in [b]. A hop's [a] is the edge (directed-link id,
   {!Topology.edge}) the packet crossed: routing returned it, and the
   link, its source and its destination are one array load away. Only
   [ev_host_fwd] packs a node id with its action, in [node_bits] (a
   24-bit id space is ~16M nodes). Codes from [ev_no_packet] up carry
   no packet, so dispatch tells the two families apart with one
   compare. *)

let node_bits = 24
let node_mask = (1 lsl node_bits) - 1
let ev_arrive = 0 (* a = edge,                          b = slot *)
let ev_gateway = 1 (* a = gateway node,                 b = slot *)
let ev_forward = 2 (* a = switch node (scheme Delay),   b = slot *)
let ev_deliver = 3 (* loopback or cross-shard delivery, b = slot *)
let ev_host_fwd = 4 (* a = (action lsl node_bits) lor node, b = slot *)
let ev_arrive_remote = 5 (* like ev_arrive, but the link dequeue runs remotely *)
let ev_send_after = 6 (* a = sending host,              b = slot *)
let ev_remote_send = 7 (* a tenant send replayed by its host's shard, b = slot *)
let ev_no_packet = 16
let ev_fault = 16 (* a = index into the installed fault plan *)
let ev_link_deq = 17 (* a = edge, b = bytes *)
let ev_pace = 18 (* a = flow id, b = seq: a UDP flow's next send *)
let ev_flow_start = 19 (* a = slot in [starts], b = the half_* bits to start *)
let ev_rto = 20 (* a = flow id, b = the flow's start generation *)
let ev_migrate = 21 (* a = slot in [moves] *)

(* The transport halves of a flow, as bits: an unsharded network starts
   both in one [ev_flow_start], a shard only those it is home to. *)
let half_recv = 1
let half_send = 2
let half_both = half_recv lor half_send

(* ev_host_fwd actions; must be decided before the processing delay,
   exactly as the closure version captured the scheme's answer at
   misdelivery time. *)
let act_reforward = 0
let act_follow_me = 1

(* --- domain sharding ---------------------------------------------------

   In a sharded run (see Parnet) each OCaml domain owns one Network.t
   covering a partition of the nodes; a node's state — its links'
   source-side queues, its pipeline tables, its hosts' caches — is
   only ever touched by its owning shard. Packets cross the partition
   as serialized int records over SPSC mailboxes, injected back at the
   owner by {!receive_handoff}. Three message families:

   mode 0 — link hop: the source owner ran the full egress (loss
   draws, queue admission, ECN), so the record carries the computed
   arrival time; the owner of the destination node replays the arrival
   while a local [ev_link_deq] event drains the source-side queue at
   the same timestamp.

   mode 1 — fresh tenant send whose VM has migrated to a host another
   shard owns: the owner re-runs the whole send (resolution, metrics)
   one lookahead later. Charged to [injected_pkts] once, at the
   original origin, so a message still in a mailbox at the horizon
   shows up in the handoff counters and conservation still balances.

   modes 2/3 — final delivery of a data (2) or ack (3) packet whose
   transport endpoint lives on another shard: flows keep their
   sender/receiver state at the shards owning the flow's *initial*
   hosts, so a packet chasing a migrated VM is delivered where the
   transport actually is. *)

type handoff = {
  hs_my : int; (* this network's shard id *)
  hs_owner : int array; (* node id -> owning shard *)
  hs_out : Spsc.t array; (* outbound mailbox per destination shard *)
  hs_buf : int array; (* scratch serialization record *)
  hs_lookahead : Time_ns.t; (* min cross-shard link latency *)
  hs_send_home : int array; (* flow id -> shard holding the sender *)
  hs_recv_home : int array; (* flow id -> shard holding the receiver *)
  mutable hs_sent : int; (* records pushed (conservation: in-flight) *)
  mutable hs_recv : int; (* records injected *)
}

(* Values parked for a typed event that carries their slot: flows to
   start and migrations to run. Fired slots are reused; both arrays
   grow together. *)
type 'a slots = {
  mutable items : 'a array;
  mutable len : int;
  mutable free : int array;
  mutable free_top : int;
}

let slots_create () = { items = [||]; len = 0; free = [||]; free_top = 0 }

let slots_grow s ncap x =
  let items = Array.make ncap x in
  Array.blit s.items 0 items 0 s.len;
  s.items <- items;
  let free = Array.make ncap 0 in
  Array.blit s.free 0 free 0 s.free_top;
  s.free <- free

(* Room for [n] more values, [x] filling the new space. *)
let slots_reserve s n x =
  let cap = Array.length s.items in
  if s.len + n > cap then slots_grow s (max (s.len + n) (2 * cap)) x

let slots_put s x =
  let slot =
    if s.free_top > 0 then begin
      s.free_top <- s.free_top - 1;
      s.free.(s.free_top)
    end
    else begin
      let cap = Array.length s.items in
      if s.len = cap then slots_grow s (if cap = 0 then 256 else 2 * cap) x;
      let i = s.len in
      s.len <- i + 1;
      i
    end
  in
  s.items.(slot) <- x;
  slot

let slots_take s slot =
  s.free.(s.free_top) <- slot;
  s.free_top <- s.free_top + 1;
  s.items.(slot)

(* Queue [x] for a typed event at [at]. *)
let slots_schedule eng s ~at ~code ~b x =
  Engine.schedule_event eng ~at ~code ~a:(slots_put s x) ~b

type t = {
  cfg : config;
  engine : Engine.t;
  rng : Rng.t;
  topo : Topology.t;
  mapping : Netcore.Mapping.t;
  metrics : Metrics.t;
  scheme : Scheme.t;
  mutable transport : Transport.t option;
  vm_host : int array;
  gateways : int array; (* the replicas actually used *)
  mutable next_packet_id : int;
  env : Scheme.env;
  (* Packet pool: [pool] maps slot -> packet (every pool-managed packet
     keeps its slot in [pkt.pool_slot] for its whole life); [free_slots]
     is a stack of recyclable slots. Both arrays grow together, so
     [free_top <= pool_len <= capacity] always holds and a release
     never needs its own bounds check. *)
  mutable pool : Packet.t array;
  mutable pool_len : int;
  mutable free_slots : int array;
  mutable free_top : int;
  (* Fault injection. [faults_on] stays [false] until a plan is
     installed, so fault-free runs pay only dead branches on the hot
     path (no RNG draws, no behavior change). Fault firings are typed
     [ev_fault] events whose [a] operand indexes [fault_specs] — no
     closures. [fault_rng] is a dedicated stream (seeded from the
     plan) so per-packet loss draws and churn victim selection never
     perturb the simulation's own RNG sequences. *)
  mutable faults_on : bool;
  mutable fault_specs : Dessim.Fault.spec array;
  mutable fault_rng : Rng.t;
  (* Churn victim selection. In a single-shard run this is the same
     physical stream as [fault_rng] (loss draws and churn interleave
     exactly as the goldens recorded); a sharded run splits them so
     every shard can replay identical churn from a shared seed while
     loss draws stay private to the link owner. *)
  mutable churn_rng : Rng.t;
  mutable shard : handoff option;
  fault_counts : int array; (* firings per Fault kind *)
  gw_down : bool array; (* indexed by node id; true inside an outage *)
  (* Conservation accounting for the DST harness: every packet that
     enters the network is injected; terminal states are delivered
     (Metrics.delivered_packets), dropped (Metrics.packets_dropped),
     consumed by a switch, or still pooled at the horizon. *)
  mutable injected_pkts : int;
  mutable consumed_pkts : int;
  (* Flows and migrations handed to [load] and not yet fired. *)
  starts : Flow.t slots;
  moves : migration slots;
}

let fresh_packet_id t () =
  let id = t.next_packet_id in
  t.next_packet_id <- id + 1;
  id

let gateway_for_flow t flow_id =
  let n = Array.length t.gateways in
  t.gateways.(Topo.Routing.ecmp_hash ~salt:flow_id ~a:flow_id ~b:7 mod n)

let transport_exn t =
  match t.transport with Some tr -> tr | None -> assert false

(* --- packet pool ------------------------------------------------------- *)

let pool_grow t =
  let cap = Array.length t.pool in
  let ncap = if cap = 0 then 256 else cap * 2 in
  let npool = Array.make ncap t.pool.(0) in
  Array.blit t.pool 0 npool 0 t.pool_len;
  t.pool <- npool;
  let nfree = Array.make ncap 0 in
  Array.blit t.free_slots 0 nfree 0 t.free_top;
  t.free_slots <- nfree

(* Register [pkt] under a pool slot. Reuses a free slot when one is
   available (the recycled packet previously living there is simply
   replaced). Only packets built outside the pool take this branch:
   data, acks and scheme control packets come from [pool_acquire] and
   reuse the resident packet itself. *)
let pool_adopt t (pkt : Packet.t) =
  if pkt.Packet.pool_slot < 0 then begin
    let slot =
      if t.free_top > 0 then begin
        t.free_top <- t.free_top - 1;
        t.free_slots.(t.free_top)
      end
      else begin
        if t.pool_len = Array.length t.pool then pool_grow t;
        let s = t.pool_len in
        t.pool_len <- s + 1;
        s
      end
    in
    t.pool.(slot) <- pkt;
    pkt.Packet.pool_slot <- slot
  end

(* A recycled (or, when the free list is empty, freshly allocated)
   packet whose fields the caller must fully [Packet.reset]. *)
let pool_acquire t =
  if t.free_top > 0 then begin
    t.free_top <- t.free_top - 1;
    t.pool.(t.free_slots.(t.free_top))
  end
  else begin
    if t.pool_len = Array.length t.pool then pool_grow t;
    let slot = t.pool_len in
    t.pool_len <- slot + 1;
    let pkt = Packet.blank () in
    pkt.Packet.pool_slot <- slot;
    t.pool.(slot) <- pkt;
    pkt
  end

(* Called at every terminal point of a packet's life: delivery (after
   all metric/telemetry/transport reads), any drop, or consumption by a
   switch. Each in-flight packet has at most one pending event (hops
   are strictly sequential), so release-at-terminal can never race with
   a queued event still referencing the slot. *)
let pool_release t (pkt : Packet.t) =
  let slot = pkt.Packet.pool_slot in
  if slot >= 0 then begin
    (* Riders are unboxed ints, so a parked packet pins nothing; the
       next [pool_acquire] caller resets every field. *)
    t.free_slots.(t.free_top) <- slot;
    t.free_top <- t.free_top + 1
  end

(* --- cross-shard handoff serialization --------------------------------- *)

(* Record layout (all ints): 0 mode, 1 arrival, 2 edge (mode 0 only;
   every shard shares one Topology.t, so edge ids agree), 3 id,
   4 flow_id, 5 kind, 6 size, 7 seq, 8 src_vip, 9 dst_vip,
   10 src_pip, 11 dst_pip, 12 misdelivery, 13 hit_switch, 14 flags
   (with the hop count), 15 sent_at, 16-21 the three (vip, pip) riders
   (spill, promo, mapping payload) as the packet's raw ints, -1 when
   absent. *)
let hoff_stride = 22

let kind_code = function
  | Packet.Data -> 0
  | Packet.Ack -> 1
  | Packet.Learning -> 2
  | Packet.Invalidation -> 3

let kind_of_code = function
  | 0 -> Packet.Data
  | 1 -> Packet.Ack
  | 2 -> Packet.Learning
  | _ -> Packet.Invalidation

(* The packet half of a record: words [off+3 .. off+21]. Every flight
   field is written, so [hoff_decode] fully re-initializes a recycled
   packet (all but its [pool_slot]). *)
let hoff_encode buf off (pkt : Packet.t) =
  buf.(off + 3) <- pkt.Packet.id;
  buf.(off + 4) <- pkt.Packet.flow_id;
  buf.(off + 5) <- kind_code pkt.Packet.kind;
  buf.(off + 6) <- pkt.Packet.size;
  buf.(off + 7) <- pkt.Packet.seq;
  buf.(off + 8) <- Vip.to_int pkt.Packet.src_vip;
  buf.(off + 9) <- Vip.to_int pkt.Packet.dst_vip;
  buf.(off + 10) <- Pip.to_int pkt.Packet.src_pip;
  buf.(off + 11) <- Pip.to_int pkt.Packet.dst_pip;
  buf.(off + 12) <- pkt.Packet.misdelivery;
  buf.(off + 13) <- pkt.Packet.hit_switch;
  buf.(off + 14) <- pkt.Packet.flags;
  buf.(off + 15) <- Time_ns.to_ns pkt.Packet.sent_at;
  buf.(off + 16) <- pkt.Packet.spill_vip;
  buf.(off + 17) <- pkt.Packet.spill_pip;
  buf.(off + 18) <- pkt.Packet.promo_vip;
  buf.(off + 19) <- pkt.Packet.promo_pip;
  buf.(off + 20) <- pkt.Packet.mapping_vip;
  buf.(off + 21) <- pkt.Packet.mapping_pip

let hoff_decode buf off (pkt : Packet.t) =
  pkt.Packet.id <- buf.(off + 3);
  pkt.Packet.flow_id <- buf.(off + 4);
  pkt.Packet.kind <- kind_of_code buf.(off + 5);
  pkt.Packet.size <- buf.(off + 6);
  pkt.Packet.seq <- buf.(off + 7);
  pkt.Packet.src_vip <- Vip.of_int buf.(off + 8);
  pkt.Packet.dst_vip <- Vip.of_int buf.(off + 9);
  pkt.Packet.src_pip <- Pip.of_int buf.(off + 10);
  pkt.Packet.dst_pip <- Pip.of_int buf.(off + 11);
  pkt.Packet.misdelivery <- buf.(off + 12);
  pkt.Packet.hit_switch <- buf.(off + 13);
  pkt.Packet.flags <- buf.(off + 14);
  pkt.Packet.sent_at <- Time_ns.of_ns buf.(off + 15);
  pkt.Packet.spill_vip <- buf.(off + 16);
  pkt.Packet.spill_pip <- buf.(off + 17);
  pkt.Packet.promo_vip <- buf.(off + 18);
  pkt.Packet.promo_pip <- buf.(off + 19);
  pkt.Packet.mapping_vip <- buf.(off + 20);
  pkt.Packet.mapping_pip <- buf.(off + 21)

let hoff_push sc ~dst_shard ~mode ~arrival ~a (pkt : Packet.t) =
  let buf = sc.hs_buf in
  buf.(0) <- mode;
  buf.(1) <- Time_ns.to_ns arrival;
  buf.(2) <- a;
  hoff_encode buf 0 pkt;
  sc.hs_sent <- sc.hs_sent + 1;
  Spsc.push sc.hs_out.(dst_shard) buf

(* Materialize a handoff record into a pooled packet. *)
let hoff_read t buf off =
  let pkt = pool_acquire t in
  hoff_decode buf off pkt;
  pkt

(* The shard holding a tenant packet's transport endpoint: the
   receiver for data, the sender for acks — fixed at setup from the
   flows' initial placement. Control packets (and unknown flow ids,
   which never reach a transport) are local. *)
let hoff_home sc (pkt : Packet.t) =
  let f = pkt.Packet.flow_id in
  match pkt.Packet.kind with
  | Packet.Data ->
      if f >= 0 && f < Array.length sc.hs_recv_home then sc.hs_recv_home.(f)
      else sc.hs_my
  | Packet.Ack ->
      if f >= 0 && f < Array.length sc.hs_send_home then sc.hs_send_home.(f)
      else sc.hs_my
  | Packet.Learning | Packet.Invalidation -> sc.hs_my

(* --- forwarding ------------------------------------------------------- *)

let salt_of (pkt : Packet.t) =
  if pkt.Packet.flow_id >= 0 then pkt.Packet.flow_id else pkt.Packet.id

(* One-shot corruption: mangle the sequence number far out of any
   flow's valid range (the transport's bounds guard treats it as
   garbage and never acks, so the sender recovers by RTO) and strip
   rider payloads (a corrupted learning/invalidation packet carries
   nothing a switch would act on). *)
let corrupt_seq_offset = 1 lsl 40

let corrupt_packet (pkt : Packet.t) =
  pkt.Packet.seq <- pkt.Packet.seq + corrupt_seq_offset;
  pkt.Packet.mapping_vip <- -1;
  pkt.Packet.mapping_pip <- -1;
  pkt.Packet.promo_vip <- -1;
  pkt.Packet.promo_pip <- -1;
  pkt.Packet.spill_vip <- -1;
  pkt.Packet.spill_pip <- -1

let drop_faulted t ~site (pkt : Packet.t) =
  Metrics.packet_dropped t.metrics ~site pkt;
  pool_release t pkt

let transmit t ~edge (pkt : Packet.t) =
  if t.faults_on && edge = Topo.Routing.blackhole then
    (* Every candidate next hop is behind a downed link. *)
    drop_faulted t ~site:Metrics.Fault_blackhole pkt
  else begin
    let link = Topology.link_of_edge t.topo edge in
    if t.faults_on && not link.Topo.Link.up then
      (* Forced first hop (host/gateway uplink) onto a dead link. *)
      drop_faulted t ~site:Metrics.Fault_blackhole pkt
    else if t.faults_on && Topo.Link.loss_step link t.fault_rng then
      drop_faulted t ~site:Metrics.Fault_loss pkt
    else begin
      if t.faults_on && Topo.Link.take_corrupt link then corrupt_packet pkt;
      let p =
        Topo.Link.transmit_packed link ~now:(Engine.now t.engine)
          ~bytes:pkt.Packet.size
      in
      if p = Topo.Link.dropped then begin
        Metrics.packet_dropped t.metrics ~site:Metrics.Link_buffer pkt;
        pool_release t pkt
      end
      else begin
        if Topo.Link.packed_ce p then Packet.set_ecn pkt true;
        let arrival = Topo.Link.packed_arrival p in
        let next = link.Topo.Link.dst in
        match t.shard with
        | Some sc when sc.hs_owner.(next) <> sc.hs_my ->
            (* Cross-shard hop: the destination owner replays the
               arrival; a local typed event drains this side's link
               queue at the same timestamp. The arrival is at least
               one lookahead away (the lookahead is the minimum
               cross-shard propagation delay), which is what lets the
               window protocol drain mailboxes only at barriers. *)
            Engine.schedule_event t.engine ~at:arrival ~code:ev_link_deq
              ~a:edge ~b:pkt.Packet.size;
            hoff_push sc ~dst_shard:sc.hs_owner.(next) ~mode:0 ~arrival ~a:edge
              pkt;
            pool_release t pkt
        | _ ->
            pool_adopt t pkt;
            Engine.schedule_event t.engine ~at:arrival ~code:ev_arrive ~a:edge
              ~b:pkt.Packet.pool_slot
      end
    end
  end

let forward_from t ~node (pkt : Packet.t) =
  let dst = Topology.node_of_pip t.topo pkt.Packet.dst_pip in
  if dst = node then begin
    t.consumed_pkts <- t.consumed_pkts + 1;
    pool_release t pkt
  end
  else
    let edge =
      if t.faults_on then
        Topo.Routing.next_edge_alive t.topo ~at:node ~dst ~salt:(salt_of pkt)
      else Topo.Routing.next_edge t.topo ~at:node ~dst ~salt:(salt_of pkt)
    in
    transmit t ~edge pkt

let rec arrive t ~node ~from (pkt : Packet.t) =
  let node_tag = Topology.tag t.topo node in
  if node_tag >= Topology.tag_tor then begin
    Metrics.switch_processed t.metrics ~switch:node pkt;
    Packet.set_hops pkt (Packet.hops pkt + 1);
    let v = Pipeline.run t.scheme.Scheme.pipeline t.env ~switch:node ~from pkt in
    let tag = Verdict.tag v in
    if tag = Verdict.tag_forward then forward_from t ~node pkt
    else if tag = Verdict.tag_consume then begin
      t.consumed_pkts <- t.consumed_pkts + 1;
      pool_release t pkt
    end
    else if tag = Verdict.tag_delay then
      Engine.schedule_event_after t.engine ~delay:(Verdict.delay_ns v)
        ~code:ev_forward ~a:node ~b:pkt.Packet.pool_slot
    else begin
      Metrics.packet_dropped t.metrics ~site:Metrics.Failed_switch pkt;
      pool_release t pkt
    end
  end
  else if node_tag = Topology.tag_gateway then begin
    if t.faults_on && t.gw_down.(node) then
      (* Outage window: the gateway black-holes arrivals. *)
      drop_faulted t ~site:Metrics.Fault_gateway pkt
    else begin
      Metrics.gateway_arrival t.metrics pkt;
      Engine.schedule_event_after t.engine ~delay:t.cfg.gw_proc_delay
        ~code:ev_gateway ~a:node ~b:pkt.Packet.pool_slot
    end
  end
  else host_receive t ~node pkt

and gateway_forward t ~node (pkt : Packet.t) =
  match Netcore.Mapping.lookup t.mapping pkt.Packet.dst_vip with
  | exception Not_found ->
      Metrics.packet_dropped t.metrics ~site:Metrics.Gateway_miss pkt;
      pool_release t pkt
  | pip ->
      pkt.Packet.dst_pip <- pip;
      Packet.set_resolved pkt true;
      Packet.set_gw_visited pkt true;
      forward_from t ~node pkt

and host_receive t ~node (pkt : Packet.t) =
  match pkt.Packet.kind with
  | Packet.Learning | Packet.Invalidation ->
      (* Control packets are switch-addressed; one reaching a host is
         a routing bug. *)
      assert false
  | Packet.Data | Packet.Ack ->
      let vip_home = t.vm_host.(Vip.to_int pkt.Packet.dst_vip) in
      if vip_home = node then deliver t pkt
      else begin
        Metrics.misdelivered t.metrics pkt;
        (* Two ways a reforwarded packet can loop forever on stale
           cache entries, both broken by pinning it to gateway-only
           resolution: a second misdelivery (the VIP moved more than
           once and a switch "trusted" a cached value that was itself
           stale), and a misdelivery at the packet's own source host
           (the ToR's outer-source tagging heuristic cannot mark the
           reforward, so the stale entry would hairpin it back every
           time). *)
        if
          pkt.Packet.misdelivery >= 0
          || Pip.equal pkt.Packet.src_pip (Topology.pip t.topo node)
        then Packet.set_gw_pinned pkt true;
        let action =
          match t.scheme.Scheme.on_misdelivery t.env ~host:node pkt with
          | Scheme.Reforward_to_gateway -> act_reforward
          | Scheme.Follow_me -> act_follow_me
        in
        Engine.schedule_event_after t.engine ~delay:t.cfg.host_fwd_delay
          ~code:ev_host_fwd
          ~a:((action lsl node_bits) lor node)
          ~b:pkt.Packet.pool_slot
      end

and host_forward t ~node ~action (pkt : Packet.t) =
  if action = act_reforward then begin
    Packet.set_resolved pkt false;
    Packet.set_gw_visited pkt false;
    pkt.Packet.dst_pip <-
      Topology.pip t.topo (gateway_for_flow t pkt.Packet.flow_id);
    if t.scheme.Scheme.host_tags_misdelivery then begin
      pkt.Packet.misdelivery <- Pip.to_int (Topology.pip t.topo node);
      pkt.Packet.hit_switch <- -1
    end;
    transmit t ~edge:(Topology.uplink_edge t.topo node) pkt
  end
  else
    match Netcore.Mapping.lookup t.mapping pkt.Packet.dst_vip with
    | exception Not_found ->
        Metrics.packet_dropped t.metrics ~site:Metrics.Host_miss pkt;
        pool_release t pkt
    | pip ->
        pkt.Packet.dst_pip <- pip;
        Packet.set_resolved pkt true;
        pkt.Packet.misdelivery <- Pip.to_int (Topology.pip t.topo node);
        transmit t ~edge:(Topology.uplink_edge t.topo node) pkt

and deliver t (pkt : Packet.t) =
  match t.shard with
  | Some sc ->
      let home = hoff_home sc pkt in
      if home = sc.hs_my then deliver_local t pkt
      else begin
        (* The flow's transport endpoint lives on another shard (its VM
           migrated across the partition): hand the finished packet to
           the home shard, which re-runs [deliver] one lookahead later —
           delivery metrics and the transport callbacks both run where
           the flow state is. *)
        let arrival = Time_ns.add (Engine.now t.engine) sc.hs_lookahead in
        let mode = match pkt.Packet.kind with Packet.Ack -> 3 | _ -> 2 in
        hoff_push sc ~dst_shard:home ~mode ~arrival ~a:0 pkt;
        pool_release t pkt
      end
  | None -> deliver_local t pkt

and deliver_local t (pkt : Packet.t) =
  let first =
    Packet.is_data pkt
    && not
         (Transport.has_received_any (transport_exn t)
            ~flow_id:pkt.Packet.flow_id)
  in
  Metrics.delivered t.metrics pkt ~now:(Engine.now t.engine) ~first_of_flow:first;
  (* Guarded: the float argument is boxed at the call even when the
     sink is the disabled no-op. *)
  if Packet.is_data pkt && Dessim.Telemetry.is_enabled t.cfg.telemetry then
    Dessim.Telemetry.observe t.cfg.telemetry "packet_latency_s"
      (Time_ns.to_sec (Time_ns.sub (Engine.now t.engine) pkt.Packet.sent_at));
  (match pkt.Packet.kind with
  | Packet.Data -> Transport.on_data (transport_exn t) pkt
  | Packet.Ack -> Transport.on_ack (transport_exn t) pkt
  | Packet.Learning | Packet.Invalidation -> ());
  (* The transport callbacks only read the packet (any ACK they send is
     a fresh pool packet), so the slot can recycle now. *)
  pool_release t pkt

(* --- fault execution --------------------------------------------------- *)

let migrate_now t ~vip ~to_host =
  let old_host = t.vm_host.(Vip.to_int vip) in
  let old_pip = Topology.pip t.topo old_host in
  let new_pip = Topology.pip t.topo to_host in
  t.vm_host.(Vip.to_int vip) <- to_host;
  Netcore.Mapping.migrate t.mapping vip new_pip;
  t.scheme.Scheme.on_mapping_update t.env vip ~old_pip ~new_pip

module Fault = Dessim.Fault

let fault_series =
  Array.init Fault.num_kinds (fun i -> "fault/" ^ Fault.kind_name i)

let apply_action t (action : Fault.action) =
  match action with
  | Fault.Link_down (src, dst) ->
      (Topology.link t.topo ~src ~dst).Topo.Link.up <- false
  | Fault.Link_up (src, dst) ->
      (Topology.link t.topo ~src ~dst).Topo.Link.up <- true
  | Fault.Set_loss (src, dst, model) ->
      let l = Topology.link t.topo ~src ~dst in
      l.Topo.Link.loss <- model;
      l.Topo.Link.loss_state <- 0
  | Fault.Corrupt_next (src, dst) ->
      let l = Topology.link t.topo ~src ~dst in
      l.Topo.Link.corrupt_next <- l.Topo.Link.corrupt_next + 1
  | Fault.Switch_fail switch ->
      Pipeline.reset_switch t.scheme.Scheme.pipeline ~switch
  | Fault.Gateway_down g -> t.gw_down.(g) <- true
  | Fault.Gateway_up g -> t.gw_down.(g) <- false
  | Fault.Churn n ->
      let num_vms = Array.length t.vm_host in
      let hosts = Topology.hosts t.topo in
      let num_hosts = Array.length hosts in
      for _ = 1 to n do
        let vip = Rng.int t.churn_rng num_vms in
        let h = Rng.int t.churn_rng num_hosts in
        (* Never a no-op migration: bump to the next host if the draw
           landed on the VM's current placement. *)
        let to_host =
          if hosts.(h) = t.vm_host.(vip) then hosts.((h + 1) mod num_hosts)
          else hosts.(h)
        in
        migrate_now t ~vip:(Vip.of_int vip) ~to_host
      done

let apply_fault t ~index =
  let spec = t.fault_specs.(index) in
  let k = Fault.kind_index spec.Fault.action in
  (* Churn is the one fault replayed on every shard (each replica
     migrates its own copies of the victims); count it once. *)
  let count_here =
    match (spec.Fault.action, t.shard) with
    | Fault.Churn _, Some sc -> sc.hs_my = 0
    | _ -> true
  in
  if count_here then t.fault_counts.(k) <- t.fault_counts.(k) + 1;
  apply_action t spec.Fault.action;
  if count_here && Dessim.Telemetry.is_enabled t.cfg.telemetry then
    Dessim.Telemetry.sample t.cfg.telemetry
      fault_series.(k)
      ~now_sec:(Time_ns.to_sec (Engine.now t.engine))
      (float_of_int t.fault_counts.(k))

(* --- sending ---------------------------------------------------------- *)

let send_tenant_body t ~src_host (pkt : Packet.t) =
  let dst_home = t.vm_host.(Vip.to_int pkt.Packet.dst_vip) in
  if dst_home = src_host then begin
    (* Hypervisor-local switching for co-located VMs: no network, no
       translation. *)
    Packet.set_resolved pkt true;
    pkt.Packet.dst_pip <- Topology.pip t.topo src_host;
    pool_adopt t pkt;
    Engine.schedule_event_after t.engine ~delay:t.cfg.loopback_delay
      ~code:ev_deliver ~a:0 ~b:pkt.Packet.pool_slot
  end
  else begin
    (* Loopback packets are excluded from the hit-rate denominator:
       they involve no translation at all. *)
    Metrics.packet_sent t.metrics pkt;
    let r =
      t.scheme.Scheme.resolve_at_host t.env ~host:src_host
        ~flow_id:pkt.Packet.flow_id ~dst_vip:pkt.Packet.dst_vip
    in
    let tag = Scheme.Resolution.tag r in
    if tag = Scheme.Resolution.tag_resolved then begin
      pkt.Packet.dst_pip <- Scheme.Resolution.pip r;
      Packet.set_resolved pkt true;
      transmit t ~edge:(Topology.uplink_edge t.topo src_host) pkt
    end
    else if tag = Scheme.Resolution.tag_via_gateway then begin
      pkt.Packet.dst_pip <-
        Topology.pip t.topo (gateway_for_flow t pkt.Packet.flow_id);
      transmit t ~edge:(Topology.uplink_edge t.topo src_host) pkt
    end
    else begin
      (* A pooled packet waits out the penalty in a typed event; nothing
         reads its [dst_pip] until it is sent. *)
      pkt.Packet.dst_pip <- Scheme.Resolution.pip r;
      pool_adopt t pkt;
      Engine.schedule_event_after t.engine ~delay:(Scheme.Resolution.delay r)
        ~code:ev_send_after ~a:src_host ~b:pkt.Packet.pool_slot
    end
  end

let send_tenant_packet t ~src_host pkt =
  t.injected_pkts <- t.injected_pkts + 1;
  send_tenant_body t ~src_host pkt

(* Entry point for fresh tenant sends: a migrated VM may live on a
   host another shard owns, in which case the whole send (scheme
   resolution, host cache reads, metrics) is replayed at the owner one
   lookahead later — a mode-1 handoff. [counted] says the packet was
   already charged to [injected_pkts]: the charge happens exactly once
   at the original origin, so an undrained mode-1 message at the
   horizon is balanced by the handoff counters like any other
   in-flight record. A single-shard network always takes the direct
   branch. *)
let send_from_host t ~counted (pkt : Packet.t) =
  let src_host = t.vm_host.(Vip.to_int pkt.Packet.src_vip) in
  match t.shard with
  | Some sc when sc.hs_owner.(src_host) <> sc.hs_my ->
      if not counted then t.injected_pkts <- t.injected_pkts + 1;
      let arrival = Time_ns.add (Engine.now t.engine) sc.hs_lookahead in
      hoff_push sc ~dst_shard:sc.hs_owner.(src_host) ~mode:1 ~arrival ~a:0 pkt;
      pool_release t pkt
  | _ ->
      if counted then begin
        (* Replayed at the owner: stamp the outer source with the
           actual sending host, as the origin would have. *)
        pkt.Packet.src_pip <- Topology.pip t.topo src_host;
        send_tenant_body t ~src_host pkt
      end
      else send_tenant_packet t ~src_host pkt

(* Typed-event dispatcher. The [b] operand of every packet-carrying
   code is a pool slot; packets are adopted into the pool before their
   first hop, so the slot is always live here. *)
let handle_event t ~code ~a ~b =
  if code >= ev_no_packet then begin
    if code = ev_link_deq then
      (* Source-side half of a cross-shard hop: the packet itself
         arrives on the peer shard. *)
      Topo.Link.delivered (Topology.link_of_edge t.topo a) ~bytes:b
    else if code = ev_rto then
      Transport.timed_out (transport_exn t) ~flow_id:a ~gen:b
    else if code = ev_pace then
      Transport.paced (transport_exn t) ~flow_id:a ~seq:b
    else if code = ev_flow_start then begin
      let flow = slots_take t.starts a in
      if b = half_recv then Transport.start_receiver (transport_exn t) flow
      else begin
        Metrics.flow_started t.metrics;
        if b = half_send then Transport.start_sender (transport_exn t) flow
        else Transport.start (transport_exn t) flow
      end
    end
    else if code = ev_fault then apply_fault t ~index:a
    else if code = ev_migrate then begin
      let m = slots_take t.moves a in
      migrate_now t ~vip:m.vip ~to_host:m.to_host
    end
    else assert false
  end
  else begin
    let pkt = t.pool.(b) in
    if code = ev_arrive then begin
      let link = Topology.link_of_edge t.topo a in
      Topo.Link.delivered link ~bytes:pkt.Packet.size;
      arrive t ~node:link.Topo.Link.dst ~from:link.Topo.Link.src pkt
    end
    else if code = ev_arrive_remote then begin
      (* Cross-shard arrival: the sender's shard already drained its
         link queue via [ev_link_deq]. *)
      let link = Topology.link_of_edge t.topo a in
      arrive t ~node:link.Topo.Link.dst ~from:link.Topo.Link.src pkt
    end
    else if code = ev_gateway then gateway_forward t ~node:a pkt
    else if code = ev_forward then forward_from t ~node:a pkt
    else if code = ev_deliver then deliver t pkt
    else if code = ev_host_fwd then
      host_forward t ~node:(a land node_mask) ~action:(a lsr node_bits) pkt
    else if code = ev_send_after then begin
      (* The scheme's resolution penalty has elapsed; [dst_pip] was
         written when it answered. *)
      Packet.set_resolved pkt true;
      transmit t ~edge:(Topology.uplink_edge t.topo a) pkt
    end
    else if code = ev_remote_send then send_from_host t ~counted:true pkt
    else assert false
  end

let make_transport t =
  let now () = Engine.now t.engine in
  let timeout delay ~flow_id ~gen =
    Engine.schedule_event_after t.engine ~delay ~code:ev_rto ~a:flow_id ~b:gen
  in
  let pace delay ~flow_id ~seq =
    Engine.schedule_event_after t.engine ~delay ~code:ev_pace ~a:flow_id ~b:seq
  in
  let send_data flow ~seq ~size ~retransmit =
    let src_host = t.vm_host.(Vip.to_int flow.Flow.src_vip) in
    let pkt = pool_acquire t in
    Packet.reset pkt ~id:(fresh_packet_id t ()) ~flow_id:flow.Flow.id
      ~kind:Packet.Data ~seq ~size ~src_vip:flow.Flow.src_vip
      ~dst_vip:flow.Flow.dst_vip
      ~src_pip:(Topology.pip t.topo src_host)
      ~dst_pip:Pip.none ~now:(now ());
    Packet.set_retransmit pkt retransmit;
    send_from_host t ~counted:false pkt
  in
  let send_ack flow ~seq ~ecn_echo =
    let src_host = t.vm_host.(Vip.to_int flow.Flow.dst_vip) in
    let pkt = pool_acquire t in
    Packet.reset pkt ~id:(fresh_packet_id t ()) ~flow_id:flow.Flow.id
      ~kind:Packet.Ack ~seq ~size:Packet.ack_size ~src_vip:flow.Flow.dst_vip
      ~dst_vip:flow.Flow.src_vip
      ~src_pip:(Topology.pip t.topo src_host)
      ~dst_pip:Pip.none ~now:(now ());
    Packet.set_ecn pkt ecn_echo;
    send_from_host t ~counted:false pkt
  in
  let tel = t.cfg.telemetry in
  let flow_done _flow ~fct =
    Metrics.flow_completed t.metrics ~fct;
    if Dessim.Telemetry.is_enabled tel then
      Dessim.Telemetry.observe tel "fct_s" (Time_ns.to_sec fct)
  in
  let first_packet _flow ~latency =
    Metrics.first_packet_latency t.metrics latency;
    if Dessim.Telemetry.is_enabled tel then
      Dessim.Telemetry.observe tel "first_packet_latency_s"
        (Time_ns.to_sec latency)
  in
  Transport.create ~mode:t.cfg.transport_mode ~window:t.cfg.window
    ~rto:t.cfg.rto
    {
      Transport.now;
      timeout;
      pace;
      send_data;
      send_ack;
      flow_done;
      first_packet;
    }

(* --- construction ----------------------------------------------------- *)

let create ?(config = default_config) topo ~scheme =
  (* Topologies may be reused across runs; links carry per-run queue
     state. *)
  Topology.iter_links topo Topo.Link.reset;
  let engine = Engine.create () in
  let rng = Rng.create config.seed in
  let params = Topology.params topo in
  let hosts = Topology.hosts topo in
  let vms_per_host = params.Topo.Params.vms_per_host in
  let num_vms = Array.length hosts * vms_per_host in
  (* Size both mapping lanes once; the install storm below touches
     every VIP, so starting at 1024 would re-blit the lanes
     ~log2(num_vms/1024) times at large presets. *)
  let mapping = Netcore.Mapping.create ~initial_capacity:num_vms () in
  let vm_host =
    Array.init num_vms (fun vip -> hosts.(vip / vms_per_host))
  in
  Array.iteri
    (fun vip host ->
      Netcore.Mapping.install mapping (Vip.of_int vip) (Topology.pip topo host))
    vm_host;
  let gateways =
    match config.gateways_used with
    | None -> Topology.gateways topo
    | Some k ->
        let all = Topology.gateways topo in
        if k <= 0 || k > Array.length all then
          invalid_arg "Network.create: gateways_used out of range";
        Array.sub all 0 k
  in
  let pool_seed = Packet.blank () in
  pool_seed.Packet.pool_slot <- 0;
  (* One physical stream for loss draws and churn until a sharded run
     re-seeds them separately (see [install_faults]). *)
  let frng = Rng.create (config.seed lxor 0x5afe) in
  let rec t =
    {
      cfg = config;
      engine;
      rng;
      topo;
      mapping;
      metrics = Metrics.create ?classify:config.classify topo (Rng.split rng);
      scheme;
      transport = None;
      vm_host;
      gateways;
      next_packet_id = 0;
      env;
      pool = Array.make 256 pool_seed;
      pool_len = 1;
      free_slots = Array.make 256 0;
      free_top = 1;
      (* slot 0 = pool_seed, already free *)
      faults_on = false;
      fault_specs = [||];
      fault_rng = frng;
      churn_rng = frng;
      shard = None;
      fault_counts = Array.make Dessim.Fault.num_kinds 0;
      gw_down = Array.make (Topology.num_nodes topo) false;
      injected_pkts = 0;
      consumed_pkts = 0;
      starts = slots_create ();
      moves = slots_create ();
    }
  and env =
    {
      Scheme.engine;
      rng = Rng.create (config.seed + 1);
      topo;
      mapping;
      base_rtt = Topo.Params.base_rtt params;
      fresh_packet_id = (fun () -> fresh_packet_id t ());
      pooled_packet = (fun () -> pool_acquire t);
      emit_at_switch =
        (fun ~src_switch pkt ->
          t.injected_pkts <- t.injected_pkts + 1;
          Metrics.packet_sent t.metrics pkt;
          forward_from t ~node:src_switch pkt);
    }
  in
  Engine.set_handler engine (fun ~code ~a ~b -> handle_event t ~code ~a ~b);
  t.transport <- Some (make_transport t);
  (* One-time pipeline setup: per-run scheme state (e.g. the memoized
     dataplane env) is built here, never on the per-hop path. *)
  Pipeline.prepare scheme.Scheme.pipeline env;
  if Dessim.Telemetry.is_enabled config.telemetry then
    Pipeline.attach scheme.Scheme.pipeline config.telemetry;
  t

(* --- fault plans ------------------------------------------------------- *)

let validate_action t (action : Fault.action) =
  let check_link src dst =
    match Topology.link t.topo ~src ~dst with
    | (_ : Topo.Link.t) -> ()
    | exception Not_found ->
        invalid_arg
          (Printf.sprintf "Network.install_faults: no link %d -> %d" src dst)
  in
  let check_switch sw =
    if
      sw < 0
      || sw >= Topology.num_nodes t.topo
      || Topo.Node.is_endpoint (Topology.kind t.topo sw)
    then
      invalid_arg (Printf.sprintf "Network.install_faults: %d is not a switch" sw)
  in
  let check_gateway g =
    match Topology.kind t.topo g with
    | Topo.Node.Gateway _ -> ()
    | _ | (exception Invalid_argument _) ->
        invalid_arg
          (Printf.sprintf "Network.install_faults: %d is not a gateway" g)
  in
  match action with
  | Fault.Link_down (s, d) | Fault.Link_up (s, d)
  | Fault.Set_loss (s, d, _)
  | Fault.Corrupt_next (s, d) ->
      check_link s d
  | Fault.Switch_fail sw -> check_switch sw
  | Fault.Gateway_down g | Fault.Gateway_up g -> check_gateway g
  | Fault.Churn n ->
      if n < 0 then invalid_arg "Network.install_faults: negative churn batch"

(* The shard whose state a fault mutates: link faults live with the
   source endpoint (all link state is source-side), switch and gateway
   faults with the node; churn is replayed everywhere. *)
let fault_owner_node (a : Fault.action) =
  match a with
  | Fault.Link_down (src, _)
  | Fault.Link_up (src, _)
  | Fault.Set_loss (src, _, _)
  | Fault.Corrupt_next (src, _) ->
      Some src
  | Fault.Switch_fail sw -> Some sw
  | Fault.Gateway_down g | Fault.Gateway_up g -> Some g
  | Fault.Churn _ -> None

let install_faults t (plan : Fault.plan) =
  if t.faults_on then invalid_arg "Network.install_faults: plan already installed";
  let specs = Fault.sort_specs plan.Fault.specs in
  Array.iter (fun s -> validate_action t s.Fault.action) specs;
  t.faults_on <- true;
  t.fault_specs <- specs;
  (match t.shard with
  | None ->
      let r = Rng.create plan.Fault.seed in
      t.fault_rng <- r;
      t.churn_rng <- r
  | Some sc ->
      (* Loss draws happen at the owner of each link's source side, so
         every shard gets a private stream; churn replays on all shards
         from one shared-seed stream, so the replicas pick identical
         victims in identical order. *)
      t.fault_rng <- Rng.create (plan.Fault.seed lxor (0x9e3779b9 * (sc.hs_my + 1)));
      t.churn_rng <- Rng.create (plan.Fault.seed lxor 0x2c07));
  Array.iteri
    (fun i (s : Fault.spec) ->
      let mine =
        match t.shard with
        | None -> true
        | Some sc -> (
            match fault_owner_node s.Fault.action with
            | None -> true
            | Some node -> sc.hs_owner.(node) = sc.hs_my)
      in
      if mine then
        Engine.schedule_event t.engine ~at:s.Fault.at ~code:ev_fault ~a:i ~b:0)
    specs

let faults_installed t = t.faults_on

let fault_counts t =
  Array.to_list
    (Array.mapi (fun i c -> (Fault.kind_name i, c)) t.fault_counts)

let injected_packets t = t.injected_pkts
let consumed_at_switch t = t.consumed_pkts
let live_packets t = t.pool_len - t.free_top

(* --- sharded execution hooks ------------------------------------------- *)

let handoff_stride = hoff_stride
let handoff_encode = hoff_encode
let handoff_decode = hoff_decode

let set_shard t ~my ~owner ~out ~lookahead ~send_home ~recv_home =
  (match t.shard with
  | Some _ -> invalid_arg "Network.set_shard: already sharded"
  | None -> ());
  if t.faults_on then
    invalid_arg "Network.set_shard: install faults after set_shard";
  if Time_ns.compare lookahead Time_ns.zero <= 0 then
    invalid_arg "Network.set_shard: lookahead must be positive";
  t.shard <-
    Some
      {
        hs_my = my;
        hs_owner = owner;
        hs_out = out;
        hs_buf = Array.make hoff_stride 0;
        hs_lookahead = lookahead;
        hs_send_home = send_home;
        hs_recv_home = recv_home;
        hs_sent = 0;
        hs_recv = 0;
      }

let receive_handoff t buf off =
  let sc =
    match t.shard with
    | Some sc -> sc
    | None -> invalid_arg "Network.receive_handoff: not sharded"
  in
  sc.hs_recv <- sc.hs_recv + 1;
  let mode = buf.(off) in
  let arrival = Time_ns.of_ns buf.(off + 1) in
  let a = buf.(off + 2) in
  let pkt = hoff_read t buf off in
  let code =
    if mode = 0 then ev_arrive_remote
    else if mode = 1 then ev_remote_send
    else ev_deliver
  in
  Engine.schedule_event t.engine ~at:arrival ~code ~a ~b:pkt.Packet.pool_slot

let handoffs_sent t = match t.shard with Some sc -> sc.hs_sent | None -> 0
let handoffs_received t = match t.shard with Some sc -> sc.hs_recv | None -> 0
let gateway_is_down t node = t.gw_down.(node)
let metrics t = t.metrics

let transport t =
  match t.transport with Some tr -> tr | None -> assert false
let topo t = t.topo
let mapping t = t.mapping
let engine t = t.engine
let env t = t.env
let vm_host t vip = t.vm_host.(Vip.to_int vip)
let num_vms t = Array.length t.vm_host
let host_of_vm_index t i = t.vm_host.(i)

(* The halves of [flow] that start on [t]: both on an unsharded
   network, else those whose home shard is this one. *)
let halves_here t (flow : Flow.t) =
  match t.shard with
  | None -> half_both
  | Some sc ->
      (if sc.hs_recv_home.(flow.Flow.id) = sc.hs_my then half_recv else 0)
      lor if sc.hs_send_home.(flow.Flow.id) = sc.hs_my then half_send else 0

(* [ev_flow_start] events for [flow]: one starting both halves on an
   unsharded network, else one per half here. *)
let start_events t halves =
  match t.shard with
  | None -> min halves 1
  | Some _ -> (halves land 1) + (halves lsr 1)

(* One pass over the workload sizes the transport, the FCT samples and
   the start table, so the run grows nothing per flow. Written as a
   loop with int accumulators: [run] is also called once per tiny flow
   batch (the eventcore bench), where closures and refs would be its
   only allocation. *)
let rec reserve_flows t flows ~rows ~events ~acks ~recvs ~max_id =
  match flows with
  | [] ->
      Transport.reserve (transport_exn t) ~flows:rows ~ack_packets:acks
        ~recv_packets:recvs ~max_id;
      Metrics.reserve_flows t.metrics rows;
      events
  | (flow : Flow.t) :: rest ->
      let h = halves_here t flow and n = Flow.packet_count flow in
      let reliable =
        match flow.Flow.proto with Flow.Tcpish -> true | Flow.Udp _ -> false
      in
      reserve_flows t rest
        ~rows:(if h = 0 then rows else rows + 1)
        ~events:(events + start_events t h)
        ~acks:(if reliable && h land half_send <> 0 then acks + n else acks)
        ~recvs:(if h land half_recv <> 0 then recvs + n else recvs)
        ~max_id:(if h = 0 then max_id else max max_id flow.Flow.id)

let start_event t (flow : Flow.t) b =
  slots_schedule t.engine t.starts ~at:flow.Flow.start ~code:ev_flow_start ~b
    flow

(* Receiver before sender when one shard holds both, as
   [Transport.start] does. *)
let rec schedule_starts t = function
  | [] -> ()
  | flow :: rest ->
      let h = halves_here t flow in
      (match t.shard with
      | None -> start_event t flow half_both
      | Some _ ->
          if h land half_recv <> 0 then start_event t flow half_recv;
          if h land half_send <> 0 then start_event t flow half_send);
      schedule_starts t rest

let rec schedule_moves t = function
  | [] -> ()
  | m :: rest ->
      slots_schedule t.engine t.moves ~at:m.at ~code:ev_migrate ~b:0 m;
      schedule_moves t rest

let load t flows ~migrations =
  let events =
    reserve_flows t flows ~rows:0 ~events:0 ~acks:0 ~recvs:0 ~max_id:(-1)
  in
  (match flows with f :: _ -> slots_reserve t.starts events f | [] -> ());
  (match migrations with
  | m :: _ -> slots_reserve t.moves (List.length migrations) m
  | [] -> ());
  schedule_starts t flows;
  schedule_moves t migrations

let run t flows ~migrations ~until =
  load t flows ~migrations;
  let tel = t.cfg.telemetry in
  if Dessim.Telemetry.is_enabled tel then begin
    (* Periodic probes are pure observers: they draw no randomness and
       mutate no simulation state, so an instrumented run stays
       bit-identical to an uninstrumented one. The chain stops on its
       own once the engine reaches [until]. *)
    let probe now =
      let now_sec = Time_ns.to_sec now in
      Pipeline.probe t.scheme.Scheme.pipeline tel ~now_sec;
      Dessim.Telemetry.sample tel "net/flows_completed" ~now_sec
        (float_of_int (Metrics.flows_completed t.metrics));
      Dessim.Telemetry.sample tel "net/packets_dropped" ~now_sec
        (float_of_int (Metrics.packets_dropped t.metrics));
      Dessim.Telemetry.sample tel "net/gateway_packets" ~now_sec
        (float_of_int (Metrics.gateway_packets t.metrics))
    in
    let interval = Dessim.Telemetry.sample_interval tel in
    let rec tick () =
      let now = Engine.now t.engine in
      probe now;
      if Time_ns.compare now until < 0 then
        Engine.schedule t.engine ~at:(Time_ns.add now interval) tick
    in
    Engine.schedule t.engine ~at:interval tick;
    Engine.run_until t.engine ~limit:until;
    probe (Engine.now t.engine)
  end
  else Engine.run_until t.engine ~limit:until
