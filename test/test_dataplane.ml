(* Tests for the SwitchV2P data-plane pipeline: Table-1 learning rules,
   learning packets, spillover, promotion, misdelivery tagging and the
   invalidation protocol. Packets are injected at hand-picked switches
   of a small two-pod FatTree. *)

module Dataplane = Switchv2p.Dataplane
module Cache = Switchv2p.Cache
module Config = Switchv2p.Config
module Topology = Topo.Topology
module Node = Topo.Node
module Packet = Netcore.Packet
module Vip = Netcore.Addr.Vip
module Pip = Netcore.Addr.Pip

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let vip = Vip.of_int

let topo () =
  Topology.build
    (Topo.Params.scaled ~spines_per_pod:2 ~cores_per_group:1
       ~gateways_per_gateway_pod:1 ~pods:2 ~racks_per_pod:2 ~hosts_per_rack:2
       ~vms_per_host:2 ())

type harness = {
  t : Topology.t;
  dp : Dataplane.t;
  env : Dataplane.env;
  emitted : (int * Packet.t) list ref;
  clock : Dessim.Time_ns.t ref;
}

let harness ?(config = Config.default) ?(slots_per_switch = 16) () =
  let t = topo () in
  let total = slots_per_switch * Array.length (Topology.switches t) in
  let dp = Dataplane.create config t ~total_cache_slots:total in
  let emitted = ref [] in
  let clock = ref 0 in
  let next_id = ref 10_000 in
  let env =
    {
      Dataplane.now = (fun () -> !clock);
      emit = (fun ~src_switch pkt -> emitted := (src_switch, pkt) :: !emitted);
      fresh_packet_id =
        (fun () ->
          incr next_id;
          !next_id);
      pooled_packet = Packet.blank;
      rng = Dessim.Rng.create 99;
    }
  in
  { t; dp; env; emitted; clock }

(* Structural landmarks of the test topology. *)
let gw_tor h = (Array.to_list (Topology.tors h.t))
               |> List.find (fun sw -> Topology.role h.t sw = Node.Gateway_tor)

let regular_tor h =
  (Array.to_list (Topology.tors h.t))
  |> List.find (fun sw -> Topology.role h.t sw = Node.Regular_tor)

let spine_in_pod h pod = Topology.spine_id h.t ~pod ~group:0

let host_in h ~pod ~rack ~idx =
  (Topology.endpoints_of_tor h.t (Topology.tor_id h.t ~pod ~rack)).(idx)

let gateway h = (Topology.gateways h.t).(0)

let mk_data ?(resolved = false) ?(id = 1) h ~src_host ~dst_vip ~dst_node =
  let p =
    Packet.make_data ~id ~flow_id:1 ~seq:0 ~size:1500
      ~src_vip:(vip (1000 + src_host))
      ~dst_vip
      ~src_pip:(Topology.pip h.t src_host)
      ~dst_pip:(Topology.pip h.t dst_node)
      ~now:0
  in
  Packet.set_resolved p resolved;
  p

let process h ~switch ~from pkt = Dataplane.process h.dp h.env ~switch ~from pkt

(* Riders are one packed (vip, pip) word each; their halves read -1
   when there is none. *)
let set_spill = Packet.set_spill
let set_promo = Packet.set_promo
let no_spill (p : Packet.t) = Packet.spill_vip p = -1 && Packet.spill_pip p = -1
let no_promo (p : Packet.t) = Packet.promo_vip p = -1 && Packet.promo_pip p = -1
let cache h sw = Dataplane.cache h.dp ~switch:sw

(* --- learning rules (Table 1) --- *)

(* The build keeps OCaml's bounds checks: a node id one past the
   per-node table raises instead of reading the next heap block. *)
let test_bounds_checked () =
  let h = harness () in
  Alcotest.check_raises "role_of past the end"
    (Invalid_argument "index out of bounds") (fun () ->
      ignore (Dataplane.role_of h.dp ~switch:(Topology.num_nodes h.t)))

let test_gateway_tor_destination_learning () =
  let h = harness () in
  let gt = gw_tor h in
  let sender = host_in h ~pod:1 ~rack:0 ~idx:0 in
  let dst_host = host_in h ~pod:1 ~rack:1 ~idx:0 in
  (* A resolved packet (leaving the gateway) teaches the gateway ToR
     the destination mapping. *)
  let p = mk_data ~resolved:true h ~src_host:sender ~dst_vip:(vip 7) ~dst_node:dst_host in
  (match process h ~switch:gt ~from:(gateway h) p with
  | Dataplane.Forward -> ()
  | Dataplane.Consume -> Alcotest.fail "data packets forward");
  checkb "dst learned" true
    (Cache.peek (cache h gt) (vip 7) = Some (Topology.pip h.t dst_host))

let test_gateway_tor_ignores_unresolved () =
  let h = harness () in
  let gt = gw_tor h in
  let sender = host_in h ~pod:1 ~rack:0 ~idx:0 in
  let p = mk_data h ~src_host:sender ~dst_vip:(vip 7) ~dst_node:(gateway h) in
  ignore (process h ~switch:gt ~from:(spine_in_pod h 0) p);
  checkb "nothing learned from unresolved dst" true
    (Cache.peek (cache h gt) (vip 7) = None);
  checkb "no source learning at gateway ToR" true
    (Cache.peek (cache h gt) p.Packet.src_vip = None)

let test_regular_tor_source_learning () =
  let h = harness () in
  let rt = regular_tor h in
  let sender = host_in h ~pod:0 ~rack:0 ~idx:0 in
  let p = mk_data h ~src_host:sender ~dst_vip:(vip 7) ~dst_node:(gateway h) in
  ignore (process h ~switch:rt ~from:sender p);
  checkb "source mapping learned" true
    (Cache.peek (cache h rt) p.Packet.src_vip = Some (Topology.pip h.t sender))

let test_spine_conservative_admission () =
  let h = harness ~slots_per_switch:1 () in
  let sp = spine_in_pod h 1 in
  let sender = host_in h ~pod:1 ~rack:0 ~idx:0 in
  let d1 = host_in h ~pod:1 ~rack:1 ~idx:0 in
  let d2 = host_in h ~pod:1 ~rack:1 ~idx:1 in
  let p1 = mk_data ~resolved:true h ~src_host:sender ~dst_vip:(vip 7) ~dst_node:d1 in
  ignore (process h ~switch:sp ~from:sender p1);
  checkb "first learned" true (Cache.peek (cache h sp) (vip 7) <> None);
  (* Hit it so its access bit is set. *)
  let p1b = mk_data ~id:2 h ~src_host:sender ~dst_vip:(vip 7) ~dst_node:(gateway h) in
  ignore (process h ~switch:sp ~from:sender p1b);
  checkb "was rewritten" true (Packet.resolved p1b);
  (* A different destination maps to the same (single) slot; the spine
     must refuse to evict the active entry. *)
  let p2 = mk_data ~id:3 ~resolved:true h ~src_host:sender ~dst_vip:(vip 8) ~dst_node:d2 in
  ignore (process h ~switch:sp ~from:sender p2);
  checkb "active entry survives" true (Cache.peek (cache h sp) (vip 7) <> None);
  checkb "newcomer rejected" true (Cache.peek (cache h sp) (vip 8) = None)

let test_core_learns_only_from_promotions () =
  let h = harness () in
  let core = (Topology.cores h.t).(0) in
  let sender = host_in h ~pod:0 ~rack:0 ~idx:0 in
  let dst_host = host_in h ~pod:1 ~rack:0 ~idx:0 in
  let p = mk_data ~resolved:true h ~src_host:sender ~dst_vip:(vip 7) ~dst_node:dst_host in
  ignore (process h ~switch:core ~from:(spine_in_pod h 0) p);
  checkb "no destination learning at core" true
    (Cache.peek (cache h core) (vip 7) = None);
  (* Now ride a promotion through. *)
  let p2 = mk_data ~id:2 ~resolved:true h ~src_host:sender ~dst_vip:(vip 9) ~dst_node:dst_host in
  set_promo p2 (vip 9) (Topology.pip h.t dst_host);
  ignore (process h ~switch:core ~from:(spine_in_pod h 0) p2);
  checkb "promotion absorbed" true (Cache.peek (cache h core) (vip 9) <> None);
  checkb "promo field cleared" true (no_promo p2)

(* --- lookup and rewrite --- *)

let test_lookup_rewrites_and_records_switch () =
  let h = harness () in
  let rt = regular_tor h in
  let dst_host = host_in h ~pod:1 ~rack:0 ~idx:0 in
  ignore
    (Cache.insert (cache h rt) ~admission:`All (vip 7) (Topology.pip h.t dst_host));
  let sender = host_in h ~pod:0 ~rack:0 ~idx:0 in
  let p = mk_data h ~src_host:sender ~dst_vip:(vip 7) ~dst_node:(gateway h) in
  ignore (process h ~switch:rt ~from:sender p);
  checkb "resolved" true (Packet.resolved p);
  checki "rewritten to destination" dst_host
    (Pip.to_int p.Packet.dst_pip);
  checki "hit switch recorded" rt p.Packet.hit_switch

let test_resolved_packets_skip_lookup () =
  let h = harness () in
  let rt = regular_tor h in
  let real = host_in h ~pod:1 ~rack:0 ~idx:0 in
  let decoy = host_in h ~pod:1 ~rack:1 ~idx:0 in
  ignore (Cache.insert (cache h rt) ~admission:`All (vip 7) (Topology.pip h.t decoy));
  let sender = host_in h ~pod:0 ~rack:0 ~idx:0 in
  let p = mk_data ~resolved:true h ~src_host:sender ~dst_vip:(vip 7) ~dst_node:real in
  ignore (process h ~switch:rt ~from:sender p);
  checki "destination untouched" real (Pip.to_int p.Packet.dst_pip)

(* --- learning packets --- *)

let test_learning_packet_generation () =
  let h = harness ~config:(Config.make ~p_learn:1.0 ()) () in
  let gt = gw_tor h in
  let sender = host_in h ~pod:1 ~rack:0 ~idx:0 in
  let dst_host = host_in h ~pod:1 ~rack:1 ~idx:0 in
  let p = mk_data ~resolved:true h ~src_host:sender ~dst_vip:(vip 7) ~dst_node:dst_host in
  ignore (process h ~switch:gt ~from:(gateway h) p);
  (match !(h.emitted) with
  | [ (src, lp) ] ->
      checki "emitted at gateway ToR" gt src;
      checkb "is learning packet" true (Packet.kind lp = Packet.Learning);
      checki "addressed to sender's ToR"
        (Topology.tor_of h.t sender)
        (Pip.to_int lp.Packet.dst_pip);
      checki "carries the destination VIP" 7 (Packet.mapping_vip lp);
      checki "carries the destination PIP"
        (Pip.to_int (Topology.pip h.t dst_host))
        (Packet.mapping_pip lp)
  | l -> Alcotest.failf "expected exactly one learning packet, got %d" (List.length l));
  checki "stat counted" 1 (Dataplane.learning_packets_sent h.dp)

let test_learning_packet_probability_zero () =
  let h = harness ~config:(Config.make ~p_learn:0.0 ()) () in
  let gt = gw_tor h in
  let sender = host_in h ~pod:1 ~rack:0 ~idx:0 in
  let dst_host = host_in h ~pod:1 ~rack:1 ~idx:0 in
  let p = mk_data ~resolved:true h ~src_host:sender ~dst_vip:(vip 7) ~dst_node:dst_host in
  ignore (process h ~switch:gt ~from:(gateway h) p);
  checki "no packet" 0 (List.length !(h.emitted))

let test_learning_packet_consumed_by_tor () =
  let h = harness () in
  let rt = regular_tor h in
  let dst_host = host_in h ~pod:1 ~rack:0 ~idx:0 in
  let lp =
    Packet.make_control ~id:5 ~kind:Packet.Learning
      ~mapping:(vip 7, Topology.pip h.t dst_host)
      ~src_pip:(Topology.pip h.t (gw_tor h))
      ~dst_pip:(Topology.pip h.t rt)
      ~now:0
  in
  (match process h ~switch:rt ~from:(spine_in_pod h 0) lp with
  | Dataplane.Consume -> ()
  | Dataplane.Forward -> Alcotest.fail "learning packet must be consumed at target");
  checkb "mapping installed" true (Cache.peek (cache h rt) (vip 7) <> None)

let test_learning_packet_forwarded_en_route () =
  let h = harness () in
  let sp = spine_in_pod h 0 in
  let rt = regular_tor h in
  let lp =
    Packet.make_control ~id:5 ~kind:Packet.Learning
      ~mapping:(vip 7, Topology.pip h.t (host_in h ~pod:1 ~rack:0 ~idx:0))
      ~src_pip:(Topology.pip h.t (gw_tor h))
      ~dst_pip:(Topology.pip h.t rt)
      ~now:0
  in
  (match process h ~switch:sp ~from:(gw_tor h) lp with
  | Dataplane.Forward -> ()
  | Dataplane.Consume -> Alcotest.fail "en-route switch must forward");
  checkb "spine does not learn someone else's learning packet" true
    (Cache.peek (cache h sp) (vip 7) = None)

(* --- spillover --- *)

let test_spill_attached_on_eviction () =
  let h = harness ~slots_per_switch:1 () in
  let gt = gw_tor h in
  let sender = host_in h ~pod:1 ~rack:0 ~idx:0 in
  let d1 = host_in h ~pod:1 ~rack:1 ~idx:0 in
  let d2 = host_in h ~pod:1 ~rack:1 ~idx:1 in
  let p1 = mk_data ~resolved:true h ~src_host:sender ~dst_vip:(vip 7) ~dst_node:d1 in
  ignore (process h ~switch:gt ~from:(gateway h) p1);
  let p2 = mk_data ~id:2 ~resolved:true h ~src_host:sender ~dst_vip:(vip 8) ~dst_node:d2 in
  ignore (process h ~switch:gt ~from:(gateway h) p2);
  checki "evicted entry rides along" 7 (Packet.spill_vip p2);
  checki "with its PIP" (Pip.to_int (Topology.pip h.t d1)) (Packet.spill_pip p2);
  checki "stat" 1 (Dataplane.spills_attached h.dp)

let test_spill_absorbed_downstream () =
  let h = harness () in
  let sp = spine_in_pod h 1 in
  let sender = host_in h ~pod:1 ~rack:0 ~idx:0 in
  let d1 = host_in h ~pod:1 ~rack:1 ~idx:0 in
  let p = mk_data ~resolved:true h ~src_host:sender ~dst_vip:(vip 8) ~dst_node:d1 in
  set_spill p (vip 7) (Topology.pip h.t d1);
  ignore (process h ~switch:sp ~from:(gw_tor h) p);
  checkb "spill installed" true (Cache.peek (cache h sp) (vip 7) <> None);
  checkb "spill cleared" true (no_spill p);
  checki "stat" 1 (Dataplane.spills_absorbed h.dp)

let test_spill_disabled () =
  let h = harness ~config:(Config.make ~spillover:false ()) ~slots_per_switch:1 () in
  let gt = gw_tor h in
  let sender = host_in h ~pod:1 ~rack:0 ~idx:0 in
  let d1 = host_in h ~pod:1 ~rack:1 ~idx:0 in
  let d2 = host_in h ~pod:1 ~rack:1 ~idx:1 in
  ignore (process h ~switch:gt ~from:(gateway h)
            (mk_data ~resolved:true h ~src_host:sender ~dst_vip:(vip 7) ~dst_node:d1));
  let p2 = mk_data ~id:2 ~resolved:true h ~src_host:sender ~dst_vip:(vip 8) ~dst_node:d2 in
  ignore (process h ~switch:gt ~from:(gateway h) p2);
  checkb "no spill when disabled" true (no_spill p2)

(* --- promotion --- *)

let test_promotion_on_popular_interpod_hit () =
  let h = harness () in
  let sp = spine_in_pod h 1 in
  (* Pod 1 is a non-gateway pod, so sp is a Regular_spine. *)
  checkb "precondition: regular spine" true
    (Topology.role h.t sp = Node.Regular_spine);
  let sender = host_in h ~pod:1 ~rack:0 ~idx:0 in
  let dst_host = host_in h ~pod:0 ~rack:0 ~idx:0 in
  ignore (Cache.insert (cache h sp) ~admission:`All (vip 7) (Topology.pip h.t dst_host));
  (* First hit sets the access bit but must not promote. *)
  let p1 = mk_data h ~src_host:sender ~dst_vip:(vip 7) ~dst_node:(gateway h) in
  ignore (process h ~switch:sp ~from:sender p1);
  checkb "first hit, no promo" true (no_promo p1);
  (* Second hit finds the bit set and the destination is inter-pod. *)
  let p2 = mk_data ~id:2 h ~src_host:sender ~dst_vip:(vip 7) ~dst_node:(gateway h) in
  ignore (process h ~switch:sp ~from:sender p2);
  checki "promoted mapping" 7 (Packet.promo_vip p2);
  checki "promoted PIP" (Pip.to_int (Topology.pip h.t dst_host))
    (Packet.promo_pip p2);
  checki "stat" 1 (Dataplane.promotions h.dp)

let test_no_promotion_intra_pod () =
  let h = harness () in
  let sp = spine_in_pod h 1 in
  let sender = host_in h ~pod:1 ~rack:0 ~idx:0 in
  let dst_host = host_in h ~pod:1 ~rack:1 ~idx:0 in
  ignore (Cache.insert (cache h sp) ~admission:`All (vip 7) (Topology.pip h.t dst_host));
  let hit () =
    let p = mk_data h ~src_host:sender ~dst_vip:(vip 7) ~dst_node:(gateway h) in
    ignore (process h ~switch:sp ~from:sender p);
    p
  in
  ignore (hit ());
  let p2 = hit () in
  checkb "no promo for intra-pod destination" true (no_promo p2)

let test_no_promotion_at_gateway_spine () =
  let h = harness () in
  let gsp = spine_in_pod h 0 in
  checkb "precondition: gateway spine" true
    (Topology.role h.t gsp = Node.Gateway_spine);
  let sender = host_in h ~pod:0 ~rack:0 ~idx:0 in
  let dst_host = host_in h ~pod:1 ~rack:0 ~idx:0 in
  ignore (Cache.insert (cache h gsp) ~admission:`All (vip 7) (Topology.pip h.t dst_host));
  let hit () =
    let p = mk_data h ~src_host:sender ~dst_vip:(vip 7) ~dst_node:(gateway h) in
    ignore (process h ~switch:gsp ~from:sender p);
    p
  in
  ignore (hit ());
  let p2 = hit () in
  checkb "gateway spines never promote" true (no_promo p2)

let test_promo_cleared_even_when_rejected () =
  (* A promotion that loses admission at the core is still consumed:
     it must not ride on and pollute other switches. *)
  let h = harness ~slots_per_switch:1 () in
  let core = (Topology.cores h.t).(0) in
  let sender = host_in h ~pod:0 ~rack:0 ~idx:0 in
  let d1 = host_in h ~pod:1 ~rack:0 ~idx:0 in
  (* Occupy the single slot and set its access bit. *)
  let p0 = mk_data ~resolved:true h ~src_host:sender ~dst_vip:(vip 1) ~dst_node:d1 in
  set_promo p0 (vip 1) (Topology.pip h.t d1);
  ignore (process h ~switch:core ~from:(spine_in_pod h 0) p0);
  let _ = Cache.lookup (cache h core) (vip 1) in
  (* A colliding promotion arrives: rejected by A-bit-clear admission. *)
  let collide =
    (* find a vip colliding with vip 1 in a 1-slot cache: any vip. *)
    vip 2
  in
  let p1 = mk_data ~id:2 ~resolved:true h ~src_host:sender ~dst_vip:collide ~dst_node:d1 in
  set_promo p1 collide (Topology.pip h.t d1);
  ignore (process h ~switch:core ~from:(spine_in_pod h 0) p1);
  checkb "original survives" true (Cache.peek (cache h core) (vip 1) <> None);
  checkb "promo consumed regardless" true (no_promo p1)

let test_ack_packets_teach_gateway_tor () =
  (* ACKs are tunneled tenant packets: destination learning applies. *)
  let h = harness () in
  let gt = gw_tor h in
  let sender = host_in h ~pod:1 ~rack:0 ~idx:0 in
  let dst_host = host_in h ~pod:1 ~rack:1 ~idx:0 in
  let ack =
    Packet.make_ack ~id:7 ~flow_id:1 ~seq:0 ~src_vip:(vip 50) ~dst_vip:(vip 7)
      ~src_pip:(Topology.pip h.t sender)
      ~dst_pip:(Topology.pip h.t dst_host)
      ~now:0
  in
  Packet.set_resolved ack true;
  ignore (process h ~switch:gt ~from:(gateway h) ack);
  checkb "learned from ack" true (Cache.peek (cache h gt) (vip 7) <> None)

let test_spill_thrash_is_bounded () =
  (* With a 1-slot cache, an absorbed spill can immediately be evicted
     again by this packet's own learning and ride on — but the packet
     only ever carries one spilled entry, and the absorb counter moves
     exactly once per absorption (no hidden chains). *)
  let h = harness ~slots_per_switch:1 () in
  let rt = regular_tor h in
  let sender = host_in h ~pod:1 ~rack:0 ~idx:0 in
  let d1 = host_in h ~pod:1 ~rack:1 ~idx:0 in
  let p0 = mk_data h ~src_host:sender ~dst_vip:(vip 40) ~dst_node:(gateway h) in
  ignore (process h ~switch:rt ~from:(spine_in_pod h 0) p0);
  let p1 = mk_data ~id:2 ~resolved:true h ~src_host:sender ~dst_vip:(vip 41) ~dst_node:d1 in
  set_spill p1 (vip 42) (Topology.pip h.t d1);
  ignore (process h ~switch:rt ~from:(spine_in_pod h 0) p1);
  checki "exactly one absorption" 1 (Dataplane.spills_absorbed h.dp);
  (* The slot now holds the last inserted mapping (source learning). *)
  checkb "slot holds the source mapping" true
    (Cache.peek (cache h rt) p1.Packet.src_vip <> None);
  (* If anything rides on, it is the single displaced entry. *)
  checki "displaced absorbee rides on" 42 (Packet.spill_vip p1);
  checki "with its PIP" (Pip.to_int (Topology.pip h.t d1)) (Packet.spill_pip p1)

(* --- misdelivery and invalidation --- *)

let misdelivery_setup ?(config = Config.default) () =
  let h = harness ~config () in
  let rt = regular_tor h in
  let old_host = (Topology.endpoints_of_tor h.t rt).(0) in
  let orig_sender = host_in h ~pod:1 ~rack:0 ~idx:0 in
  (* The packet was resolved by some switch (say a spine in pod 1) to
     the old host and misdelivered there; the hypervisor re-tunnels it
     to the gateway keeping the original outer source. *)
  let p = mk_data h ~src_host:orig_sender ~dst_vip:(vip 7) ~dst_node:(gateway h) in
  p.Packet.hit_switch <- spine_in_pod h 1;
  (h, rt, old_host, p)

let test_misdelivery_tagging () =
  let h, rt, old_host, p = misdelivery_setup () in
  ignore (process h ~switch:rt ~from:old_host p);
  checkb "expected tag" true (p.Packet.misdelivery >= 0);
  checki "tag carries old host pip" old_host p.Packet.misdelivery;
  checki "tag stat" 1 (Dataplane.misdelivery_tags h.dp);
  (* The invalidation packet targets the stale-serving switch. *)
  (match !(h.emitted) with
  | [ (_, inv) ] ->
      checkb "invalidation kind" true (Packet.kind inv = Packet.Invalidation);
      checki "targets stale switch" (spine_in_pod h 1) (Pip.to_int inv.Packet.dst_pip)
  | l -> Alcotest.failf "expected one invalidation, got %d" (List.length l));
  checki "inval stat" 1 (Dataplane.invalidation_packets_sent h.dp)

let test_no_tag_for_packets_from_own_host () =
  let h = harness () in
  let rt = regular_tor h in
  let host = (Topology.endpoints_of_tor h.t rt).(0) in
  let p = mk_data h ~src_host:host ~dst_vip:(vip 7) ~dst_node:(gateway h) in
  ignore (process h ~switch:rt ~from:host p);
  checkb "no tag for legitimate traffic" true (p.Packet.misdelivery < 0)

(* The tag decision reads the topology's flat coordinates: only a
   packet entering from a host attached to this very ToR is tagged. A
   gateway hanging off the gateway ToR, a host of another rack and a
   fabric switch never are. *)
let test_tag_decision_by_ingress () =
  let tagged ~switch ~from =
    let h, _, _, p = misdelivery_setup () in
    ignore (process h ~switch ~from p);
    p.Packet.misdelivery >= 0
  in
  let h = harness () in
  let rt = regular_tor h in
  let attached = (Topology.endpoints_of_tor h.t rt).(0) in
  let gt = gw_tor h in
  let other_rack =
    Array.to_list (Topology.hosts h.t)
    |> List.find (fun host -> Topology.tor_of h.t host <> rt)
  in
  checkb "attached host" true (tagged ~switch:rt ~from:attached);
  checkb "gateway at its gateway ToR" false
    (tagged ~switch:gt ~from:(Topology.endpoints_of_tor h.t gt).(0));
  checkb "host of another ToR" false (tagged ~switch:rt ~from:other_rack);
  checkb "spine" false (tagged ~switch:rt ~from:(spine_in_pod h 0));
  checkb "switch at a spine" false
    (tagged ~switch:(spine_in_pod h 0) ~from:rt)

let test_ts_vector_suppresses_repeat_invalidations () =
  let h, rt, old_host, p = misdelivery_setup () in
  ignore (process h ~switch:rt ~from:old_host p);
  (* A second misdelivered packet within the base RTT: tag yes,
     invalidation packet no. *)
  let p2 = mk_data ~id:2 h ~src_host:(host_in h ~pod:1 ~rack:0 ~idx:1)
             ~dst_vip:(vip 7) ~dst_node:(gateway h) in
  p2.Packet.hit_switch <- spine_in_pod h 1;
  h.clock := Dessim.Time_ns.of_us 1;
  ignore (process h ~switch:rt ~from:old_host p2);
  checki "only one invalidation sent" 1 (List.length !(h.emitted));
  checki "suppression counted" 1 (Dataplane.invalidations_suppressed h.dp);
  (* After the base RTT it may be retransmitted. *)
  let p3 = mk_data ~id:3 h ~src_host:(host_in h ~pod:1 ~rack:1 ~idx:0)
             ~dst_vip:(vip 7) ~dst_node:(gateway h) in
  p3.Packet.hit_switch <- spine_in_pod h 1;
  h.clock := Dessim.Time_ns.of_us 100;
  ignore (process h ~switch:rt ~from:old_host p3);
  checki "retransmitted after RTT" 2 (List.length !(h.emitted))

let test_without_ts_vector_every_tag_sends () =
  let cfg = Config.make ~ts_vector:false () in
  let h, rt, old_host, p = misdelivery_setup ~config:cfg () in
  ignore (process h ~switch:rt ~from:old_host p);
  let p2 = mk_data ~id:2 h ~src_host:(host_in h ~pod:1 ~rack:0 ~idx:1)
             ~dst_vip:(vip 7) ~dst_node:(gateway h) in
  p2.Packet.hit_switch <- spine_in_pod h 1;
  ignore (process h ~switch:rt ~from:old_host p2);
  checki "both invalidations sent" 2 (List.length !(h.emitted))

let test_invalidations_disabled () =
  let cfg = Config.make ~invalidations:false () in
  let h, rt, old_host, p = misdelivery_setup ~config:cfg () in
  ignore (process h ~switch:rt ~from:old_host p);
  checkb "tag still applied" true (p.Packet.misdelivery >= 0);
  checki "no invalidation packets" 0 (List.length !(h.emitted))

let test_tagged_packet_invalidates_stale_entry () =
  let h = harness () in
  let sp = spine_in_pod h 1 in
  let old_host = host_in h ~pod:1 ~rack:0 ~idx:0 in
  let sender = host_in h ~pod:1 ~rack:1 ~idx:0 in
  ignore (Cache.insert (cache h sp) ~admission:`All (vip 7) (Topology.pip h.t old_host));
  let p = mk_data h ~src_host:sender ~dst_vip:(vip 7) ~dst_node:(gateway h) in
  p.Packet.misdelivery <- Pip.to_int (Topology.pip h.t old_host);
  ignore (process h ~switch:sp ~from:(Topology.tor_of h.t old_host) p);
  checkb "stale entry removed" true (Cache.peek (cache h sp) (vip 7) = None);
  checkb "packet not rewritten from stale entry" false (Packet.resolved p);
  checki "stat" 1 (Dataplane.entries_invalidated h.dp)

let test_tagged_packet_uses_fresh_entry () =
  let h = harness () in
  let sp = spine_in_pod h 1 in
  let old_host = host_in h ~pod:1 ~rack:0 ~idx:0 in
  let new_host = host_in h ~pod:0 ~rack:0 ~idx:0 in
  let sender = host_in h ~pod:1 ~rack:1 ~idx:0 in
  ignore (Cache.insert (cache h sp) ~admission:`All (vip 7) (Topology.pip h.t new_host));
  let p = mk_data h ~src_host:sender ~dst_vip:(vip 7) ~dst_node:(gateway h) in
  p.Packet.misdelivery <- Pip.to_int (Topology.pip h.t old_host);
  ignore (process h ~switch:sp ~from:(Topology.tor_of h.t old_host) p);
  checkb "fresh mapping used" true (Packet.resolved p);
  checki "rewritten to new host" new_host (Pip.to_int p.Packet.dst_pip)

let test_invalidation_packet_en_route_and_at_target () =
  let h = harness () in
  let sp = spine_in_pod h 1 in
  let core = (Topology.cores h.t).(0) in
  let old_host = host_in h ~pod:1 ~rack:0 ~idx:0 in
  ignore (Cache.insert (cache h sp) ~admission:`All (vip 7) (Topology.pip h.t old_host));
  ignore (Cache.insert (cache h core) ~admission:`All (vip 7) (Topology.pip h.t old_host));
  let inv =
    Packet.make_control ~id:9 ~kind:Packet.Invalidation
      ~mapping:(vip 7, Topology.pip h.t old_host)
      ~src_pip:(Topology.pip h.t (regular_tor h))
      ~dst_pip:(Topology.pip h.t core)
      ~now:0
  in
  (* En route through the spine: invalidates and forwards. *)
  (match process h ~switch:sp ~from:(regular_tor h) inv with
  | Dataplane.Forward -> ()
  | Dataplane.Consume -> Alcotest.fail "must forward toward target");
  checkb "spine entry invalidated" true (Cache.peek (cache h sp) (vip 7) = None);
  (* At the target core: invalidates and consumes. *)
  (match process h ~switch:core ~from:sp inv with
  | Dataplane.Consume -> ()
  | Dataplane.Forward -> Alcotest.fail "must consume at target");
  checkb "core entry invalidated" true (Cache.peek (cache h core) (vip 7) = None)

(* A tagged packet's conservative lookup must consult the cache exactly
   once: the old peek-then-lookup pair double-counted the line's
   hit/miss statistics and toggled the access bit inconsistently. *)
let test_tagged_lookup_counts_one_access () =
  let count_accesses c = Cache.hits c + Cache.misses c in
  (* Stale entry: invalidated, counted as a single access. *)
  let h = harness () in
  let sp = spine_in_pod h 1 in
  let old_host = host_in h ~pod:1 ~rack:0 ~idx:0 in
  let sender = host_in h ~pod:1 ~rack:1 ~idx:0 in
  ignore (Cache.insert (cache h sp) ~admission:`All (vip 7) (Topology.pip h.t old_host));
  let before = count_accesses (cache h sp) in
  let p = mk_data h ~src_host:sender ~dst_vip:(vip 7) ~dst_node:(gateway h) in
  p.Packet.misdelivery <- Pip.to_int (Topology.pip h.t old_host);
  ignore (process h ~switch:sp ~from:(Topology.tor_of h.t old_host) p);
  checki "stale case: one access" (before + 1) (count_accesses (cache h sp));
  (* Fresh entry: rewritten, also a single access, and the hit keeps
     the access bit set (it is a genuine hit, not a peeked one). *)
  let h = harness () in
  let sp = spine_in_pod h 1 in
  let new_host = host_in h ~pod:0 ~rack:0 ~idx:0 in
  ignore (Cache.insert (cache h sp) ~admission:`All (vip 7) (Topology.pip h.t new_host));
  let before_hits = Cache.hits (cache h sp) in
  let before = count_accesses (cache h sp) in
  let p = mk_data h ~src_host:sender ~dst_vip:(vip 7) ~dst_node:(gateway h) in
  p.Packet.misdelivery <- Pip.to_int (Topology.pip h.t old_host);
  ignore (process h ~switch:sp ~from:(Topology.tor_of h.t old_host) p);
  checkb "fresh case: rewritten" true (Packet.resolved p);
  checki "fresh case: one access" (before + 1) (count_accesses (cache h sp));
  checki "fresh case: counted as hit" (before_hits + 1) (Cache.hits (cache h sp));
  checkb "fresh case: access bit set" true
    (Cache.access_bit (cache h sp) (vip 7) = Some true);
  (* No entry: a single miss. *)
  let h = harness () in
  let sp = spine_in_pod h 1 in
  let before_misses = Cache.misses (cache h sp) in
  let p = mk_data h ~src_host:sender ~dst_vip:(vip 7) ~dst_node:(gateway h) in
  p.Packet.misdelivery <- Pip.to_int (Topology.pip h.t old_host);
  ignore (process h ~switch:sp ~from:(Topology.tor_of h.t old_host) p);
  checki "miss case: one miss" (before_misses + 1) (Cache.misses (cache h sp))

(* --- configuration of cache geometry --- *)

let test_slot_distribution () =
  let h = harness ~slots_per_switch:4 () in
  Array.iter
    (fun sw -> checki "equal split" 4 (Dataplane.slots_of h.dp ~switch:sw))
    (Topology.switches h.t)

let test_slot_remainder_distribution () =
  let t = topo () in
  let n = Array.length (Topology.switches t) in
  let dp = Dataplane.create Config.default t ~total_cache_slots:(n + 3) in
  let total =
    Array.fold_left
      (fun acc sw -> acc + Dataplane.slots_of dp ~switch:sw)
      0 (Topology.switches t)
  in
  checki "slots conserved" (n + 3) total

(* QCheck: slot distribution conserves the aggregate budget exactly —
   sum over switches = total, every share non-negative — for any total
   and any (non-negative) weight profile. Skewed float weights can
   leave the floored shares on either side of the total, so both
   correction directions are exercised. *)
let slot_conservation_qcheck =
  let open QCheck in
  let weight = Gen.oneofl [ 0.0; 0.1; 0.3; 1.0; 3.7; 1e3; 1e-3 ] in
  let allocation =
    make
      (Gen.oneof
         [
           Gen.return Config.Uniform;
           Gen.return Config.Tor_only;
           Gen.map2
             (fun (tor, spine, core) (gw_tor, gw_spine) ->
               Config.Weighted { tor; spine; core; gw_tor; gw_spine })
             (Gen.triple weight weight weight)
             (Gen.pair weight weight);
         ])
  in
  QCheck.Test.make ~name:"slot distribution conserves the total" ~count:300
    (pair (int_bound 5000) allocation)
    (fun (total, allocation) ->
      let t = topo () in
      let cfg = Config.make ~allocation () in
      let dp = Dataplane.create cfg t ~total_cache_slots:total in
      let switches = Topology.switches t in
      let sum =
        Array.fold_left
          (fun acc sw -> acc + Dataplane.slots_of dp ~switch:sw)
          0 switches
      in
      let nonneg =
        Array.for_all (fun sw -> Dataplane.slots_of dp ~switch:sw >= 0) switches
      in
      let positive_weight =
        match allocation with
        | Config.Uniform -> true
        | Config.Tor_only ->
            Array.exists
              (fun sw ->
                match Topology.role t sw with
                | Node.Regular_tor | Node.Gateway_tor -> true
                | _ -> false)
              switches
        | Config.Weighted { tor; spine; core; gw_tor; gw_spine } ->
            tor +. spine +. core +. gw_tor +. gw_spine > 0.0
      in
      (* All-zero weights legitimately allocate nothing. *)
      nonneg && if positive_weight then sum = total else sum = 0)

let test_tor_only_mode () =
  let t = topo () in
  let cfg = Config.make ~tor_only:true () in
  let dp = Dataplane.create cfg t ~total_cache_slots:64 in
  Array.iter
    (fun sw ->
      match Topology.role t sw with
      | Node.Regular_tor | Node.Gateway_tor ->
          checkb "tor has slots" true (Dataplane.slots_of dp ~switch:sw > 0)
      | Node.Regular_spine | Node.Gateway_spine | Node.Core_switch ->
          checki "non-tor empty" 0 (Dataplane.slots_of dp ~switch:sw))
    (Topology.switches t)

let () =
  Alcotest.run "dataplane"
    [
      ("bounds", [ Alcotest.test_case "bounds checked" `Quick test_bounds_checked ]);
      ( "learning",
        [
          Alcotest.test_case "gateway ToR destination learning" `Quick
            test_gateway_tor_destination_learning;
          Alcotest.test_case "gateway ToR ignores unresolved" `Quick
            test_gateway_tor_ignores_unresolved;
          Alcotest.test_case "regular ToR source learning" `Quick
            test_regular_tor_source_learning;
          Alcotest.test_case "spine conservative admission" `Quick
            test_spine_conservative_admission;
          Alcotest.test_case "core learns only promotions" `Quick
            test_core_learns_only_from_promotions;
          Alcotest.test_case "acks teach too" `Quick
            test_ack_packets_teach_gateway_tor;
        ] );
      ( "lookup",
        [
          Alcotest.test_case "rewrite and hit switch" `Quick
            test_lookup_rewrites_and_records_switch;
          Alcotest.test_case "resolved packets skip lookup" `Quick
            test_resolved_packets_skip_lookup;
        ] );
      ( "learning packets",
        [
          Alcotest.test_case "generation at gateway ToR" `Quick
            test_learning_packet_generation;
          Alcotest.test_case "p_learn = 0" `Quick
            test_learning_packet_probability_zero;
          Alcotest.test_case "consumed by target ToR" `Quick
            test_learning_packet_consumed_by_tor;
          Alcotest.test_case "forwarded en route" `Quick
            test_learning_packet_forwarded_en_route;
        ] );
      ( "spillover",
        [
          Alcotest.test_case "attached on eviction" `Quick
            test_spill_attached_on_eviction;
          Alcotest.test_case "absorbed downstream" `Quick
            test_spill_absorbed_downstream;
          Alcotest.test_case "disabled by config" `Quick test_spill_disabled;
          Alcotest.test_case "thrash bounded" `Quick test_spill_thrash_is_bounded;
        ] );
      ( "promotion",
        [
          Alcotest.test_case "popular inter-pod hit" `Quick
            test_promotion_on_popular_interpod_hit;
          Alcotest.test_case "no intra-pod promotion" `Quick
            test_no_promotion_intra_pod;
          Alcotest.test_case "no gateway-spine promotion" `Quick
            test_no_promotion_at_gateway_spine;
          Alcotest.test_case "rejected promo still consumed" `Quick
            test_promo_cleared_even_when_rejected;
        ] );
      ( "invalidation",
        [
          Alcotest.test_case "misdelivery tagging" `Quick test_misdelivery_tagging;
          Alcotest.test_case "tag decision by ingress" `Quick
            test_tag_decision_by_ingress;
          Alcotest.test_case "no tag for own traffic" `Quick
            test_no_tag_for_packets_from_own_host;
          Alcotest.test_case "timestamp vector suppression" `Quick
            test_ts_vector_suppresses_repeat_invalidations;
          Alcotest.test_case "without timestamp vector" `Quick
            test_without_ts_vector_every_tag_sends;
          Alcotest.test_case "invalidations disabled" `Quick
            test_invalidations_disabled;
          Alcotest.test_case "tagged packet invalidates stale" `Quick
            test_tagged_packet_invalidates_stale_entry;
          Alcotest.test_case "tagged packet uses fresh entry" `Quick
            test_tagged_packet_uses_fresh_entry;
          Alcotest.test_case "invalidation packet en route" `Quick
            test_invalidation_packet_en_route_and_at_target;
          Alcotest.test_case "tagged lookup counts one access" `Quick
            test_tagged_lookup_counts_one_access;
        ] );
      ( "geometry",
        [
          Alcotest.test_case "equal slot split" `Quick test_slot_distribution;
          Alcotest.test_case "remainder conserved" `Quick
            test_slot_remainder_distribution;
          Alcotest.test_case "ToR-only mode" `Quick test_tor_only_mode;
          QCheck_alcotest.to_alcotest slot_conservation_qcheck;
        ] );
    ]
