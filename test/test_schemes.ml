(* Tests for the baseline schemes at the unit level (plus small
   simulations where the behavior is inherently end-to-end). *)

module Scheme = Netsim.Scheme
module Pipeline = Netsim.Pipeline
module Verdict = Switchv2p.Verdict
module Network = Netsim.Network
module Metrics = Netsim.Metrics
module Topology = Topo.Topology
module Node = Topo.Node
module Packet = Netcore.Packet
module Flow = Netcore.Flow
module Vip = Netcore.Addr.Vip
module Pip = Netcore.Addr.Pip
module Time_ns = Dessim.Time_ns
module Engine = Dessim.Engine

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let topo () =
  Topology.build
    (Topo.Params.scaled ~pods:2 ~racks_per_pod:2 ~hosts_per_rack:2
       ~vms_per_host:4 ())

(* A bare env for unit-driving scheme callbacks. *)
let make_env t =
  let mapping = Netcore.Mapping.create () in
  Array.iteri
    (fun i host ->
      for v = 0 to 3 do
        Netcore.Mapping.install mapping
          (Vip.of_int ((i * 4) + v))
          (Topology.pip t host)
      done)
    (Topology.hosts t);
  let next = ref 0 in
  {
    Scheme.engine = Engine.create ();
    rng = Dessim.Rng.create 5;
    topo = t;
    mapping;
    base_rtt = Time_ns.of_us 12;
    fresh_packet_id =
      (fun () ->
        incr next;
        !next);
    pooled_packet = Packet.blank;
    emit_at_switch = (fun ~src_switch:_ _ -> ());
  }

let mk_pkt t ~src_host ~dst_vip =
  Packet.make_data ~id:1 ~flow_id:1 ~seq:0 ~size:1500 ~src_vip:(Vip.of_int 0)
    ~dst_vip ~src_pip:(Topology.pip t src_host)
    ~dst_pip:(Topology.pip t (Topology.gateways t).(0))
    ~now:0

(* --- learning cache helper --- *)

let test_learning_cache_slot_split () =
  let lc =
    Schemes.Learning_cache.create ~switches:[| 2; 5; 9 |] ~total_slots:10
      ~num_nodes:12
  in
  let slots sw =
    match Schemes.Learning_cache.cache lc ~switch:sw with
    | Some c -> Switchv2p.Cache.slots c
    | None -> -1
  in
  checki "first gets remainder" 4 (slots 2);
  checki "remainder spread" 3 (slots 5);
  checki "base" 3 (slots 9);
  checki "non-caching switch" (-1) (slots 0)

let test_learning_cache_lookup_and_learn () =
  let t = topo () in
  let sw = (Topology.switches t).(0) in
  let lc =
    Schemes.Learning_cache.create ~switches:[| sw |] ~total_slots:16
      ~num_nodes:(Topology.num_nodes t)
  in
  let dst_host = (Topology.hosts t).(3) in
  (* A resolved packet teaches the mapping... *)
  let p1 = mk_pkt t ~src_host:(Topology.hosts t).(0) ~dst_vip:(Vip.of_int 12) in
  Packet.set_resolved p1 true;
  p1.Packet.dst_pip <- Topology.pip t dst_host;
  Schemes.Learning_cache.on_switch lc ~switch:sw p1;
  (* ...which then resolves a later packet. *)
  let p2 = mk_pkt t ~src_host:(Topology.hosts t).(1) ~dst_vip:(Vip.of_int 12) in
  Schemes.Learning_cache.on_switch lc ~switch:sw p2;
  checkb "second packet resolved" true (Packet.resolved p2);
  checki "rewritten" dst_host (Pip.to_int p2.Packet.dst_pip);
  checki "hit switch" sw p2.Packet.hit_switch

let test_learning_cache_tagged_conservative () =
  let t = topo () in
  let sw = (Topology.switches t).(0) in
  let lc =
    Schemes.Learning_cache.create ~switches:[| sw |] ~total_slots:16
      ~num_nodes:(Topology.num_nodes t)
  in
  let stale_host = (Topology.hosts t).(3) in
  let p1 = mk_pkt t ~src_host:(Topology.hosts t).(0) ~dst_vip:(Vip.of_int 12) in
  Packet.set_resolved p1 true;
  p1.Packet.dst_pip <- Topology.pip t stale_host;
  Schemes.Learning_cache.on_switch lc ~switch:sw p1;
  (* A tagged packet removes the stale entry and is never rewritten. *)
  let p2 = mk_pkt t ~src_host:(Topology.hosts t).(1) ~dst_vip:(Vip.of_int 12) in
  p2.Packet.misdelivery <- Pip.to_int (Topology.pip t stale_host);
  Schemes.Learning_cache.on_switch lc ~switch:sw p2;
  checkb "not rewritten" false (Packet.resolved p2);
  let p3 = mk_pkt t ~src_host:(Topology.hosts t).(1) ~dst_vip:(Vip.of_int 12) in
  Schemes.Learning_cache.on_switch lc ~switch:sw p3;
  checkb "stale entry was removed" false (Packet.resolved p3)

(* --- gwcache --- *)

let test_gwcache_caches_only_gateway_tors () =
  let t = topo () in
  let scheme = Schemes.Baselines.gwcache ~topo:t ~total_slots:32 in
  let env = make_env t in
  let gw_tor =
    Array.to_list (Topology.tors t)
    |> List.find (fun sw -> Topology.role t sw = Node.Gateway_tor)
  in
  let other =
    Array.to_list (Topology.switches t)
    |> List.find (fun sw -> Topology.role t sw <> Node.Gateway_tor)
  in
  let dst_host = (Topology.hosts t).(3) in
  Pipeline.prepare scheme.Scheme.pipeline env;
  let teach sw =
    let p = mk_pkt t ~src_host:(Topology.hosts t).(0) ~dst_vip:(Vip.of_int 12) in
    Packet.set_resolved p true;
    p.Packet.dst_pip <- Topology.pip t dst_host;
    ignore (Pipeline.run scheme.Scheme.pipeline env ~switch:sw ~from:0 p)
  in
  teach gw_tor;
  teach other;
  let probe sw =
    let p = mk_pkt t ~src_host:(Topology.hosts t).(1) ~dst_vip:(Vip.of_int 12) in
    ignore (Pipeline.run scheme.Scheme.pipeline env ~switch:sw ~from:0 p);
    Packet.resolved p
  in
  checkb "gateway ToR resolves" true (probe gw_tor);
  checkb "other switches have no cache" false (probe other)

(* --- host resolution --- *)

(* Int-coded host resolutions, decoded into a value tests can match. *)
type resolution = Resolved of Pip.t | Via_gateway | After of Time_ns.t * Pip.t

let resolve_with (s : Scheme.t) env ~host ~flow_id ~dst_vip =
  let module R = Scheme.Resolution in
  let r = s.Scheme.resolve_at_host env ~host ~flow_id ~dst_vip in
  let tag = R.tag r in
  if tag = R.tag_resolved then Resolved (R.pip r)
  else if tag = R.tag_via_gateway then Via_gateway
  else After (R.delay r, R.pip r)

let test_resolution_coding () =
  let module R = Scheme.Resolution in
  let pip = Pip.of_int 12345 in
  checki "resolved tag" R.tag_resolved (R.tag (R.resolved pip));
  checkb "resolved pip" true (Pip.equal pip (R.pip (R.resolved pip)));
  checki "via-gateway tag" R.tag_via_gateway (R.tag R.via_gateway);
  let a = R.after (Time_ns.of_us 40) pip in
  checki "after tag" R.tag_after (R.tag a);
  checki "after delay" (Time_ns.of_us 40) (R.delay a);
  checkb "after pip" true (Pip.equal pip (R.pip a));
  Alcotest.check_raises "delay out of range"
    (Invalid_argument "Scheme.Resolution.after: delay out of range") (fun () ->
      ignore (R.after (-1) pip))

(* --- ondemand --- *)

let test_ondemand_resolution_sequence () =
  let t = topo () in
  let env = make_env t in
  let scheme = Schemes.Baselines.ondemand () in
  let host = (Topology.hosts t).(0) in
  (match
     resolve_with scheme env ~host ~flow_id:1 ~dst_vip:(Vip.of_int 12)
   with
  | After (d, _) -> checki "penalty 40us" (Time_ns.of_us 40) d
  | Resolved _ | Via_gateway ->
      Alcotest.fail "first lookup must pay the penalty");
  (match
     resolve_with scheme env ~host ~flow_id:2 ~dst_vip:(Vip.of_int 12)
   with
  | Resolved _ -> ()
  | After _ | Via_gateway ->
      Alcotest.fail "second lookup must hit");
  (* Caches are per host. *)
  match
    resolve_with scheme env ~host:(Topology.hosts t).(1) ~flow_id:3
      ~dst_vip:(Vip.of_int 12)
  with
  | After _ -> ()
  | Resolved _ | Via_gateway ->
      Alcotest.fail "other hosts miss independently"

let test_ondemand_stale_after_migration () =
  let t = topo () in
  let env = make_env t in
  let scheme = Schemes.Baselines.ondemand () in
  let host = (Topology.hosts t).(0) in
  let first =
    resolve_with scheme env ~host ~flow_id:1 ~dst_vip:(Vip.of_int 12)
  in
  let old_pip =
    match first with
    | After (_, pip) -> pip
    | _ -> Alcotest.fail "expected penalty"
  in
  (* Migrate in the ground truth; OnDemand hosts are not refreshed. *)
  Netcore.Mapping.migrate env.Scheme.mapping (Vip.of_int 12)
    (Topology.pip t (Topology.hosts t).(5));
  scheme.Scheme.on_mapping_update env (Vip.of_int 12) ~old_pip
    ~new_pip:(Topology.pip t (Topology.hosts t).(5));
  match
    resolve_with scheme env ~host ~flow_id:2 ~dst_vip:(Vip.of_int 12)
  with
  | Resolved pip -> checkb "still stale" true (Pip.equal pip old_pip)
  | _ -> Alcotest.fail "expected stale resolution"

(* --- hoverboard --- *)

let test_hoverboard_offload_after_threshold () =
  let t = topo () in
  let env = make_env t in
  let scheme = Schemes.Baselines.hoverboard ~offload_threshold:3 () in
  let host = (Topology.hosts t).(0) in
  let resolve () =
    resolve_with scheme env ~host ~flow_id:1 ~dst_vip:(Vip.of_int 12)
  in
  (* Packets 1..3 ride via the gateway; the third crosses the
     threshold and triggers the offload. *)
  for _ = 1 to 3 do
    match resolve () with
    | Via_gateway -> ()
    | Resolved _ | After _ ->
        Alcotest.fail "below threshold must use the gateway"
  done;
  (match resolve () with
  | Resolved _ -> ()
  | Via_gateway | After _ ->
      Alcotest.fail "offloaded rule must resolve at the host");
  (* Other hosts are unaffected. *)
  match
    resolve_with scheme env ~host:(Topology.hosts t).(1) ~flow_id:2
      ~dst_vip:(Vip.of_int 12)
  with
  | Via_gateway -> ()
  | Resolved _ | After _ ->
      Alcotest.fail "per-host counters"

let test_hoverboard_validates_threshold () =
  Alcotest.check_raises "zero threshold"
    (Invalid_argument "Baselines.hoverboard: threshold must be positive")
    (fun () -> ignore (Schemes.Baselines.hoverboard ~offload_threshold:0 ()))

let test_hoverboard_end_to_end () =
  let t = topo () in
  let scheme = Schemes.Baselines.hoverboard ~offload_threshold:5 () in
  let net = Network.create t ~scheme in
  let flows =
    [
      Flow.make ~id:0 ~src_vip:(Vip.of_int 0) ~dst_vip:(Vip.of_int 8)
        ~size_bytes:(30 * Packet.mtu) ~start:0 Flow.Tcpish;
    ]
  in
  Network.run net flows ~migrations:[] ~until:(Time_ns.of_ms 50);
  let m = Network.metrics net in
  checki "flow completes" 1 (Metrics.flows_completed m);
  (* Early packets went through the gateway, later ones did not. *)
  checkb "partial gateway traffic" true
    (Metrics.gateway_packets m > 0
    && Metrics.gateway_packets m < Metrics.packets_sent m);
  checkb "rule offloaded" true
    (List.assoc "rule_offloads" (scheme.Scheme.stats ()) >= 1.0)

(* --- dht store --- *)

let test_dht_home_resolution () =
  let t = topo () in
  let scheme, c = Schemes.Dht_store.make_with_control t in
  let net = Network.create t ~scheme in
  let flows =
    [
      Flow.make ~id:0 ~src_vip:(Vip.of_int 0) ~dst_vip:(Vip.of_int 8)
        ~size_bytes:(10 * Packet.mtu) ~start:0 Flow.Tcpish;
    ]
  in
  Network.run net flows ~migrations:[] ~until:(Time_ns.of_ms 50);
  let m = Network.metrics net in
  checki "flow completes" 1 (Metrics.flows_completed m);
  checki "no gateway traffic" 0 (Metrics.gateway_packets m);
  checkb "home switch resolved" true
    (List.assoc "dht_home_hits" (scheme.Scheme.stats ()) > 0.0);
  checki "no fallbacks" 0 (Schemes.Dht_store.fallbacks c)

let test_dht_failure_falls_back_to_gateway () =
  let t = topo () in
  let scheme, c = Schemes.Dht_store.make_with_control t in
  let home = Schemes.Dht_store.home_of c (Vip.of_int 8) in
  Schemes.Dht_store.fail_switch c ~switch:home;
  let net = Network.create t ~scheme in
  let flows =
    [
      Flow.make ~id:0 ~src_vip:(Vip.of_int 0) ~dst_vip:(Vip.of_int 8)
        ~size_bytes:(10 * Packet.mtu) ~start:0 Flow.Tcpish;
    ]
  in
  Network.run net flows ~migrations:[] ~until:(Time_ns.of_ms 50);
  let m = Network.metrics net in
  checki "flow still completes" 1 (Metrics.flows_completed m);
  checkb "traffic diverted to gateways" true (Metrics.gateway_packets m > 0);
  checkb "fallbacks counted" true (Schemes.Dht_store.fallbacks c > 0);
  (* Repopulation restores DHT service. *)
  Schemes.Dht_store.repopulate c ~switch:home;
  let net2 = Network.create t ~scheme in
  Network.run net2
    [
      Flow.make ~id:1 ~src_vip:(Vip.of_int 0) ~dst_vip:(Vip.of_int 8)
        ~size_bytes:(10 * Packet.mtu) ~start:0 Flow.Tcpish;
    ]
    ~migrations:[] ~until:(Time_ns.of_ms 50);
  checki "no gateway traffic after repair" 0
    (Metrics.gateway_packets (Network.metrics net2))

(* A [Switch_fail] fault on the home switch loses its partition just
   as [fail_switch] does: the fault layer reaches it through the
   pipeline's reset hook. *)
let test_dht_switchfail_fault_loses_partition () =
  let t = topo () in
  let scheme, c = Schemes.Dht_store.make_with_control t in
  let home = Schemes.Dht_store.home_of c (Vip.of_int 8) in
  let net = Network.create t ~scheme in
  Network.install_faults net
    {
      Dessim.Fault.empty with
      specs = [| { Dessim.Fault.at = 0; action = Dessim.Fault.Switch_fail home } |];
    };
  Network.run net
    [
      Flow.make ~id:0 ~src_vip:(Vip.of_int 0) ~dst_vip:(Vip.of_int 8)
        ~size_bytes:(10 * Packet.mtu) ~start:(Time_ns.of_us 1) Flow.Tcpish;
    ]
    ~migrations:[] ~until:(Time_ns.of_ms 50);
  let m = Network.metrics net in
  checki "flow still completes" 1 (Metrics.flows_completed m);
  checkb "fallbacks counted" true (Schemes.Dht_store.fallbacks c > 0);
  checkb "traffic diverted to gateways" true (Metrics.gateway_packets m > 0)

let test_dht_home_is_stable_hash () =
  let t = topo () in
  let _, c1 = Schemes.Dht_store.make_with_control t in
  let _, c2 = Schemes.Dht_store.make_with_control t in
  for v = 0 to 23 do
    checki "home deterministic"
      (Schemes.Dht_store.home_of c1 (Vip.of_int v))
      (Schemes.Dht_store.home_of c2 (Vip.of_int v))
  done

(* --- bluebird --- *)

let test_bluebird_detour_and_insert_delay () =
  let t = topo () in
  let env = make_env t in
  let scheme =
    Schemes.Baselines.bluebird ~topo:t ~total_slots:(16 * Array.length (Topology.tors t)) ()
  in
  let tor = (Topology.tors t).(0) in
  Pipeline.prepare scheme.Scheme.pipeline env;
  let p = mk_pkt t ~src_host:(Topology.hosts t).(0) ~dst_vip:(Vip.of_int 12) in
  let v = Pipeline.run scheme.Scheme.pipeline env ~switch:tor ~from:0 p in
  checkb "expected a CP detour" true (Verdict.tag v = Verdict.tag_delay);
  checkb "detour includes CP latency" true
    (Verdict.delay_ns v >= Time_ns.of_ns 8_500);
  checkb "resolved by SFE" true (Packet.resolved p);
  (* The route cache is installed only after the 2 ms insertion delay. *)
  let p2 = mk_pkt t ~src_host:(Topology.hosts t).(1) ~dst_vip:(Vip.of_int 12) in
  let v2 = Pipeline.run scheme.Scheme.pipeline env ~switch:tor ~from:0 p2 in
  checkb "still a miss before the insert completes" true
    (Verdict.tag v2 = Verdict.tag_delay);
  Engine.run_until env.Scheme.engine ~limit:(Time_ns.of_ms 3);
  let p3 = mk_pkt t ~src_host:(Topology.hosts t).(1) ~dst_vip:(Vip.of_int 12) in
  let v3 = Pipeline.run scheme.Scheme.pipeline env ~switch:tor ~from:0 p3 in
  checkb "expected a data-plane hit" true (Verdict.tag v3 = Verdict.tag_forward);
  checkb "hit after insert" true (Packet.resolved p3)

let test_bluebird_cp_overload_drops () =
  let t = topo () in
  let env = make_env t in
  let scheme =
    Schemes.Baselines.bluebird ~cp_queue_bytes:4_000 ~topo:t ~total_slots:0 ()
  in
  let tor = (Topology.tors t).(0) in
  Pipeline.prepare scheme.Scheme.pipeline env;
  let send i =
    let p = mk_pkt t ~src_host:(Topology.hosts t).(0) ~dst_vip:(Vip.of_int 12) in
    ignore i;
    Pipeline.run scheme.Scheme.pipeline env ~switch:tor ~from:0 p
  in
  let dropped = ref 0 in
  for i = 0 to 9 do
    if Verdict.tag (send i) = Verdict.tag_drop then incr dropped
  done;
  checkb "overload drops" true (!dropped > 0)

(* --- controller (end-to-end: needs the running engine) --- *)

let test_controller_installs_and_serves () =
  let t = topo () in
  let scheme =
    Schemes.Controller.make ~topo:t ~total_slots:64
      ~interval:(Time_ns.of_us 200) ()
  in
  let net = Network.create t ~scheme in
  let flows =
    List.init 6 (fun i ->
        Flow.make ~id:i ~src_vip:(Vip.of_int 0) ~dst_vip:(Vip.of_int 8)
          ~size_bytes:(10 * Packet.mtu)
          ~start:(i * Time_ns.of_ms 1)
          Flow.Tcpish)
  in
  Network.run net flows ~migrations:[] ~until:(Time_ns.of_ms 50);
  let m = Network.metrics net in
  checki "all complete" 6 (Metrics.flows_completed m);
  checkb "later flows hit installed entries" true (Metrics.hit_rate m > 0.0);
  let stats = scheme.Scheme.stats () in
  checkb "controller solved at least once" true
    (List.assoc "controller_solves" stats > 0.0)

(* --- pipeline mechanics --- *)

let test_pipeline_stage_order () =
  let t = topo () in
  let env = make_env t in
  let trace = ref [] in
  let record name v =
    Pipeline.stage ~kind:Pipeline.Lookup name (fun _env ~switch:_ ~from:_ _pkt ->
        trace := name :: !trace;
        v)
  in
  let pl =
    Pipeline.make
      [ record "a" Verdict.next; record "b" Verdict.next; record "c" Verdict.next ]
  in
  Pipeline.prepare pl env;
  let p = mk_pkt t ~src_host:(Topology.hosts t).(0) ~dst_vip:(Vip.of_int 12) in
  let v = Pipeline.run pl env ~switch:0 ~from:0 p in
  checkb "all-next falls through to forward" true
    (Verdict.tag v = Verdict.tag_forward);
  Alcotest.check
    (Alcotest.list Alcotest.string)
    "stages run in declaration order" [ "a"; "b"; "c" ] (List.rev !trace);
  (* A final verdict short-circuits the remaining stages. *)
  trace := [];
  let pl2 =
    Pipeline.make [ record "a" Verdict.next; record "b" Verdict.consume; record "c" Verdict.next ]
  in
  Pipeline.prepare pl2 env;
  let v2 = Pipeline.run pl2 env ~switch:0 ~from:0 p in
  checkb "verdict surfaces" true (Verdict.tag v2 = Verdict.tag_consume);
  Alcotest.check
    (Alcotest.list Alcotest.string)
    "later stages skipped" [ "a"; "b" ] (List.rev !trace);
  (* The empty pipeline forwards. *)
  checkb "passthrough forwards" true
    (Verdict.tag (Pipeline.run Pipeline.passthrough env ~switch:0 ~from:0 p)
    = Verdict.tag_forward)

(* The SwitchV2P miss path through the staged pipeline: a gateway-ToR
   learn that evicts and attaches a spill, the next hop absorbing it, a
   regular-spine hit that promotes, and a core absorbing the
   promotion. Insert results and riders are unboxed ints and the
   dataplane env is bound at [Pipeline.prepare], so 10k dispatches
   allocate nothing. Learning packets are off: emitting one allocates
   a fresh control packet by design. *)
let test_switchv2p_miss_path_allocation_free () =
  let t = topo () in
  let env = make_env t in
  let config = Switchv2p.Config.make ~learning_packets:false () in
  let scheme, dp =
    Schemes.Switchv2p_scheme.make_with_dataplane ~config t
      ~total_cache_slots:(Array.length (Topology.switches t))
  in
  let pl = scheme.Scheme.pipeline in
  Pipeline.prepare pl env;
  let role_of sw = Topology.role t sw in
  let find arr role = Array.to_list arr |> List.find (fun sw -> role_of sw = role) in
  let gw_tor = find (Topology.tors t) Node.Gateway_tor in
  let gw = (Topology.gateways t).(0) in
  let next_hop = Topology.spine_id t ~pod:(Topology.pod t gw_tor) ~group:0 in
  let spine = find (Topology.switches t) Node.Regular_spine in
  let core = (Topology.cores t).(0) in
  let pod = Topology.pod t in
  let hosts = Topology.hosts t in
  let remote =
    Array.to_list hosts |> List.find (fun h -> pod h <> pod spine)
  in
  let local = Array.to_list hosts |> List.find (fun h -> pod h = pod spine) in
  (* One slot per switch: two learned VIPs always collide. *)
  let learn_pkt =
    mk_pkt t ~src_host:local ~dst_vip:(Vip.of_int 12)
  in
  let hit_pkt = mk_pkt t ~src_host:local ~dst_vip:(Vip.of_int 20) in
  let gw_pip = Topology.pip t gw in
  let remote_pip = Topology.pip t remote in
  ignore
    (Switchv2p.Geo_cache.insert
       (Switchv2p.Dataplane.geo_cache dp ~switch:spine)
       ~admission:`All (Vip.of_int 20) remote_pip
      : int);
  let i = ref 0 in
  let dispatch () =
    (* Gateway-ToR learn: alternate VIPs so every insert evicts. *)
    learn_pkt.Packet.dst_vip <- Vip.of_int (12 + (!i land 1));
    Packet.set_resolved learn_pkt true;
    learn_pkt.Packet.dst_pip <- remote_pip;
    learn_pkt.Packet.spill_vip <- -1;
    learn_pkt.Packet.spill_pip <- -1;
    ignore (Pipeline.run pl env ~switch:gw_tor ~from:gw learn_pkt : int);
    (* The next hop absorbs the spill. *)
    ignore (Pipeline.run pl env ~switch:next_hop ~from:gw_tor learn_pkt : int);
    (* Regular-spine hit with the access bit set: promotion. *)
    Packet.set_resolved hit_pkt false;
    hit_pkt.Packet.dst_pip <- gw_pip;
    hit_pkt.Packet.hit_switch <- -1;
    ignore (Pipeline.run pl env ~switch:spine ~from:local hit_pkt : int);
    (* The core absorbs the promotion. *)
    ignore (Pipeline.run pl env ~switch:core ~from:spine hit_pkt : int);
    incr i
  in
  for _ = 1 to 100 do
    dispatch ()
  done;
  let module D = Switchv2p.Dataplane in
  let spilled = D.spills_attached dp and absorbed = D.spills_absorbed dp in
  let promoted = D.promotions dp in
  let iters = 2_500 (* four dispatches each *) in
  let w0 = Gc.minor_words () in
  for _ = 1 to iters do
    dispatch ()
  done;
  let words = Gc.minor_words () -. w0 in
  checkb "every gateway-ToR learn spills" true
    (D.spills_attached dp - spilled >= iters);
  checkb "the next hop absorbs spills" true (D.spills_absorbed dp - absorbed >= iters);
  checki "every spine hit promotes" iters (D.promotions dp - promoted);
  checkb "the core consumed the promotion" true (hit_pkt.Packet.promo_vip = -1);
  Alcotest.check (Alcotest.float 0.0) "minor words over 10k dispatches" 0.0 words

(* The gateway-ToR learning-packet coin. The miss-path loop above turns
   learning packets off, so it never draws it; here they are on with
   [p_learn = 0]: every resolved packet leaving the gateway draws the
   coin ([Rng.bernoulli]) and none is emitted, so the loop measures the
   draw alone. *)
let test_switchv2p_learning_coin_allocation_free () =
  let t = topo () in
  let env = make_env t in
  let config = Switchv2p.Config.make ~learning_packets:true ~p_learn:0.0 () in
  let scheme, dp =
    Schemes.Switchv2p_scheme.make_with_dataplane ~config t
      ~total_cache_slots:(Array.length (Topology.switches t))
  in
  let pl = scheme.Scheme.pipeline in
  Pipeline.prepare pl env;
  let gw_tor =
    Array.to_list (Topology.tors t)
    |> List.find (fun sw -> Topology.role t sw = Node.Gateway_tor)
  in
  let gw = (Topology.gateways t).(0) in
  let hosts = Topology.hosts t in
  let remote =
    Array.to_list hosts
    |> List.find (fun h -> Topology.pod t h <> Topology.pod t gw_tor)
  in
  let pkt = mk_pkt t ~src_host:remote ~dst_vip:(Vip.of_int 12) in
  let dst_pip = Topology.pip t hosts.(3) in
  let dispatch () =
    Packet.set_resolved pkt true;
    Packet.set_gw_visited pkt true;
    pkt.Packet.dst_pip <- dst_pip;
    pkt.Packet.spill_vip <- -1;
    pkt.Packet.spill_pip <- -1;
    ignore (Pipeline.run pl env ~switch:gw_tor ~from:gw pkt : int)
  in
  for _ = 1 to 100 do
    dispatch ()
  done;
  let before = Dessim.Rng.copy env.Scheme.rng in
  let iters = 10_000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to iters do
    dispatch ()
  done;
  let words = Gc.minor_words () -. w0 in
  (* Exactly one coin per dispatch: the snapshot, advanced [iters]
     draws, is back in step with the live stream. *)
  for _ = 1 to iters do
    ignore (Dessim.Rng.int64 before : int64)
  done;
  checkb "one coin drawn per dispatch" true
    (Int64.equal (Dessim.Rng.int64 before) (Dessim.Rng.int64 env.Scheme.rng));
  checki "no learning packet emitted" 0
    (Switchv2p.Dataplane.learning_packets_sent dp);
  Alcotest.check (Alcotest.float 0.0) "minor words over 10k coin draws" 0.0 words

let test_switchv2p_requires_prepare () =
  let t = topo () in
  let scheme = Schemes.Switchv2p_scheme.make t ~total_cache_slots:64 in
  let p = mk_pkt t ~src_host:(Topology.hosts t).(0) ~dst_vip:(Vip.of_int 12) in
  Alcotest.check_raises "run before prepare"
    (Invalid_argument "Switchv2p_scheme: pipeline run before Pipeline.prepare")
    (fun () ->
      ignore
        (Pipeline.run scheme.Scheme.pipeline (make_env t)
           ~switch:(Topology.tors t).(0) ~from:0 p
          : int))

let test_pipeline_stage_listing () =
  let scheme = Schemes.Switchv2p_scheme.make (topo ()) ~total_cache_slots:64 in
  Alcotest.check
    (Alcotest.list Alcotest.string)
    "switchv2p stage names"
    [ "classify"; "lookup"; "learn"; "emit" ]
    (List.map fst (Pipeline.stages scheme.Scheme.pipeline));
  Alcotest.check
    (Alcotest.list Alcotest.string)
    "stage kinds"
    [ "classify"; "lookup"; "learn"; "emit" ]
    (List.map
       (fun (_, k) -> P4model.Resources.stage_kind_name (Pipeline.p4_kind k))
       (Pipeline.stages scheme.Scheme.pipeline))

let test_pipeline_stage_resources_sum () =
  let scheme = Schemes.Switchv2p_scheme.make (topo ()) ~total_cache_slots:64 in
  let entries = 1000 in
  let per_stage =
    Pipeline.resources scheme.Scheme.pipeline ~entries_per_switch:entries
  in
  let whole = P4model.Resources.estimate ~entries_per_switch:entries in
  let sum f = List.fold_left (fun acc (_, u) -> acc +. f u) 0.0 per_stage in
  let close what got want =
    Alcotest.check (Alcotest.float 1e-9) what want got
  in
  checki "four stages" 4 (List.length per_stage);
  close "crossbar shares re-sum"
    (sum (fun u -> u.P4model.Resources.match_crossbar))
    whole.P4model.Resources.match_crossbar;
  close "meter alu shares re-sum"
    (sum (fun u -> u.P4model.Resources.meter_alu))
    whole.P4model.Resources.meter_alu;
  close "gateway shares re-sum"
    (sum (fun u -> u.P4model.Resources.gateway))
    whole.P4model.Resources.gateway;
  close "tcam shares re-sum"
    (sum (fun u -> u.P4model.Resources.tcam))
    whole.P4model.Resources.tcam;
  close "vliw shares re-sum"
    (sum (fun u -> u.P4model.Resources.vliw))
    whole.P4model.Resources.vliw;
  close "sram shares re-sum"
    (sum (fun u -> u.P4model.Resources.sram))
    whole.P4model.Resources.sram;
  close "hash-bit shares re-sum"
    (sum (fun u -> u.P4model.Resources.hash_bits))
    whole.P4model.Resources.hash_bits

(* --- scheme metadata --- *)

let test_scheme_names () =
  let t = topo () in
  let names =
    [
      (Schemes.Baselines.nocache ()).Scheme.name;
      (Schemes.Baselines.direct ()).Scheme.name;
      (Schemes.Baselines.ondemand ()).Scheme.name;
      (Schemes.Baselines.locallearning ~topo:t ~total_slots:1).Scheme.name;
      (Schemes.Baselines.gwcache ~topo:t ~total_slots:1).Scheme.name;
      (Schemes.Baselines.bluebird ~topo:t ~total_slots:1 ()).Scheme.name;
      (Schemes.Switchv2p_scheme.make t ~total_cache_slots:1).Scheme.name;
      (Schemes.Controller.make ~topo:t ~total_slots:1
         ~interval:(Time_ns.of_ms 1) ())
        .Scheme.name;
    ]
  in
  Alcotest.check
    (Alcotest.list Alcotest.string)
    "names"
    [
      "NoCache";
      "Direct";
      "OnDemand";
      "LocalLearning";
      "GwCache";
      "Bluebird";
      "SwitchV2P";
      "Controller";
    ]
    names

let () =
  Alcotest.run "schemes"
    [
      ( "learning_cache",
        [
          Alcotest.test_case "slot split" `Quick test_learning_cache_slot_split;
          Alcotest.test_case "lookup and learn" `Quick test_learning_cache_lookup_and_learn;
          Alcotest.test_case "tagged conservative" `Quick test_learning_cache_tagged_conservative;
        ] );
      ( "gwcache",
        [
          Alcotest.test_case "gateway ToRs only" `Quick
            test_gwcache_caches_only_gateway_tors;
        ] );
      ( "ondemand",
        [
          Alcotest.test_case "resolution sequence" `Quick test_ondemand_resolution_sequence;
          Alcotest.test_case "stale after migration" `Quick test_ondemand_stale_after_migration;
          Alcotest.test_case "resolution coding" `Quick test_resolution_coding;
        ] );
      ( "hoverboard",
        [
          Alcotest.test_case "offload after threshold" `Quick
            test_hoverboard_offload_after_threshold;
          Alcotest.test_case "threshold validated" `Quick
            test_hoverboard_validates_threshold;
          Alcotest.test_case "end to end" `Quick test_hoverboard_end_to_end;
        ] );
      ( "dht_store",
        [
          Alcotest.test_case "home resolution" `Quick test_dht_home_resolution;
          Alcotest.test_case "failure falls back" `Quick
            test_dht_failure_falls_back_to_gateway;
          Alcotest.test_case "switchfail fault loses the partition" `Quick
            test_dht_switchfail_fault_loses_partition;
          Alcotest.test_case "stable homes" `Quick test_dht_home_is_stable_hash;
        ] );
      ( "bluebird",
        [
          Alcotest.test_case "CP detour and insert delay" `Quick
            test_bluebird_detour_and_insert_delay;
          Alcotest.test_case "CP overload drops" `Quick test_bluebird_cp_overload_drops;
        ] );
      ( "controller",
        [
          Alcotest.test_case "installs and serves" `Quick
            test_controller_installs_and_serves;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "stage order" `Quick test_pipeline_stage_order;
          Alcotest.test_case "stage listing" `Quick test_pipeline_stage_listing;
          Alcotest.test_case "switchv2p miss path allocation-free" `Quick
            test_switchv2p_miss_path_allocation_free;
          Alcotest.test_case "switchv2p requires prepare" `Quick
            test_switchv2p_requires_prepare;
          Alcotest.test_case "stage resources re-sum" `Quick
            test_pipeline_stage_resources_sum;
          Alcotest.test_case "learning coin allocation-free" `Quick
            test_switchv2p_learning_coin_allocation_free;
        ] );
      ("metadata", [ Alcotest.test_case "names" `Quick test_scheme_names ]);
    ]
