(* Integration tests: full network simulations on a small FatTree,
   exercising every scheme end-to-end, plus migration correctness and
   metric invariants. *)

module Network = Netsim.Network
module Metrics = Netsim.Metrics
module Time_ns = Dessim.Time_ns
module Flow = Netcore.Flow
module Vip = Netcore.Addr.Vip
module Topology = Topo.Topology

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let topo () =
  Topology.build
    (Topo.Params.scaled ~pods:2 ~racks_per_pod:2 ~hosts_per_rack:2
       ~vms_per_host:4 ())

(* A TCP flow between VMs on different hosts (placement: vip/4). *)
let cross_host_flow ?(id = 0) ?(start = 0) ?(packets = 10) ~src ~dst () =
  Flow.make ~id ~src_vip:(Vip.of_int src) ~dst_vip:(Vip.of_int dst)
    ~size_bytes:(packets * Netcore.Packet.mtu)
    ~start Flow.Tcpish

let run_flows ?config ?(migrations = []) ~scheme flows =
  let t = topo () in
  let net = Network.create ?config t ~scheme in
  Network.run net flows ~migrations ~until:(Time_ns.of_ms 100);
  net

(* The build keeps OCaml's bounds checks: an index one past a table's
   end raises instead of reading the next heap block. *)
let test_bounds_checked () =
  let net = Network.create (topo ()) ~scheme:(Schemes.Baselines.direct ()) in
  Alcotest.check_raises "host_of_vm_index past the end"
    (Invalid_argument "index out of bounds") (fun () ->
      ignore (Network.host_of_vm_index net (Network.num_vms net)))

let test_nocache_end_to_end () =
  let net = run_flows ~scheme:(Schemes.Baselines.nocache ())
      [ cross_host_flow ~src:0 ~dst:8 () ]
  in
  let m = Network.metrics net in
  checki "flow completed" 1 (Metrics.flows_completed m);
  checkb "all packets via gateway" true (Metrics.hit_rate m = 0.0);
  checkb "gateway packets observed" true (Metrics.gateway_packets m > 0);
  checki "no drops" 0 (Metrics.packets_dropped m);
  checkb "fct positive" true (Metrics.mean_fct m > 0.0)

let test_direct_bypasses_gateway () =
  let net = run_flows ~scheme:(Schemes.Baselines.direct ())
      [ cross_host_flow ~src:0 ~dst:8 () ]
  in
  let m = Network.metrics net in
  checki "flow completed" 1 (Metrics.flows_completed m);
  checki "no gateway packets" 0 (Metrics.gateway_packets m);
  checkb "hit rate 1" true (Metrics.hit_rate m = 1.0)

let test_direct_faster_than_nocache () =
  let flows = [ cross_host_flow ~src:0 ~dst:8 () ] in
  let nc = run_flows ~scheme:(Schemes.Baselines.nocache ()) flows in
  let d = run_flows ~scheme:(Schemes.Baselines.direct ()) flows in
  checkb "direct FCT < nocache FCT" true
    (Metrics.mean_fct (Network.metrics d) < Metrics.mean_fct (Network.metrics nc));
  checkb "direct stretch < nocache stretch" true
    (Metrics.mean_stretch (Network.metrics d)
    < Metrics.mean_stretch (Network.metrics nc))

let test_ondemand_penalty_only_first () =
  (* Two sequential flows to the same destination: only the first pays
     the resolution penalty. *)
  let flows =
    [
      cross_host_flow ~id:0 ~src:0 ~dst:8 ();
      cross_host_flow ~id:1 ~start:(Time_ns.of_ms 10) ~src:0 ~dst:8 ();
    ]
  in
  let scheme = Schemes.Baselines.ondemand () in
  let net = run_flows ~scheme flows in
  let m = Network.metrics net in
  checki "both complete" 2 (Metrics.flows_completed m);
  checki "never via gateway" 0 (Metrics.gateway_packets m);
  (* Exactly one host-cache miss: the first packet of the first flow.
     The reverse (ACK) direction misses once at the receiver too. *)
  match List.assoc_opt "host_cache_misses" (scheme.Netsim.Scheme.stats ()) with
  | Some misses -> checkb "at most two misses" true (misses <= 2.0)
  | None -> Alcotest.fail "ondemand must report misses"

let test_switchv2p_learns_across_flows () =
  let t = topo () in
  let slots = 16 * Array.length (Topology.switches t) in
  let scheme, dp =
    Schemes.Switchv2p_scheme.make_with_dataplane t ~total_cache_slots:slots
  in
  let net = Network.create t ~scheme in
  let flows =
    [
      cross_host_flow ~id:0 ~src:0 ~dst:8 ();
      cross_host_flow ~id:1 ~start:(Time_ns.of_ms 10) ~src:4 ~dst:8 ();
    ]
  in
  Network.run net flows ~migrations:[] ~until:(Time_ns.of_ms 100);
  let m = Network.metrics net in
  checki "both complete" 2 (Metrics.flows_completed m);
  checkb "some in-network hits" true (Metrics.hit_rate m > 0.0);
  (* The destination mapping must be cached somewhere in the fabric. *)
  let cached_somewhere =
    Array.exists
      (fun sw ->
        Switchv2p.Cache.peek (Switchv2p.Dataplane.cache dp ~switch:sw)
          (Vip.of_int 8)
        <> None)
      (Topology.switches t)
  in
  checkb "mapping cached in fabric" true cached_somewhere

let test_switchv2p_beats_nocache_on_reuse () =
  (* Many flows to a handful of destinations: cross-flow reuse. *)
  let flows =
    List.init 20 (fun i ->
        cross_host_flow ~id:i
          ~start:(i * Time_ns.of_us 300)
          ~src:(4 * (i mod 4))
          ~dst:(8 + (i mod 2))
          ())
  in
  let t = topo () in
  let slots = 16 * Array.length (Topology.switches t) in
  let v2p =
    run_flows ~scheme:(Schemes.Switchv2p_scheme.make t ~total_cache_slots:slots)
      flows
  in
  let nc = run_flows ~scheme:(Schemes.Baselines.nocache ()) flows in
  let m_v2p = Network.metrics v2p and m_nc = Network.metrics nc in
  checki "all complete (v2p)" 20 (Metrics.flows_completed m_v2p);
  checki "all complete (nocache)" 20 (Metrics.flows_completed m_nc);
  checkb "hit rate high" true (Metrics.hit_rate m_v2p > 0.5);
  checkb "fct improves" true (Metrics.mean_fct m_v2p < Metrics.mean_fct m_nc);
  checkb "fewer gateway packets" true
    (Metrics.gateway_packets m_v2p < Metrics.gateway_packets m_nc)

let test_loopback_delivery () =
  (* VMs 0 and 1 share host 0: the hypervisor switches locally. *)
  let net = run_flows ~scheme:(Schemes.Baselines.nocache ())
      [ cross_host_flow ~src:0 ~dst:1 () ]
  in
  let m = Network.metrics net in
  checki "flow completed" 1 (Metrics.flows_completed m);
  checki "no gateway traffic" 0 (Metrics.gateway_packets m);
  checki "loopback excluded from sent" 0 (Metrics.packets_sent m);
  checkb "tiny fct" true (Metrics.mean_fct m < 1e-4)

let test_migration_follow_me_delivers () =
  (* NoCache + follow-me: packets in flight at migration time reach
     the new host via the old one. *)
  let flows = [ cross_host_flow ~packets:200 ~src:0 ~dst:8 () ] in
  let migrations =
    [ { Network.at = Time_ns.of_us 100; vip = Vip.of_int 8; to_host = -1 } ]
  in
  (* Resolve the actual node id for "some other host": host of vip 16. *)
  let t = topo () in
  let net = Network.create t ~scheme:(Schemes.Baselines.nocache ()) in
  let new_host = Network.vm_host net (Vip.of_int 16) in
  let migrations =
    List.map (fun m -> { m with Network.to_host = new_host }) migrations
  in
  Network.run net flows ~migrations ~until:(Time_ns.of_ms 100);
  let m = Network.metrics net in
  checki "flow still completes" 1 (Metrics.flows_completed m);
  checki "vip moved" new_host (Network.vm_host net (Vip.of_int 8));
  checkb "mapping store updated" true
    (Netcore.Mapping.lookup (Network.mapping net) (Vip.of_int 8)
    = Topology.pip t new_host)

let test_migration_switchv2p_invalidates () =
  let t = topo () in
  let slots = 16 * Array.length (Topology.switches t) in
  let scheme, dp =
    Schemes.Switchv2p_scheme.make_with_dataplane t ~total_cache_slots:slots
  in
  let net = Network.create t ~scheme in
  let new_host = Network.vm_host net (Vip.of_int 16) in
  let flows =
    [
      (* Warm the caches... *)
      cross_host_flow ~id:0 ~packets:50 ~src:0 ~dst:8 ();
      (* ...migrate mid-trace, then traffic re-learns. *)
      cross_host_flow ~id:1 ~start:(Time_ns.of_ms 5) ~packets:50 ~src:4 ~dst:8 ();
    ]
  in
  Network.run net flows
    ~migrations:
      [ { Network.at = Time_ns.of_ms 4; vip = Vip.of_int 8; to_host = new_host } ]
    ~until:(Time_ns.of_ms 200);
  let m = Network.metrics net in
  checki "both flows complete despite migration" 2 (Metrics.flows_completed m);
  (* The caches that served flow 2's packets must hold the new
     location (stale entries off the active paths may linger; the
     protocol only guarantees eventual correct delivery). *)
  let fresh = ref 0 and stale = ref 0 in
  Array.iter
    (fun sw ->
      match
        Switchv2p.Cache.peek (Switchv2p.Dataplane.cache dp ~switch:sw) (Vip.of_int 8)
      with
      | Some pip ->
          if Netcore.Addr.Pip.to_int pip = new_host then incr fresh
          else incr stale
      | None -> ())
    (Topology.switches t);
  checkb "new location learned somewhere" true (!fresh > 0);
  checkb "invalidation machinery ran" true
    (Switchv2p.Dataplane.misdelivery_tags dp > 0
    || Metrics.misdelivered_packets m > 0
    || !stale = 0)

let test_cache_failure_is_safe () =
  (* Wiping caches mid-run never breaks forwarding (the paper's
     resilience claim): flows still complete, packets just miss. *)
  let t = topo () in
  let slots = 16 * Array.length (Topology.switches t) in
  let scheme, dp =
    Schemes.Switchv2p_scheme.make_with_dataplane t ~total_cache_slots:slots
  in
  let net = Network.create t ~scheme in
  let flows =
    List.init 10 (fun i ->
        cross_host_flow ~id:i ~packets:30
          ~start:(i * Time_ns.of_us 200)
          ~src:(i mod 8) ~dst:(8 + (i mod 4)) ())
  in
  Dessim.Engine.schedule (Network.engine net) ~at:(Time_ns.of_ms 1) (fun () ->
      Array.iter
        (fun sw -> Switchv2p.Dataplane.fail_switch dp ~switch:sw)
        (Topology.switches t));
  Network.run net flows ~migrations:[] ~until:(Time_ns.of_ms 100);
  let m = Network.metrics net in
  checki "all flows complete despite the wipe" 10 (Metrics.flows_completed m)

let test_dctcp_reduces_queueing_under_incast () =
  (* Many senders into one receiver: the DCTCP control law backs off
     at the marked queue and completes with less queueing delay than
     the blind windowed sender. *)
  let mk mode =
    let t = topo () in
    let flows =
      List.init 6 (fun i ->
          cross_host_flow ~id:i ~packets:300 ~src:(4 * i mod 24) ~dst:8 ())
    in
    let config =
      { Network.default_config with transport_mode = mode; window = 128 }
    in
    let net = Network.create ~config t ~scheme:(Schemes.Baselines.direct ()) in
    Network.run net flows ~migrations:[] ~until:(Time_ns.of_ms 200);
    Network.metrics net
  in
  let windowed = mk Netsim.Transport.Windowed in
  let dctcp = mk Netsim.Transport.Dctcp in
  checki "windowed completes" 6 (Metrics.flows_completed windowed);
  checki "dctcp completes" 6 (Metrics.flows_completed dctcp);
  checkb "dctcp keeps packet latency lower" true
    (Metrics.mean_packet_latency dctcp
    <= Metrics.mean_packet_latency windowed +. 1e-9)

let test_determinism () =
  let mk () =
    let flows =
      List.init 10 (fun i ->
          cross_host_flow ~id:i ~start:(i * Time_ns.of_us 100)
            ~src:(i mod 8) ~dst:(8 + (i mod 4)) ())
    in
    let t = topo () in
    let slots = 8 * Array.length (Topology.switches t) in
    let net =
      Network.create t
        ~scheme:(Schemes.Switchv2p_scheme.make t ~total_cache_slots:slots)
    in
    Network.run net flows ~migrations:[] ~until:(Time_ns.of_ms 50);
    let m = Network.metrics net in
    ( Metrics.packets_sent m,
      Metrics.gateway_packets m,
      Metrics.mean_fct m,
      Metrics.hit_rate m )
  in
  checkb "two runs identical" true (mk () = mk ())

let test_gateways_used_validation () =
  let t = topo () in
  Alcotest.check_raises "zero gateways"
    (Invalid_argument "Network.create: gateways_used out of range") (fun () ->
      ignore
        (Network.create
           ~config:{ Network.default_config with gateways_used = Some 0 }
           t ~scheme:(Schemes.Baselines.nocache ())))

let test_gateway_subset_respected () =
  let t = topo () in
  let net =
    Network.create
      ~config:{ Network.default_config with gateways_used = Some 1 }
      t ~scheme:(Schemes.Baselines.nocache ())
  in
  let gw0 = (Topology.gateways t).(0) in
  for flow_id = 0 to 50 do
    checki "always the single gateway" gw0 (Network.gateway_for_flow net flow_id)
  done

let test_udp_flow_latency () =
  let f =
    Flow.make ~id:0 ~src_vip:(Vip.of_int 0) ~dst_vip:(Vip.of_int 8)
      ~size_bytes:(5 * Netcore.Packet.mtu) ~start:0
      (Flow.Udp { rate_bps = 1e9 })
  in
  let net = run_flows ~scheme:(Schemes.Baselines.nocache ()) [ f ] in
  let m = Network.metrics net in
  checki "udp completes" 1 (Metrics.flows_completed m);
  checkb "latency measured" true (Metrics.mean_packet_latency m > 0.0)

let test_metrics_bytes_conservation () =
  let flows = [ cross_host_flow ~src:0 ~dst:8 () ] in
  let net = run_flows ~scheme:(Schemes.Baselines.nocache ()) flows in
  let m = Network.metrics net in
  let t = Network.topo net in
  let pods = (Topology.params t).Topo.Params.pods in
  let pod_sum =
    List.fold_left ( + ) 0 (List.init pods (Metrics.bytes_of_pod m))
  in
  let core_bytes =
    Array.fold_left
      (fun acc sw -> acc + Metrics.bytes_of_switch m sw)
      0 (Topology.cores t)
  in
  checki "pod bytes + core bytes = total" (Metrics.total_switch_bytes m)
    (pod_sum + core_bytes)

let test_ecn_marks_under_congestion () =
  (* A heavy incast overflows the receiver's host link queue past the
     ECN threshold: some packets must carry CE marks end to end. *)
  let t = topo () in
  let flows =
    List.init 8 (fun i ->
        cross_host_flow ~id:i ~packets:400 ~src:((4 * i) mod 24) ~dst:8 ())
  in
  let config = { Network.default_config with window = 128 } in
  let net = Network.create ~config t ~scheme:(Schemes.Baselines.direct ()) in
  Network.run net flows ~migrations:[] ~until:(Time_ns.of_ms 200);
  let marked = ref 0 in
  Topology.iter_links t (fun l -> marked := !marked + l.Topo.Link.marked);
  checkb "links marked packets" true (!marked > 0);
  checki "flows complete regardless" 8
    (Metrics.flows_completed (Network.metrics net))

(* Property: every scheme delivers every flow on random small traces
   (forwarding correctness is scheme-independent). *)
let delivery_qcheck =
  QCheck.Test.make ~name:"all schemes complete random traces" ~count:15
    QCheck.(pair small_nat (int_bound 3))
    (fun (seed, scheme_idx) ->
      let t = topo () in
      let rng = Dessim.Rng.create seed in
      let flows =
        List.init 8 (fun i ->
            let src = Dessim.Rng.int rng 24 in
            let dst = (src + 4 + Dessim.Rng.int rng 16) mod 24 in
            cross_host_flow ~id:i
              ~start:(i * Time_ns.of_us 100)
              ~packets:(1 + Dessim.Rng.int rng 20)
              ~src ~dst ())
      in
      let slots = 8 * Array.length (Topology.switches t) in
      let scheme =
        match scheme_idx with
        | 0 -> Schemes.Baselines.nocache ()
        | 1 -> Schemes.Baselines.gwcache ~topo:t ~total_slots:slots
        | 2 -> Schemes.Switchv2p_scheme.make t ~total_cache_slots:slots
        | _ -> Schemes.Baselines.direct ()
      in
      let net = Network.create t ~scheme in
      Network.run net flows ~migrations:[] ~until:(Time_ns.of_ms 100);
      let m = Network.metrics net in
      Metrics.flows_completed m = 8
      && Metrics.hit_rate m >= 0.0
      && Metrics.hit_rate m <= 1.0)

(* --- allocation ---

   The layers every workload shares on each delivery: delivery metrics,
   the sender's ACK path (window growth, DCTCP's control law, the pump
   that refills the window) and Direct's host resolution. None may
   allocate, in any build profile: the claim must not rest on
   cross-module inlining, which the dev profile turns off. *)

let minor_words f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

let zero_words = Alcotest.float 0.0
let n_alloc = 10_000

let test_delivery_metrics_allocation_free () =
  let t = topo () in
  let m = Metrics.create t (Dessim.Rng.create 3) in
  let tor = (Topology.tors t).(0) in
  let pkt =
    Netcore.Packet.make_data ~id:0 ~flow_id:0 ~seq:0 ~size:1500
      ~src_vip:(Vip.of_int 0) ~dst_vip:(Vip.of_int 8)
      ~src_pip:(Topology.pip t (Topology.hosts t).(0))
      ~dst_pip:(Topology.pip t (Topology.hosts t).(2))
      ~now:0
  in
  Netcore.Packet.set_hops pkt 4;
  let words =
    minor_words (fun () ->
        for i = 1 to n_alloc do
          (* Alternate a switch hit with a host resolution. *)
          pkt.Netcore.Packet.hit_switch <- (if i land 1 = 0 then tor else -1);
          Metrics.delivered m pkt ~now:(Time_ns.of_us i) ~first_of_flow:(i land 7 = 0);
          Metrics.first_packet_latency m (Time_ns.of_us 3)
        done)
  in
  checki "every delivery counted" n_alloc (Metrics.delivered_packets m);
  Alcotest.check zero_words "minor words over 10k deliveries" 0.0 words

let test_ack_path_allocation_free mode () =
  let eng = Dessim.Engine.create () in
  let sent = ref 0 in
  let cb =
    {
      Netsim.Transport.now = (fun () -> Dessim.Engine.now eng);
      timeout = (fun _ ~flow_id:_ ~gen:_ -> ());
      pace = (fun _ ~flow_id:_ ~seq:_ -> ());
      send_data = (fun _ ~seq:_ ~size:_ ~retransmit:_ -> incr sent);
      send_ack = (fun _ ~seq:_ ~ecn_echo:_ -> ());
      flow_done = (fun _ ~fct:_ -> ());
      first_packet = (fun _ ~latency:_ -> ());
    }
  in
  let tr = Netsim.Transport.create ~mode ~window:64 cb in
  let packets = n_alloc + 1 in
  Netsim.Transport.start tr (cross_host_flow ~packets ~src:0 ~dst:8 ());
  let ack =
    Netcore.Packet.make_ack ~id:0 ~flow_id:0 ~seq:0 ~src_vip:(Vip.of_int 8)
      ~dst_vip:(Vip.of_int 0) ~src_pip:Netcore.Addr.Pip.none
      ~dst_pip:Netcore.Addr.Pip.none ~now:0
  in
  let words =
    minor_words (fun () ->
        for seq = 0 to n_alloc - 1 do
          ack.Netcore.Packet.seq <- seq;
          (* Marks in bursts, so DCTCP both cuts and regrows. *)
          Netcore.Packet.set_ecn ack (seq land 31 < 4);
          Netsim.Transport.on_ack tr ack
        done)
  in
  checki "the window refilled on every ack" packets !sent;
  Alcotest.check zero_words "minor words over 10k acks" 0.0 words

(* The whole reliable-flow lifecycle on a transport sized for it:
   start (the initial window and the RTO timer), a timeout without
   progress (go-back-N resend and re-arm, through a typed engine
   event), every data packet and ACK, completion, and the leftover
   timers firing on finished flows. Each flow is a row of the
   transport's flat tables, so none of it allocates. *)
let test_flow_lifecycle_allocation_free mode () =
  let n_flows = 1000 and packets = 8 in
  let rto = Time_ns.of_us 100 in
  let eng = Dessim.Engine.create () in
  let sent = ref 0 and resent = ref 0 and acks = ref 0 and finished = ref 0 in
  let cb =
    {
      Netsim.Transport.now = (fun () -> Dessim.Engine.now eng);
      timeout =
        (fun delay ~flow_id ~gen ->
          Dessim.Engine.schedule_event_after eng ~delay ~code:0 ~a:flow_id ~b:gen);
      pace = (fun _ ~flow_id:_ ~seq:_ -> ());
      send_data =
        (fun _ ~seq:_ ~size:_ ~retransmit ->
          if retransmit then incr resent else incr sent);
      send_ack = (fun _ ~seq:_ ~ecn_echo:_ -> incr acks);
      flow_done = (fun _ ~fct:_ -> incr finished);
      first_packet = (fun _ ~latency:_ -> ());
    }
  in
  let tr = Netsim.Transport.create ~mode ~window:4 ~rto cb in
  Dessim.Engine.set_handler eng (fun ~code:_ ~a ~b ->
      Netsim.Transport.timed_out tr ~flow_id:a ~gen:b);
  Netsim.Transport.reserve tr ~flows:n_flows ~ack_packets:(n_flows * packets)
    ~recv_packets:(n_flows * packets) ~max_id:(n_flows - 1);
  let flows =
    Array.init n_flows (fun id -> cross_host_flow ~id ~packets ~src:0 ~dst:8 ())
  in
  let data =
    Netcore.Packet.make_data ~id:0 ~flow_id:0 ~seq:0 ~size:1500
      ~src_vip:(Vip.of_int 0) ~dst_vip:(Vip.of_int 8)
      ~src_pip:Netcore.Addr.Pip.none ~dst_pip:Netcore.Addr.Pip.none ~now:0
  in
  let ack =
    Netcore.Packet.make_ack ~id:0 ~flow_id:0 ~seq:0 ~src_vip:(Vip.of_int 8)
      ~dst_vip:(Vip.of_int 0) ~src_pip:Netcore.Addr.Pip.none
      ~dst_pip:Netcore.Addr.Pip.none ~now:0
  in
  let words =
    minor_words (fun () ->
        for id = 0 to n_flows - 1 do
          Netsim.Transport.start tr flows.(id);
          (* Nothing arrives for a full RTO: the timer fires. *)
          Dessim.Engine.run_until eng
            ~limit:(Time_ns.add (Dessim.Engine.now eng) rto);
          data.Netcore.Packet.flow_id <- id;
          ack.Netcore.Packet.flow_id <- id;
          for seq = 0 to packets - 1 do
            data.Netcore.Packet.seq <- seq;
            Netsim.Transport.on_data tr data;
            ack.Netcore.Packet.seq <- seq;
            Netcore.Packet.set_ecn ack (seq land 3 = 0);
            Netsim.Transport.on_ack tr ack
          done
        done;
        Dessim.Engine.run eng)
  in
  checki "every flow completed" n_flows !finished;
  checki "every packet sent once" (n_flows * packets) !sent;
  checki "one window resent per timeout" (n_flows * 4) !resent;
  checki "every data packet acked" (n_flows * packets) !acks;
  checki "timers drained" 0 (Dessim.Engine.pending eng);
  Alcotest.check zero_words "minor words over 1000 flow lifecycles" 0.0 words

(* Two shards; both VMs of a flow migrate, before it starts, from their
   pod-0 hosts (shard 0, where the flow's transport lives) to pod-1
   hosts (shard 1). Direct resolves at the host, so the packets never
   leave pod 1 and every handoff is a replayed send (mode 1) or a
   delivery home to the transport (modes 2 and 3). All of them, the
   flow starts and the migrations are typed events: no closure is
   queued anywhere. *)
let test_sharded_migrated_delivery_no_thunks () =
  let t = topo () in
  let hosts_in pod =
    Array.to_list (Topology.hosts t)
    |> List.filter (fun h -> Topo.Node.pod_of (Topology.kind t h) = pod)
  in
  let vms_per_host = (Topology.params t).Topo.Params.vms_per_host in
  let vm_on h =
    let rec find i = if (Topology.hosts t).(i) = h then i else find (i + 1) in
    find 0 * vms_per_host
  in
  let src, dst =
    match hosts_in 0 with a :: b :: _ -> (vm_on a, vm_on b) | _ -> assert false
  in
  let a1, b1 =
    match hosts_in 1 with a :: b :: _ -> (a, b) | _ -> assert false
  in
  let migrations =
    [
      { Network.at = 0; vip = Vip.of_int src; to_host = a1 };
      { Network.at = 0; vip = Vip.of_int dst; to_host = b1 };
    ]
  in
  let flows =
    List.init 4 (fun id ->
        cross_host_flow ~id ~start:(Time_ns.of_us (1 + (5 * id))) ~packets:20 ~src
          ~dst ())
  in
  let p =
    Netsim.Parnet.run ~shards:2 t
      ~fresh_scheme:(fun ~shard:_ -> Schemes.Baselines.direct ())
      ~flows ~migrations ~until:(Time_ns.of_ms 20)
  in
  let nets = Netsim.Parnet.nets p in
  let total f = Array.fold_left (fun acc n -> acc + f n) 0 nets in
  checki "flows completed" 4 (Metrics.flows_completed (Netsim.Parnet.metrics p));
  checkb "deliveries crossed shards" true (total Network.handoffs_received > 40);
  checki "thunks queued" 0
    (total (fun n -> Dessim.Engine.thunks_scheduled (Network.engine n)))

let test_direct_resolution_allocation_free () =
  let t = topo () in
  let scheme = Schemes.Baselines.direct () in
  let net = Network.create t ~scheme in
  let env = Network.env net in
  let host = (Topology.hosts t).(0) in
  let sink = ref 0 in
  let words =
    minor_words (fun () ->
        for i = 1 to n_alloc do
          sink :=
            !sink
            + scheme.Netsim.Scheme.resolve_at_host env ~host ~flow_id:i
                ~dst_vip:(Vip.of_int (i land 15))
        done)
  in
  checkb "resolved at the host" true
    (Netsim.Scheme.Resolution.tag !sink = Netsim.Scheme.Resolution.tag_resolved);
  Alcotest.check zero_words "minor words over 10k resolutions" 0.0 words

(* A pool packet is born in the major heap: no minor words, and the
   fields of [make_data] with the documented blank values. *)
let test_blank_packet_major_born () =
  let words =
    minor_words (fun () ->
        for _ = 1 to n_alloc do
          ignore (Sys.opaque_identity (Netcore.Packet.blank ()))
        done)
  in
  Alcotest.check zero_words "minor words over 10k blank packets" 0.0 words;
  let template =
    Netcore.Packet.make_data ~id:(-1) ~flow_id:(-1) ~seq:0 ~size:0
      ~src_vip:(Vip.of_int 0) ~dst_vip:(Vip.of_int 0)
      ~src_pip:Netcore.Addr.Pip.none ~dst_pip:Netcore.Addr.Pip.none ~now:0
  in
  let blank = Netcore.Packet.blank () in
  let b = Obj.repr blank and t = Obj.repr template in
  checki "field count" (Obj.size t) (Obj.size b);
  checki "tag" (Obj.tag t) (Obj.tag b);
  for i = 0 to Obj.size t - 1 do
    checkb (Printf.sprintf "field %d" i) true (Obj.field b i == Obj.field t i)
  done;
  (* Blanks are distinct packets: filling one leaves the next alone. *)
  blank.Netcore.Packet.id <- 7;
  checki "a fresh blank" (-1) (Netcore.Packet.blank ()).Netcore.Packet.id

(* The whole event loop of a SwitchV2P run: gateway traffic, learning
   packets, spills and a migration (invalidations and misdelivery
   re-forwards). [Network.load] sizes every per-flow table and the
   pool's packets are born in the major heap, so once the workload is
   loaded, running the engine to the horizon allocates nothing. *)
let test_switchv2p_event_loop_allocation_free () =
  let t = topo () in
  (* Two slots a switch: the caches overflow, so entries spill. *)
  let slots = 2 * Array.length (Topology.switches t) in
  let scheme = Schemes.Switchv2p_scheme.make t ~total_cache_slots:slots in
  let net = Network.create t ~scheme in
  let flows =
    List.init 60 (fun i ->
        cross_host_flow ~id:i ~packets:20
          ~start:(i * Time_ns.of_us 50)
          ~src:(i mod 8) ~dst:(8 + (i * 5 mod 8)) ())
    @ [
        (* VIP 9 is cached along these paths before it moves, and used
           after. *)
        cross_host_flow ~id:60 ~packets:100 ~start:(Time_ns.of_us 3500) ~src:0
          ~dst:9 ();
        cross_host_flow ~id:61 ~packets:50 ~start:(Time_ns.of_ms 5) ~src:4
          ~dst:9 ();
      ]
  in
  let new_host = Network.vm_host net (Vip.of_int 16) in
  let migrations =
    [ { Network.at = Time_ns.of_ms 4; vip = Vip.of_int 9; to_host = new_host } ]
  in
  Network.load net flows ~migrations;
  let words =
    minor_words (fun () ->
        Dessim.Engine.run_until (Network.engine net) ~limit:(Time_ns.of_ms 100))
  in
  let m = Network.metrics net in
  let stat k = List.assoc k (scheme.Netsim.Scheme.stats ()) in
  checki "every flow completed" 62 (Metrics.flows_completed m);
  checkb "gateway traffic" true (Metrics.gateway_packets m > 0);
  checkb "learning packets" true (stat "learning_packets" > 0.0);
  checkb "spills" true (stat "spills_attached" > 0.0);
  checki "vip moved" new_host (Network.vm_host net (Vip.of_int 9));
  checkb "misdeliveries re-forwarded" true (Metrics.misdelivered_packets m > 0);
  checkb "invalidation packets" true (stat "invalidation_packets" > 0.0);
  Alcotest.check zero_words "minor words in the event loop" 0.0 words

(* Riders are one packed word each: attaching, reading and absorbing
   one is plain int arithmetic, with no allocation in any profile. *)
let test_riders_allocation_free () =
  let module Packet = Netcore.Packet in
  let pip = Netcore.Addr.Pip.of_int in
  let pkt =
    Packet.make_data ~id:0 ~flow_id:0 ~seq:0 ~size:1500 ~src_vip:(Vip.of_int 0)
      ~dst_vip:(Vip.of_int 8) ~src_pip:(pip 1) ~dst_pip:(pip 2) ~now:0
  in
  let sum = ref 0 in
  let words =
    minor_words (fun () ->
        for i = 1 to n_alloc do
          let v = Vip.of_int (i land 1023) in
          Packet.set_spill pkt v (pip i);
          Packet.set_promo pkt v (pip (i + 1));
          Packet.set_mapping pkt v (pip (i + 2));
          sum :=
            !sum + Packet.spill_vip pkt + Packet.spill_pip pkt
            + Packet.promo_pip pkt + Packet.mapping_pip pkt;
          Packet.clear_spill pkt;
          Packet.clear_promo pkt;
          Packet.clear_mapping pkt
        done)
  in
  checkb "riders read back" true (!sum > 0);
  checki "absorbed" (-1) (Packet.spill_vip pkt);
  Alcotest.check zero_words "minor words over 10k riders" 0.0 words

(* The ground-truth store's per-packet reads and a migration's write
   are one word each and allocate nothing. *)
let test_mapping_allocation_free () =
  let module Mapping = Netcore.Mapping in
  let m = Mapping.create ~initial_capacity:16 () in
  for v = 0 to 15 do
    Mapping.install m (Vip.of_int v) (Netcore.Addr.Pip.of_int v)
  done;
  let sum = ref 0 in
  let words =
    minor_words (fun () ->
        for i = 1 to n_alloc do
          let v = Vip.of_int (i land 15) in
          sum := !sum + Netcore.Addr.Pip.to_int (Mapping.lookup m v);
          Mapping.migrate m v (Netcore.Addr.Pip.of_int (i land 255))
        done)
  in
  checkb "lookups ran" true (!sum > 0);
  checki "versions bumped" (1 + (n_alloc / 16)) (Mapping.version m (Vip.of_int 0));
  Alcotest.check zero_words "minor words over 10k lookups and migrations" 0.0
    words

(* The mapping is the one record of VM placement: after a churn
   episode has moved VMs, every VIP's host is the node its mapped PIP
   names. *)
let test_vm_host_is_mapping_after_churn () =
  let t = topo () in
  let net = Network.create t ~scheme:(Schemes.Baselines.direct ()) in
  let ms = Time_ns.of_ms in
  Network.install_faults net
    {
      Dessim.Fault.seed = 11;
      specs =
        [|
          { Dessim.Fault.at = ms 1; action = Dessim.Fault.Churn 6 };
          { Dessim.Fault.at = ms 2; action = Dessim.Fault.Churn 6 };
        |];
    };
  Network.run net [ cross_host_flow ~src:0 ~dst:8 () ] ~migrations:[]
    ~until:(ms 10);
  let hosts = Topology.hosts t in
  let moved = ref 0 in
  for i = 0 to Network.num_vms net - 1 do
    let vip = Vip.of_int i in
    let host = Network.vm_host net vip in
    checki
      (Printf.sprintf "vip %d" i)
      (Topology.node_of_pip t (Netcore.Mapping.lookup (Network.mapping net) vip))
      host;
    if host <> hosts.(i / 4) then incr moved
  done;
  checkb "churn moved VMs" true (!moved > 0)

let () =
  Alcotest.run "network"
    [
      ( "end-to-end",
        [
          Alcotest.test_case "nocache" `Quick test_nocache_end_to_end;
          Alcotest.test_case "direct bypasses gateways" `Quick test_direct_bypasses_gateway;
          Alcotest.test_case "direct faster than nocache" `Quick test_direct_faster_than_nocache;
          Alcotest.test_case "ondemand penalty" `Quick test_ondemand_penalty_only_first;
          Alcotest.test_case "switchv2p learns across flows" `Quick test_switchv2p_learns_across_flows;
          Alcotest.test_case "switchv2p beats nocache on reuse" `Quick test_switchv2p_beats_nocache_on_reuse;
          Alcotest.test_case "loopback delivery" `Quick test_loopback_delivery;
          Alcotest.test_case "udp latency" `Quick test_udp_flow_latency;
        ] );
      ( "migration",
        [
          Alcotest.test_case "follow-me delivers" `Quick test_migration_follow_me_delivers;
          Alcotest.test_case "switchv2p invalidates stale" `Quick test_migration_switchv2p_invalidates;
          Alcotest.test_case "vm_host reads the mapping" `Quick
            test_vm_host_is_mapping_after_churn;
        ] );
      ( "infrastructure",
        [
          Alcotest.test_case "cache failure is safe" `Quick test_cache_failure_is_safe;
          Alcotest.test_case "dctcp reduces queueing" `Quick test_dctcp_reduces_queueing_under_incast;
          Alcotest.test_case "ecn marks under congestion" `Quick test_ecn_marks_under_congestion;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "gateways_used validated" `Quick test_gateways_used_validation;
          Alcotest.test_case "gateway subset respected" `Quick test_gateway_subset_respected;
          Alcotest.test_case "bytes conservation" `Quick test_metrics_bytes_conservation;
          Alcotest.test_case "bounds checked" `Quick test_bounds_checked;
          QCheck_alcotest.to_alcotest delivery_qcheck;
        ] );
      ( "alloc",
        [
          Alcotest.test_case "delivery metrics" `Quick
            test_delivery_metrics_allocation_free;
          Alcotest.test_case "windowed acks" `Quick
            (test_ack_path_allocation_free Netsim.Transport.Windowed);
          Alcotest.test_case "dctcp acks" `Quick
            (test_ack_path_allocation_free Netsim.Transport.Dctcp);
          Alcotest.test_case "direct host resolution" `Quick
            test_direct_resolution_allocation_free;
          Alcotest.test_case "windowed flow lifecycle" `Quick
            (test_flow_lifecycle_allocation_free Netsim.Transport.Windowed);
          Alcotest.test_case "dctcp flow lifecycle" `Quick
            (test_flow_lifecycle_allocation_free Netsim.Transport.Dctcp);
          Alcotest.test_case "sharded migrated delivery" `Quick
            test_sharded_migrated_delivery_no_thunks;
          Alcotest.test_case "blank packet born in the major heap" `Quick
            test_blank_packet_major_born;
          Alcotest.test_case "switchv2p event loop" `Quick
            test_switchv2p_event_loop_allocation_free;
          Alcotest.test_case "rider attach and absorb" `Quick
            test_riders_allocation_free;
          Alcotest.test_case "mapping lookup and migrate" `Quick
            test_mapping_allocation_free;
        ] );
    ]
