(* Tests for per-tenant cache partitioning (§4 multitenancy), the
   role-weighted memory allocation, and gateway-migration role
   reassignment. *)

module Partition = Switchv2p.Partition
module Config = Switchv2p.Config
module Dataplane = Switchv2p.Dataplane
module Cache = Switchv2p.Cache
module Topology = Topo.Topology
module Node = Topo.Node
module Vip = Netcore.Addr.Vip

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let vip = Vip.of_int

let topo () =
  Topology.build
    (Topo.Params.scaled ~pods:2 ~racks_per_pod:2 ~hosts_per_rack:2
       ~vms_per_host:4 ())

(* --- Partition --- *)

let test_single_partition () =
  checki "one tenant" 1 (Partition.num_tenants Partition.single);
  checki "owns everything" 0 (Partition.tenant_of Partition.single (vip 0));
  checki "owns large vips" 0
    (Partition.tenant_of Partition.single (vip 1_000_000))

let test_range_partition () =
  let p = Partition.create ~bounds:[| 10; 30; 100 |] ~shares:[| 1.; 1.; 2. |] in
  checki "tenants" 3 (Partition.num_tenants p);
  checki "first range" 0 (Partition.tenant_of p (vip 0));
  checki "boundary belongs to next" 1 (Partition.tenant_of p (vip 10));
  checki "second range" 1 (Partition.tenant_of p (vip 29));
  checki "third range" 2 (Partition.tenant_of p (vip 30));
  checki "overflow goes to last" 2 (Partition.tenant_of p (vip 5000))

let test_fn_partition () =
  let p =
    Partition.create_fn ~num_tenants:2 ~shares:[| 1.0; 1.0 |] (fun v ->
        Vip.to_int v land 1)
  in
  checki "even -> 0" 0 (Partition.tenant_of p (vip 4));
  checki "odd -> 1" 1 (Partition.tenant_of p (vip 5))

let test_fn_partition_out_of_range () =
  let p = Partition.create_fn ~num_tenants:2 ~shares:[| 1.0; 1.0 |] (fun _ -> 7) in
  Alcotest.check_raises "bad assignment"
    (Invalid_argument "Partition.tenant_of: assignment out of range") (fun () ->
      ignore (Partition.tenant_of p (vip 0)))

let test_partition_validation () =
  Alcotest.check_raises "no tenants"
    (Invalid_argument "Partition.create: no tenants") (fun () ->
      ignore (Partition.create ~bounds:[||] ~shares:[||]));
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Partition.create: bounds/shares length mismatch")
    (fun () -> ignore (Partition.create ~bounds:[| 1 |] ~shares:[| 1.; 2. |]));
  Alcotest.check_raises "non-increasing bounds"
    (Invalid_argument "Partition.create: bounds not strictly increasing")
    (fun () ->
      ignore (Partition.create ~bounds:[| 5; 5 |] ~shares:[| 1.; 1. |]));
  Alcotest.check_raises "bad share"
    (Invalid_argument "Partition.create: non-positive share") (fun () ->
      ignore (Partition.create ~bounds:[| 1; 2 |] ~shares:[| 1.; 0. |]))

let test_split_slots_conserved () =
  let p = Partition.create ~bounds:[| 10; 20 |] ~shares:[| 9.0; 1.0 |] in
  let split = Partition.split_slots p ~slots:100 in
  checki "tenant 0 gets 90" 90 split.(0);
  checki "tenant 1 gets 10" 10 split.(1);
  (* Odd totals conserve too. *)
  let split2 = Partition.split_slots p ~slots:7 in
  checki "total conserved" 7 (Array.fold_left ( + ) 0 split2)

let split_qcheck =
  QCheck.Test.make ~name:"split_slots conserves totals" ~count:200
    QCheck.(pair (int_bound 1000) (pair small_nat small_nat))
    (fun (slots, (a, b)) ->
      let p =
        Partition.create ~bounds:[| 10; 20 |]
          ~shares:[| float_of_int (a + 1); float_of_int (b + 1) |]
      in
      Array.fold_left ( + ) 0 (Partition.split_slots p ~slots) = slots)

(* --- Dataplane with partitions --- *)

let test_dataplane_partitioned_caches () =
  let t = topo () in
  let part = Partition.create ~bounds:[| 8; 16 |] ~shares:[| 1.0; 1.0 |] in
  let n = Array.length (Topology.switches t) in
  let dp =
    Dataplane.create ~partition:part Config.default t
      ~total_cache_slots:(8 * n)
  in
  let sw = (Topology.switches t).(0) in
  let c0 = Dataplane.cache_of_tenant dp ~switch:sw ~tenant:0 in
  let c1 = Dataplane.cache_of_tenant dp ~switch:sw ~tenant:1 in
  checki "tenant 0 slots" 4 (Cache.slots c0);
  checki "tenant 1 slots" 4 (Cache.slots c1);
  checki "total per switch" 8 (Dataplane.slots_of dp ~switch:sw);
  Alcotest.check_raises "tenant out of range"
    (Invalid_argument "Dataplane.cache_of_tenant: tenant out of range")
    (fun () -> ignore (Dataplane.cache_of_tenant dp ~switch:sw ~tenant:2))

let test_partition_isolates_insertions () =
  (* Mappings learned for tenant 1 never occupy tenant 0's lines. *)
  let t = topo () in
  let part = Partition.create ~bounds:[| 8; 10_000 |] ~shares:[| 1.0; 1.0 |] in
  let n = Array.length (Topology.switches t) in
  let scheme, dp =
    Schemes.Switchv2p_scheme.make_with_dataplane ~partition:part t
      ~total_cache_slots:(16 * n)
  in
  let net = Netsim.Network.create t ~scheme in
  (* vip 12 belongs to tenant 1; send traffic to it. *)
  let flow =
    Netcore.Flow.make ~id:0 ~src_vip:(vip 9) ~dst_vip:(vip 12)
      ~size_bytes:30_000 ~start:0 Netcore.Flow.Tcpish
  in
  Netsim.Network.run net [ flow ] ~migrations:[]
    ~until:(Dessim.Time_ns.of_ms 20);
  Array.iter
    (fun sw ->
      let c0 = Dataplane.cache_of_tenant dp ~switch:sw ~tenant:0 in
      checkb "tenant-0 partition untouched by dst learning" true
        (Cache.peek c0 (vip 12) = None))
    (Topology.switches t)

(* --- role-weighted allocation --- *)

let test_weighted_allocation () =
  let t = topo () in
  let cfg =
    Config.make
      ~allocation:
        (Config.Weighted
           { tor = 2.0; spine = 1.0; core = 0.0; gw_tor = 2.0; gw_spine = 1.0 })
      ()
  in
  let dp = Dataplane.create cfg t ~total_cache_slots:200 in
  let total = ref 0 in
  Array.iter
    (fun sw ->
      let slots = Dataplane.slots_of dp ~switch:sw in
      total := !total + slots;
      match Topology.role t sw with
      | Node.Core_switch -> checki "cores empty" 0 slots
      | Node.Regular_tor | Node.Gateway_tor ->
          checkb "tors get the double share" true (slots >= 30)
      | Node.Regular_spine | Node.Gateway_spine ->
          checkb "spines get the single share" true (slots >= 15 && slots < 30))
    (Topology.switches t);
  checki "budget conserved" 200 !total

let test_negative_weight_rejected () =
  let t = topo () in
  let cfg =
    Config.make
      ~allocation:
        (Config.Weighted
           { tor = -1.0; spine = 1.0; core = 1.0; gw_tor = 1.0; gw_spine = 1.0 })
      ()
  in
  Alcotest.check_raises "negative weight"
    (Invalid_argument "Dataplane.create: negative role weight") (fun () ->
      ignore (Dataplane.create cfg t ~total_cache_slots:10))

let test_tor_only_via_allocation () =
  let t = topo () in
  let dp =
    Dataplane.create (Config.make ~allocation:Config.Tor_only ()) t
      ~total_cache_slots:64
  in
  Array.iter
    (fun sw ->
      match Topology.role t sw with
      | Node.Regular_tor | Node.Gateway_tor ->
          checkb "tor nonempty" true (Dataplane.slots_of dp ~switch:sw > 0)
      | Node.Regular_spine | Node.Gateway_spine | Node.Core_switch ->
          checki "others empty" 0 (Dataplane.slots_of dp ~switch:sw))
    (Topology.switches t)

(* --- gateway migration (role reassignment) --- *)

let test_reassign_tor_roles () =
  let t = topo () in
  let dp = Dataplane.create Config.default t ~total_cache_slots:64 in
  let gw_tor =
    Array.to_list (Topology.tors t)
    |> List.find (fun sw -> Topology.role t sw = Node.Gateway_tor)
  in
  let reg_tor =
    Array.to_list (Topology.tors t)
    |> List.find (fun sw -> Topology.role t sw = Node.Regular_tor)
  in
  (* Swap the roles, as gateway migration does. *)
  Dataplane.reassign_role dp ~switch:gw_tor Node.Regular_tor;
  Dataplane.reassign_role dp ~switch:reg_tor Node.Gateway_tor;
  checkb "old gateway ToR demoted" true
    (Dataplane.role_of dp ~switch:gw_tor = Node.Regular_tor);
  checkb "new gateway ToR promoted" true
    (Dataplane.role_of dp ~switch:reg_tor = Node.Gateway_tor);
  (* Cache state survives the transition. *)
  ignore
    (Cache.insert (Dataplane.cache dp ~switch:gw_tor) ~admission:`All (vip 3)
       (Netcore.Addr.Pip.of_int 1));
  Dataplane.reassign_role dp ~switch:gw_tor Node.Gateway_tor;
  checkb "cache state kept" true
    (Cache.peek (Dataplane.cache dp ~switch:gw_tor) (vip 3) <> None)

let test_reassign_cross_tier_rejected () =
  let t = topo () in
  let dp = Dataplane.create Config.default t ~total_cache_slots:64 in
  let tor = (Topology.tors t).(0) in
  Alcotest.check_raises "tor cannot become core"
    (Invalid_argument "Dataplane.reassign_role: incompatible tier") (fun () ->
      Dataplane.reassign_role dp ~switch:tor Node.Core_switch)

let test_reassigned_tor_changes_learning () =
  (* After demotion, a former gateway ToR source-learns like a regular
     ToR. *)
  let t = topo () in
  let dp = Dataplane.create Config.default t ~total_cache_slots:(16 * 12) in
  let gw_tor =
    Array.to_list (Topology.tors t)
    |> List.find (fun sw -> Topology.role t sw = Node.Gateway_tor)
  in
  Dataplane.reassign_role dp ~switch:gw_tor Node.Regular_tor;
  let env =
    {
      Dataplane.now = (fun () -> 0);
      emit = (fun ~src_switch:_ _ -> ());
      fresh_packet_id = (fun () -> 0);
      pooled_packet = Netcore.Packet.blank;
      rng = Dessim.Rng.create 3;
    }
  in
  let host = (Topology.hosts t).(0) in
  let pkt =
    Netcore.Packet.make_data ~id:1 ~flow_id:1 ~seq:0 ~size:1500
      ~src_vip:(vip 99) ~dst_vip:(vip 98)
      ~src_pip:(Topology.pip t host)
      ~dst_pip:(Topology.pip t (Topology.gateways t).(0))
      ~now:0
  in
  ignore (Dataplane.process dp env ~switch:gw_tor ~from:(Topology.spines t).(0) pkt);
  checkb "source learning active after demotion" true
    (Cache.peek (Dataplane.cache dp ~switch:gw_tor) (vip 99) <> None)

(* --- per-class metrics --- *)

let test_class_hit_rates () =
  let t = topo () in
  let n = Array.length (Topology.switches t) in
  let scheme = Schemes.Switchv2p_scheme.make t ~total_cache_slots:(32 * n) in
  let classify (pkt : Netcore.Packet.t) =
    Vip.to_int pkt.Netcore.Packet.dst_vip land 1
  in
  let config =
    { Netsim.Network.default_config with classify = Some classify }
  in
  let net = Netsim.Network.create ~config t ~scheme in
  let flow id dst start =
    Netcore.Flow.make ~id ~src_vip:(vip 0) ~dst_vip:(vip dst)
      ~size_bytes:15_000 ~start Netcore.Flow.Tcpish
  in
  Netsim.Network.run net
    [ flow 0 8 0; flow 1 9 0; flow 2 8 (Dessim.Time_ns.of_ms 5) ]
    ~migrations:[] ~until:(Dessim.Time_ns.of_ms 50);
  let m = Netsim.Network.metrics net in
  checkb "class 0 counted" true (Netsim.Metrics.class_packets_sent m 0 > 0);
  checkb "class 1 counted" true (Netsim.Metrics.class_packets_sent m 1 > 0);
  checkb "unknown class empty" true (Netsim.Metrics.class_packets_sent m 9 = 0);
  Alcotest.check (Alcotest.float 1e-9) "unknown class rate" 0.0
    (Netsim.Metrics.class_hit_rate m 9)

let test_multitenant_experiment_shape () =
  let t = Experiments.Multitenant.run ~scale:`Tiny () in
  checki "three configs" 3 (List.length t.Experiments.Multitenant.rows);
  let row name =
    List.find
      (fun r -> r.Experiments.Multitenant.config = name)
      t.Experiments.Multitenant.rows
  in
  let shared = row "shared" in
  let weighted = row "partitioned 90/10" in
  (* The operator policy must protect tenant A from the churner. *)
  checkb "weighted partition protects tenant A" true
    (weighted.Experiments.Multitenant.tenant_a_hit
    >= shared.Experiments.Multitenant.tenant_a_hit -. 0.02);
  checkb "churner capped" true
    (weighted.Experiments.Multitenant.tenant_b_hit
    <= shared.Experiments.Multitenant.tenant_b_hit)

let () =
  Alcotest.run "partition"
    [
      ( "partition",
        [
          Alcotest.test_case "single" `Quick test_single_partition;
          Alcotest.test_case "ranges" `Quick test_range_partition;
          Alcotest.test_case "function assignment" `Quick test_fn_partition;
          Alcotest.test_case "fn out of range" `Quick test_fn_partition_out_of_range;
          Alcotest.test_case "validation" `Quick test_partition_validation;
          Alcotest.test_case "slot split" `Quick test_split_slots_conserved;
          QCheck_alcotest.to_alcotest split_qcheck;
        ] );
      ( "dataplane",
        [
          Alcotest.test_case "partitioned caches" `Quick test_dataplane_partitioned_caches;
          Alcotest.test_case "insertion isolation" `Quick test_partition_isolates_insertions;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "weighted" `Quick test_weighted_allocation;
          Alcotest.test_case "negative weight" `Quick test_negative_weight_rejected;
          Alcotest.test_case "tor-only" `Quick test_tor_only_via_allocation;
        ] );
      ( "gateway migration",
        [
          Alcotest.test_case "reassign tor roles" `Quick test_reassign_tor_roles;
          Alcotest.test_case "cross-tier rejected" `Quick test_reassign_cross_tier_rejected;
          Alcotest.test_case "learning follows role" `Quick test_reassigned_tor_changes_learning;
        ] );
      ( "multitenancy",
        [
          Alcotest.test_case "class hit rates" `Quick test_class_hit_rates;
          Alcotest.test_case "experiment shape" `Slow test_multitenant_experiment_shape;
        ] );
    ]
