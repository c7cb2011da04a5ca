(* Domain-sharded event core: SPSC mailbox ordering, Engine.next_at,
   Metrics.merge split-stream equivalence, 1-shard vs n-shard
   differential runs, fixed-shard-count determinism, and a sharded DST
   smoke over fault seeds. *)

module Engine = Dessim.Engine
module Rng = Dessim.Rng
module Spsc = Dessim.Spsc
module Time_ns = Dessim.Time_ns
module Flow = Netcore.Flow
module Packet = Netcore.Packet
module Vip = Netcore.Addr.Vip
module Pip = Netcore.Addr.Pip
module Mapping = Netcore.Mapping
module Topology = Topo.Topology
module Network = Netsim.Network
module Parnet = Netsim.Parnet
module Metrics = Netsim.Metrics
module Dst = Experiments.Dst

let qtest t = QCheck_alcotest.to_alcotest t

(* ------------------------------------------------------------------ *)
(* SPSC mailbox: drain yields exact push order across ring and spill. *)

let spsc_fifo =
  QCheck.Test.make ~count:200
    ~name:"spsc: drain preserves push order across ring and spill"
    QCheck.(pair (int_range 0 4) (small_list (int_range 0 50)))
    (fun (cap_log, batches) ->
      let stride = 3 in
      let q = Spsc.create ~capacity:(1 lsl cap_log) ~stride () in
      let next = ref 0 and got = ref [] and expect = ref [] in
      let buf = Array.make stride 0 in
      List.iter
        (fun n ->
          (* producer phase: push a batch (overflow goes to spill) *)
          for _ = 1 to n do
            buf.(0) <- !next;
            buf.(1) <- (!next * 7) + 1;
            buf.(2) <- - !next;
            expect := !next :: !expect;
            incr next;
            Spsc.push q buf
          done;
          (* barrier-separated consumer phase *)
          Spsc.drain q (fun b off ->
              if b.(off + 1) <> (b.(off) * 7) + 1 || b.(off + 2) <> -b.(off)
              then QCheck.Test.fail_report "record payload corrupted";
              got := b.(off) :: !got);
          (* producer regains ownership of its spill at window start *)
          Spsc.reset_spill q)
        batches;
      !got = !expect && Spsc.pushed q = !next)

(* ------------------------------------------------------------------ *)
(* Engine.next_at against a sorted-list model. *)

let next_at_model =
  QCheck.Test.make ~count:150
    ~name:"next_at (heap) tracks the pending minimum"
    QCheck.(
      pair (small_list (int_range 0 5_000)) (small_list (int_range 0 6_000)))
    (fun (keys, probes) ->
      let e = Engine.create () in
      List.iter (fun k -> Engine.schedule e ~at:k (fun () -> ())) keys;
      let pending = ref (List.sort compare keys) in
      let check () =
        let expect = match !pending with [] -> max_int | k :: _ -> k in
        Engine.next_at e = expect
      in
      check ()
      && List.for_all
           (fun p ->
             Engine.run_until e ~limit:p;
             pending := List.filter (fun k -> k > p) !pending;
             check ())
           probes)

(* ------------------------------------------------------------------ *)
(* Metrics.merge: recording a stream split across two collectors and
   merging is equivalent to recording it into one (satellite:
   commutative metrics merge). Ints must match exactly; float means
   may differ by summation order only. *)

let mtopo =
  Topology.build
    (Topo.Params.scaled ~pods:2 ~racks_per_pod:1 ~hosts_per_rack:2
       ~vms_per_host:2 ())

type mop =
  | Sent of int (* vip index *)
  | Dropped of int (* site index *)
  | Gw
  | Switch of int (* switch index *)
  | Deliv of bool (* first_of_flow *)
  | Misdeliv
  | FStart
  | FDone of int (* fct ns *)
  | Fpl of int

let mop_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun v -> Sent v) (int_range 0 7));
        (2, map (fun s -> Dropped s) (int_range 0 6));
        (2, return Gw);
        (3, map (fun s -> Switch s) (int_range 0 5));
        (4, map (fun b -> Deliv b) bool);
        (1, return Misdeliv);
        (2, return FStart);
        (2, map (fun f -> FDone f) (int_range 1 1_000_000));
        (2, map (fun f -> Fpl f) (int_range 1 100_000));
      ])

let mk_pkt vip =
  let p =
    Packet.make_data ~id:vip ~flow_id:vip ~seq:0 ~size:1500
      ~src_vip:(Vip.of_int vip) ~dst_vip:(Vip.of_int (vip lxor 1))
      ~src_pip:(Topology.pip mtopo 0) ~dst_pip:(Topology.pip mtopo 1) ~now:0
  in
  Packet.set_hops p 2;
  p.Packet.hit_switch <- (Topology.switches mtopo).(0);
  p

let sites =
  Metrics.
    [|
      Link_buffer;
      Failed_switch;
      Gateway_miss;
      Host_miss;
      Fault_blackhole;
      Fault_loss;
      Fault_gateway;
    |]

let apply_mop m op =
  match op with
  | Sent v -> Metrics.packet_sent m (mk_pkt v)
  | Dropped s -> Metrics.packet_dropped m ~site:sites.(s) (mk_pkt 0)
  | Gw -> Metrics.gateway_arrival m (mk_pkt 1)
  | Switch s ->
      Metrics.switch_processed m
        ~switch:(Topology.switches mtopo).(s mod Array.length (Topology.switches mtopo))
        (mk_pkt 2)
  | Deliv first ->
      let p = mk_pkt 3 in
      p.Packet.sent_at <- 0;
      Metrics.delivered m p ~now:(Time_ns.of_us 5) ~first_of_flow:first
  | Misdeliv -> Metrics.misdelivered m (mk_pkt 4)
  | FStart -> Metrics.flow_started m
  | FDone fct -> Metrics.flow_completed m ~fct
  | Fpl l -> Metrics.first_packet_latency m l

let int_fingerprint m =
  let c0, c1, c2, c3, c4 = Metrics.layer_hits m in
  let f0, f1, f2, f3, f4 = Metrics.first_packet_layer_hits m in
  let drops =
    List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) (Metrics.drops_by_kind m)
    @ List.map
        (fun (k, v) -> Printf.sprintf "%s=%d" k v)
        (Metrics.drops_by_site m)
  in
  Printf.sprintf
    "sent=%d gw=%d deliv=%d drop=%d mis=%d fs=%d fc=%d bytes=%d \
     layers=%d,%d,%d,%d,%d fpl=%d,%d,%d,%d,%d %s"
    (Metrics.packets_sent m) (Metrics.gateway_packets m)
    (Metrics.delivered_packets m)
    (Metrics.packets_dropped m)
    (Metrics.misdelivered_packets m)
    (Metrics.flows_started m) (Metrics.flows_completed m)
    (Metrics.total_switch_bytes m) c0 c1 c2 c3 c4 f0 f1 f2 f3 f4
    (String.concat " " drops)

let close a b = abs_float (a -. b) <= 1e-9 *. (1.0 +. abs_float a)

let merge_split_equiv =
  QCheck.Test.make ~count:200
    ~name:"metrics: split-stream merge == single-stream"
    (QCheck.make
       QCheck.Gen.(list_size (int_range 0 60) (pair mop_gen bool)))
    (fun ops ->
      let mk () = Metrics.create mtopo (Rng.create 42) in
      let single = mk () and a = mk () and b = mk () in
      List.iter
        (fun (op, side) ->
          apply_mop single op;
          apply_mop (if side then a else b) op)
        ops;
      let ab = Metrics.merge a b and ba = Metrics.merge b a in
      let has_fct = List.exists (function FDone _, _ -> true | _ -> false) ops in
      (* commutativity is exact (same multisets, float adds commute) *)
      int_fingerprint ab = int_fingerprint ba
      && close (Metrics.mean_fct ab) (Metrics.mean_fct ba)
      && (not has_fct
         || close (Metrics.fct_percentile ab 0.99) (Metrics.fct_percentile ba 0.99))
      (* split == single: ints exact, float means up to summation order *)
      && int_fingerprint ab = int_fingerprint single
      && close (Metrics.mean_fct ab) (Metrics.mean_fct single)
      && close (Metrics.mean_first_packet_latency ab)
           (Metrics.mean_first_packet_latency single)
      && close (Metrics.mean_packet_latency ab)
           (Metrics.mean_packet_latency single)
      && close (Metrics.mean_stretch ab) (Metrics.mean_stretch single)
      && (not has_fct
         || close
              (Metrics.fct_percentile ab 0.5)
              (Metrics.fct_percentile single 0.5)))

let merge_topology_mismatch () =
  let other =
    Topology.build
      (Topo.Params.scaled ~pods:2 ~racks_per_pod:2 ~hosts_per_rack:2
         ~vms_per_host:2 ())
  in
  let a = Metrics.create mtopo (Rng.create 1)
  and b = Metrics.create other (Rng.create 1) in
  Alcotest.check_raises "different topologies rejected"
    (Invalid_argument "Metrics.merge: different topologies") (fun () ->
      ignore (Metrics.merge a b))

(* ------------------------------------------------------------------ *)
(* Differential: one logical run, classic single engine vs sharded.   *)

let params =
  Topo.Params.scaled ~pods:2 ~racks_per_pod:2 ~hosts_per_rack:2 ~vms_per_host:2
    ()

let num_vms topo =
  Array.length (Topology.hosts topo) * (Topology.params topo).Topo.Params.vms_per_host

let mk_scheme name topo =
  match name with
  | "switchv2p" ->
      fst (Schemes.Switchv2p_scheme.make_with_dataplane topo ~total_cache_slots:64)
  | "nocache" -> Schemes.Baselines.nocache ()
  | "direct" -> Schemes.Baselines.direct ()
  | "locallearning" ->
      fst (Schemes.Baselines.locallearning_with_cache ~topo ~total_slots:64)
  | _ -> invalid_arg name

(* Cross-pod-heavy reliable workload, light enough that nothing drops. *)
let gen_flows ~seed ~n topo =
  let vms = num_vms topo in
  let rng = Rng.create (seed lxor 0xd1ff) in
  List.init n (fun id ->
      let src = Rng.int rng vms in
      let dst = (src + (vms / 2) + Rng.int rng (vms / 2)) mod vms in
      let dst = if dst = src then (dst + 1) mod vms else dst in
      let packets = 3 + Rng.int rng 8 in
      Flow.make ~pkt_bytes:1500 ~id ~src_vip:(Vip.of_int src)
        ~dst_vip:(Vip.of_int dst) ~size_bytes:(packets * 1500)
        ~start:(Rng.int rng (Time_ns.of_ms 2))
        Flow.Tcpish)

let until = Time_ns.of_ms 40

let run_classic name ~flows ~migrations =
  let topo = Topology.build params in
  let net = Network.create topo ~scheme:(mk_scheme name topo) in
  Network.run net flows ~migrations ~until;
  net

let run_sharded name ~shards ~flows ~migrations =
  let topo = Topology.build params in
  Parnet.run ~shards topo
    ~fresh_scheme:(fun ~shard:_ -> mk_scheme name topo)
    ~flows ~migrations ~until

let final_mapping_of lookup topo =
  String.concat ";"
    (List.init (num_vms topo) (fun v ->
         Printf.sprintf "%d->%d" v (Pip.to_int (lookup (Vip.of_int v)))))

let check_same_outcome ~expect_misdelivery name net par =
  let check = Alcotest.check Alcotest.int in
  let m = Network.metrics net and pm = Parnet.metrics par in
  let n = Metrics.flows_started m in
  check (name ^ ": flows started") n (Metrics.flows_started pm);
  check (name ^ ": flows completed")
    (Metrics.flows_completed m)
    (Metrics.flows_completed pm);
  check (name ^ ": no drops (classic)") 0 (Metrics.packets_dropped m);
  check (name ^ ": no drops (sharded)") 0 (Metrics.packets_dropped pm);
  if not expect_misdelivery then begin
    check (name ^ ": no misdelivery (classic)") 0
      (Metrics.misdelivered_packets m);
    check (name ^ ": no misdelivery (sharded)") 0
      (Metrics.misdelivered_packets pm)
  end;
  (* conservation across the sharded run, mailboxes drained *)
  check (name ^ ": handoffs drained") 0 (Parnet.handoffs_in_flight par);
  check
    (name ^ ": sharded conservation")
    (Parnet.injected_packets par)
    (Metrics.delivered_packets pm
    + Metrics.packets_dropped pm
    + Parnet.consumed_at_switch par
    + Parnet.live_packets par);
  (* final mapping state identical on the classic net and every shard *)
  let topo = Network.topo net in
  let classic = final_mapping_of (Mapping.lookup (Network.mapping net)) topo in
  Array.iteri
    (fun s shard_net ->
      Alcotest.check Alcotest.string
        (Printf.sprintf "%s: final mapping, shard %d" name s)
        classic
        (final_mapping_of (Mapping.lookup (Network.mapping shard_net)) topo))
    (Parnet.nets par)

let diff_no_churn name () =
  let topo = Topology.build params in
  let flows = gen_flows ~seed:7 ~n:24 topo in
  let net = run_classic name ~flows ~migrations:[] in
  let par = run_sharded name ~shards:2 ~flows ~migrations:[] in
  check_same_outcome ~expect_misdelivery:false name net par;
  let m = Network.metrics net and pm = Parnet.metrics par in
  Alcotest.check Alcotest.int (name ^ ": delivered")
    (Metrics.delivered_packets m)
    (Metrics.delivered_packets pm);
  (* deterministic (non-learning) schemes agree on traffic volume too *)
  if name = "nocache" || name = "direct" then begin
    Alcotest.check Alcotest.int (name ^ ": packets sent")
      (Metrics.packets_sent m) (Metrics.packets_sent pm);
    Alcotest.check Alcotest.int (name ^ ": gateway packets")
      (Metrics.gateway_packets m)
      (Metrics.gateway_packets pm)
  end

(* Migrations cross shard boundaries mid-flow: completion counts,
   drops and the final mapping must still agree with the single-engine
   run (packet-level timing legitimately shifts by one lookahead on
   re-homed deliveries, so volumes are not compared). *)
let diff_with_migrations name () =
  let topo = Topology.build params in
  let vms = num_vms topo in
  let hosts = Topology.hosts topo in
  let flows = gen_flows ~seed:13 ~n:16 topo in
  let migrations =
    [
      {
        Network.at = Time_ns.of_ms 3;
        vip = Vip.of_int 0;
        to_host = hosts.(Array.length hosts - 1);
      };
      {
        Network.at = Time_ns.of_ms 5;
        vip = Vip.of_int (vms - 1);
        to_host = hosts.(0);
      };
    ]
  in
  let net = run_classic name ~flows ~migrations in
  let par = run_sharded name ~shards:2 ~flows ~migrations in
  check_same_outcome ~expect_misdelivery:true name net par

(* Fixed shard count => byte-identical replay, including under a DST
   fault plan (faults, churn, loss channels, reboots). *)
let determinism_fixed_shards () =
  List.iter
    (fun (shards, seed, scheme) ->
      let a = Dst.run_one ~shards ~seed ~scheme () in
      let b = Dst.run_one ~shards ~seed ~scheme () in
      Alcotest.check Alcotest.string
        (Printf.sprintf "%s seed %d @%d shards replays byte-identically"
           scheme seed shards)
        a.Dst.transcript b.Dst.transcript)
    [ (2, 11, "switchv2p"); (2, 3, "nocache"); (3, 7, "direct") ]

(* DST smoke at 2 shards: the full invariant suite (conservation with
   the mailbox term, stale delivery, liveness, occupancy) over fault
   seeds. *)
let dst_sharded_smoke () =
  let outcomes =
    Dst.run_seeds ~shards:2 ~schemes:[ "switchv2p"; "nocache" ]
      ~seeds:[ 1; 2 ] ()
  in
  List.iter
    (fun (o : Dst.outcome) ->
      List.iter
        (fun (inv, detail) ->
          Alcotest.failf "seed %d %s @2 shards violated %s: %s\nreplay: %s"
            o.Dst.seed o.Dst.scheme inv detail
            (Dst.replay_command ~seed:o.Dst.seed ~scheme:o.Dst.scheme))
        o.Dst.failures)
    outcomes;
  Alcotest.check Alcotest.int "all sharded DST runs pass" 0
    (List.length (Dst.failed outcomes))

(* Every shard would observe one collector from its own domain, per
   packet; the run refuses it up front. *)
let telemetry_rejected () =
  let topo = Topology.build params in
  let config =
    { Network.default_config with telemetry = Dessim.Telemetry.create () }
  in
  Alcotest.check_raises "enabled collector"
    (Invalid_argument "Parnet.run: telemetry is not supported in sharded runs")
    (fun () ->
      ignore
        (Parnet.run ~config ~shards:2 topo
           ~fresh_scheme:(fun ~shard:_ -> mk_scheme "direct" topo)
           ~flows:[] ~migrations:[] ~until))

let () =
  Alcotest.run "shard"
    [
      ("spsc", [ qtest spsc_fifo ]);
      ("next_at", [ qtest next_at_model ]);
      ( "metrics-merge",
        [
          qtest merge_split_equiv;
          Alcotest.test_case "topology mismatch" `Quick merge_topology_mismatch;
        ] );
      ( "differential",
        List.map
          (fun name ->
            Alcotest.test_case (name ^ " 1-shard == 2-shard") `Quick
              (diff_no_churn name))
          [ "switchv2p"; "nocache"; "direct"; "locallearning" ]
        @ List.map
            (fun name ->
              Alcotest.test_case (name ^ " with cross-shard migrations") `Quick
                (diff_with_migrations name))
            [ "nocache"; "direct" ] );
      ( "determinism",
        [ Alcotest.test_case "fixed shard count" `Quick determinism_fixed_shards ]
      );
      ("dst", [ Alcotest.test_case "sharded smoke" `Quick dst_sharded_smoke ]);
      ( "telemetry",
        [ Alcotest.test_case "enabled collector rejected" `Quick telemetry_rejected ]
      );
    ]
