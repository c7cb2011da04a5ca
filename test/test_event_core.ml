(* Byte-identical determinism guard for the event core.

   Runs two seeded end-to-end scenarios and renders every observable
   output — metrics (including the full drops kind×site matrix),
   per-switch byte counters, scheme stats, transport counters, engine
   event counts and the structured-telemetry JSON — into one canonical
   text dump, compared byte-for-byte against a checked-in golden file.

   The golden file was generated from the closure-based event loop
   that predates the typed-event/packet-pool rewrite; any change to
   the event seq tiebreak order, an RNG draw, or packet field handling
   shows up here as a diff. Regenerate (only when an intentional
   semantic change occurs) with:

     REPRO_WRITE_GOLDEN=$PWD/test/golden_event_core.txt \
       dune exec test/test_event_core.exe *)

module Network = Netsim.Network
module Metrics = Netsim.Metrics
module Transport = Netsim.Transport
module Time_ns = Dessim.Time_ns
module Telemetry = Dessim.Telemetry
module Flow = Netcore.Flow
module Vip = Netcore.Addr.Vip
module Topology = Topo.Topology
module Params = Topo.Params

let golden_path = "golden_event_core.txt"

let addf b fmt = Printf.ksprintf (Buffer.add_string b) fmt

(* %h (hex float) is exact; no decimal rounding ambiguity. *)
let fl v = Printf.sprintf "%h" v

let dump_metrics b (m : Metrics.t) topo =
  addf b "flows_started=%d\n" (Metrics.flows_started m);
  addf b "flows_completed=%d\n" (Metrics.flows_completed m);
  addf b "packets_sent=%d\n" (Metrics.packets_sent m);
  addf b "gateway_packets=%d\n" (Metrics.gateway_packets m);
  addf b "packets_dropped=%d\n" (Metrics.packets_dropped m);
  addf b "delivered_packets=%d\n" (Metrics.delivered_packets m);
  addf b "retransmits=%d\n" (Metrics.retransmits_sent m);
  List.iter
    (fun (k, n) -> addf b "drops_by_kind/%s=%d\n" k n)
    (Metrics.drops_by_kind m);
  List.iter
    (fun (s, n) -> addf b "drops_by_site/%s=%d\n" s n)
    (Metrics.drops_by_site m);
  addf b "hit_rate=%s\n" (fl (Metrics.hit_rate m));
  let c, s, t, g, h = Metrics.layer_hits m in
  addf b "layer_hits=%d,%d,%d,%d,%d\n" c s t g h;
  let c, s, t, g, h = Metrics.first_packet_layer_hits m in
  addf b "fp_layer_hits=%d,%d,%d,%d,%d\n" c s t g h;
  addf b "mean_fct=%s\n" (fl (Metrics.mean_fct m));
  if Metrics.flows_completed m > 0 then begin
    addf b "fct_p50=%s\n" (fl (Metrics.fct_percentile m 50.0));
    addf b "fct_p99=%s\n" (fl (Metrics.fct_percentile m 99.0))
  end;
  addf b "mean_fpl=%s\n" (fl (Metrics.mean_first_packet_latency m));
  addf b "mean_pkt_latency=%s\n" (fl (Metrics.mean_packet_latency m));
  addf b "mean_stretch=%s\n" (fl (Metrics.mean_stretch m));
  addf b "misdelivered=%d\n" (Metrics.misdelivered_packets m);
  (match Metrics.last_misdelivered_arrival m with
  | Some t -> addf b "last_misdelivered_arrival=%d\n" t
  | None -> addf b "last_misdelivered_arrival=none\n");
  addf b "total_switch_bytes=%d\n" (Metrics.total_switch_bytes m);
  Array.iter
    (fun sw -> addf b "switch_bytes/%d=%d\n" sw (Metrics.bytes_of_switch m sw))
    (Topology.switches topo)

let dump_network b ~name net (scheme : Netsim.Scheme.t) =
  addf b "== scenario %s ==\n" name;
  dump_metrics b (Network.metrics net) (Network.topo net);
  let tr = Network.transport net in
  addf b "transport_completed=%d\n" (Transport.flows_completed tr);
  addf b "transport_reordering=%d\n" (Transport.reordering_events tr);
  List.iter
    (fun (k, v) -> addf b "scheme/%s=%s\n" k (fl v))
    (scheme.Netsim.Scheme.stats ());
  let eng = Network.engine net in
  addf b "engine_now=%d\n" (Dessim.Engine.now eng);
  addf b "engine_executed=%d\n" (Dessim.Engine.executed eng);
  addf b "engine_pending=%d\n" (Dessim.Engine.pending eng)

(* Scenario A: SwitchV2P on a small FatTree with slow host links and a
   low ECN step threshold (so DCTCP reacts to real CE marks), a Hadoop
   TCP workload, two VM migrations (misdelivery + invalidation paths)
   and full telemetry (histograms, series, flight recorder). *)
let scenario_switchv2p b =
  let params =
    {
      (Params.scaled ~pods:2 ~racks_per_pod:2 ~hosts_per_rack:2 ~vms_per_host:4
         ~host_link_bps:2e9 ())
      with
      ecn_threshold_bytes = Some 3000;
    }
  in
  let topo = Topology.build params in
  let slots = 16 * Array.length (Topology.switches topo) in
  let scheme, _dp =
    Schemes.Switchv2p_scheme.make_with_dataplane topo ~total_cache_slots:slots
  in
  let telemetry =
    Telemetry.create ~sample_interval:(Time_ns.of_us 500)
      ~flight_sample_every:8 ()
  in
  let config =
    {
      Network.default_config with
      transport_mode = Transport.Dctcp;
      telemetry;
    }
  in
  let net = Network.create ~config topo ~scheme in
  let num_vms = Network.num_vms net in
  let agg_bps =
    float_of_int (Params.num_hosts params) *. params.Params.host_link_bps
  in
  let flows =
    Workloads.Tracegen.hadoop (Dessim.Rng.create 123) ~num_vms ~num_flows:60
      ~load:0.2 ~agg_bps
  in
  let hosts = Topology.hosts topo in
  let migrations =
    [
      { Network.at = Time_ns.of_ms 2; vip = Vip.of_int 8; to_host = hosts.(0) };
      { Network.at = Time_ns.of_ms 5; vip = Vip.of_int 1; to_host = hosts.(5) };
    ]
  in
  Network.run net flows ~migrations ~until:(Time_ns.of_ms 20);
  dump_network b ~name:"switchv2p" net scheme;
  let json =
    Telemetry.to_json telemetry
      ~manifest:(Telemetry.Json.Obj [ ("scenario", Telemetry.Json.Str "switchv2p-golden") ])
      ~extra:[]
  in
  addf b "telemetry=%s\n" (Telemetry.Json.to_string json)

(* Scenario B: gateway-only baseline under a UDP incast on 1G host
   links with 3-MTU buffers — guaranteed link_buffer drops (the
   packet-drop recycling path) and CE marks from a 1-MTU threshold. *)
let scenario_incast b =
  let params =
    {
      (Params.scaled ~pods:2 ~racks_per_pod:2 ~hosts_per_rack:2 ~vms_per_host:2
         ~host_link_bps:1e9 ~buffer_bytes:4500 ())
      with
      ecn_threshold_bytes = Some 1500;
    }
  in
  let topo = Topology.build params in
  let scheme = Schemes.Baselines.nocache () in
  let net =
    Network.create topo ~scheme
  in
  let flows =
    Workloads.Tracegen.incast (Dessim.Rng.create 77)
      ~num_vms:(Network.num_vms net) ~senders:6 ~dst_vip:(Vip.of_int 0)
      ~packets_per_sender:40 ~packet_bytes:1500 ~duration:(Time_ns.of_us 10)
  in
  Network.run net flows ~migrations:[] ~until:(Time_ns.of_ms 10);
  dump_network b ~name:"incast" net scheme

(* Scenario C (separate golden file): a handcrafted fault plan
   exercising every fault kind on SwitchV2P — a bidirectional link
   down/up window (ECMP fallback), Bernoulli and Gilbert-Elliott loss
   windows, a one-shot corruption, a switch failure (cache wipe), a
   gateway outage window and a churn batch. Locks the typed fault
   events, the fault RNG stream and the recovery paths byte-for-byte.
   Regenerate with:

     REPRO_WRITE_GOLDEN_FAULTS=$PWD/test/golden_faults.txt \
       dune exec test/test_event_core.exe *)
let scenario_faults b =
  let module Fault = Dessim.Fault in
  let params =
    Params.scaled ~pods:2 ~racks_per_pod:2 ~hosts_per_rack:2 ~vms_per_host:2 ()
  in
  let topo = Topology.build params in
  let scheme, _dp =
    Schemes.Switchv2p_scheme.make_with_dataplane topo ~total_cache_slots:64
  in
  let net =
    Network.create
      ~config:{ Network.default_config with Network.seed = 4242 }
      topo ~scheme
  in
  let pairs = Netsim.Faultplan.fabric_pairs topo in
  let a0, b0 = pairs.(0) and a1, b1 = pairs.(1) and a2, b2 = pairs.(2) in
  let sw0 = (Topology.switches topo).(0) in
  let gw = (Topology.gateways topo).(0) in
  let ms = Time_ns.of_ms in
  let spec at action = { Fault.at; action } in
  let plan =
    {
      Fault.seed = 2026;
      specs =
        Fault.sort_specs
          [|
            spec (ms 1) (Fault.Link_down (a0, b0));
            spec (ms 1) (Fault.Link_down (b0, a0));
            spec (ms 6) (Fault.Link_up (a0, b0));
            spec (ms 6) (Fault.Link_up (b0, a0));
            spec (ms 2) (Fault.Set_loss (a1, b1, Fault.Bernoulli 0.05));
            spec (ms 7) (Fault.Set_loss (a1, b1, Fault.No_loss));
            spec (ms 2)
              (Fault.Set_loss
                 ( a2,
                   b2,
                   Fault.Gilbert_elliott
                     {
                       Fault.p_enter_bad = 0.05;
                       p_exit_bad = 0.4;
                       loss_good = 0.0;
                       loss_bad = 0.5;
                     } ));
            spec (ms 8) (Fault.Set_loss (a2, b2, Fault.No_loss));
            spec (ms 3) (Fault.Corrupt_next (a1, b1));
            spec (ms 4) (Fault.Switch_fail sw0);
            spec (ms 5) (Fault.Gateway_down gw);
            spec (ms 9) (Fault.Gateway_up gw);
            spec (ms 5) (Fault.Churn 3);
          |];
    }
  in
  Network.install_faults net plan;
  let num_vms = Network.num_vms net in
  let flows =
    List.init 24 (fun id ->
        Flow.make ~pkt_bytes:1500 ~id
          ~src_vip:(Vip.of_int (id mod num_vms))
          ~dst_vip:(Vip.of_int (((id * 5) + 3) mod num_vms))
          ~size_bytes:(8 * 1500)
          ~start:(Time_ns.of_us (id * 250))
          Flow.Tcpish)
  in
  Network.run net flows ~migrations:[] ~until:(ms 30);
  dump_network b ~name:"faults" net scheme;
  addf b "plan=%s\n" (Fault.to_string plan);
  List.iter
    (fun (k, v) -> addf b "fault_count/%s=%d\n" k v)
    (Network.fault_counts net);
  addf b "injected=%d consumed=%d live=%d\n"
    (Network.injected_packets net)
    (Network.consumed_at_switch net)
    (Network.live_packets net)

let render () =
  let b = Buffer.create (1 lsl 16) in
  scenario_switchv2p b;
  scenario_incast b;
  Buffer.contents b

let render_faults () =
  let b = Buffer.create 4096 in
  scenario_faults b;
  Buffer.contents b

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let first_diff a b =
  let la = String.split_on_char '\n' a and lb = String.split_on_char '\n' b in
  let rec go i la lb =
    match (la, lb) with
    | [], [] -> None
    | x :: la, y :: lb -> if String.equal x y then go (i + 1) la lb else Some (i, x, y)
    | x :: _, [] -> Some (i, x, "<missing>")
    | [], y :: _ -> Some (i, "<missing>", y)
  in
  go 1 la lb

let check_golden ~env_var ~path ~what got =
  match Sys.getenv_opt env_var with
  | Some out ->
      let oc = open_out_bin out in
      output_string oc got;
      close_out oc;
      Printf.printf "golden written to %s (%d bytes)\n" out (String.length got)
  | None ->
      let want = read_file path in
      if not (String.equal got want) then begin
        (match first_diff want got with
        | Some (line, w, g) ->
            Alcotest.failf
              "%s output diverged from golden at line %d:\n\
              \  golden: %s\n\
              \  got:    %s"
              what line w g
        | None -> Alcotest.fail "length mismatch with identical lines?")
      end

let test_byte_identical () =
  check_golden ~env_var:"REPRO_WRITE_GOLDEN" ~path:golden_path
    ~what:"event core" (render ())

let test_faults_byte_identical () =
  check_golden ~env_var:"REPRO_WRITE_GOLDEN_FAULTS" ~path:"golden_faults.txt"
    ~what:"fault scenario" (render_faults ())

let () =
  Alcotest.run "event_core"
    [
      ( "determinism",
        [
          Alcotest.test_case "byte-identical golden run (heap)" `Quick
            test_byte_identical;
          Alcotest.test_case "byte-identical fault-plan run (heap)" `Quick
            test_faults_byte_identical;
        ] );
    ]
