module Engine = Dessim.Engine
module Fault = Dessim.Fault
module Rng = Dessim.Rng
module Time_ns = Dessim.Time_ns
module Flow = Netcore.Flow
module Vip = Netcore.Addr.Vip
module Cache = Switchv2p.Cache
module Topology = Topo.Topology
module Network = Netsim.Network
module Metrics = Netsim.Metrics

type outcome = {
  seed : int;
  scheme : string;
  plan : string;
  transcript : string;
  failures : (string * string) list;
}

let all_schemes = [ "switchv2p"; "nocache"; "direct"; "locallearning"; "gwcache" ]
let default_schemes = [ "switchv2p"; "nocache"; "locallearning" ]

(* Fixed harness geometry: a 2-pod FatTree with 2 spines/pod and 2
   cores/group so every ECMP choice has a surviving sibling, small
   enough that one run takes milliseconds. *)
let params =
  Topo.Params.scaled ~pods:2 ~racks_per_pod:2 ~hosts_per_rack:2 ~vms_per_host:2
    ()

let total_slots = 64
let num_flows = 30
let start_window = Time_ns.of_ms 5
let fault_horizon = Time_ns.of_ms 20
let run_until = Time_ns.of_ms 60

(* Every cache-bearing scheme pairs its Scheme.t with an occupancy
   auditor; the auditor returns one message per switch whose cache
   exceeds its slot budget. *)
let check_cache ~switch c acc =
  let occ = Cache.occupancy c and slots = Cache.slots c in
  if occ > slots then
    Printf.sprintf "switch %d: occupancy %d > slots %d" switch occ slots :: acc
  else acc

let scheme_with_occupancy name topo =
  match name with
  | "switchv2p" ->
      let s, dp =
        Schemes.Switchv2p_scheme.make_with_dataplane topo
          ~total_cache_slots:total_slots
      in
      ( s,
        fun () ->
          Array.fold_left
            (fun acc sw ->
              check_cache ~switch:sw (Switchv2p.Dataplane.cache dp ~switch:sw) acc)
            []
            (Topology.switches topo) )
  | "nocache" -> (Schemes.Baselines.nocache (), fun () -> [])
  | "direct" -> (Schemes.Baselines.direct (), fun () -> [])
  | "locallearning" | "gwcache" ->
      let s, lc =
        if name = "locallearning" then
          Schemes.Baselines.locallearning_with_cache ~topo
            ~total_slots
        else Schemes.Baselines.gwcache_with_cache ~topo ~total_slots
      in
      ( s,
        fun () ->
          Array.fold_left
            (fun acc sw ->
              match Schemes.Learning_cache.cache lc ~switch:sw with
              | None -> acc
              | Some c -> check_cache ~switch:sw c acc)
            []
            (Topology.switches topo) )
  | _ -> invalid_arg (Printf.sprintf "Dst: unknown scheme %S" name)

(* The workload is derived from the same seed as the fault plan but on
   an independent stream: reliable flows only (UDP never retransmits,
   so it cannot promise liveness under loss). *)
let gen_flows ~seed ~num_vms =
  let rng = Rng.create ((seed * 0x1000193) lxor 0x7ea) in
  List.init num_flows (fun id ->
      let src = Rng.int rng num_vms in
      let dst = (src + 1 + Rng.int rng (num_vms - 1)) mod num_vms in
      let packets = 4 + Rng.int rng 12 in
      Flow.make ~pkt_bytes:1500 ~id ~src_vip:(Vip.of_int src)
        ~dst_vip:(Vip.of_int dst) ~size_bytes:(packets * 1500)
        ~start:(Rng.int rng start_window)
        Flow.Tcpish)

let check_invariants ?(strict_liveness = true) net flows occupancy =
  let m = Network.metrics net in
  let tr = Network.transport net in
  let failures = ref [] in
  let fail inv fmt =
    Printf.ksprintf (fun d -> failures := (inv, d) :: !failures) fmt
  in
  (* 1: packet conservation. *)
  let injected = Network.injected_packets net in
  let delivered = Metrics.delivered_packets m in
  let dropped = Metrics.packets_dropped m in
  let consumed = Network.consumed_at_switch net in
  let live = Network.live_packets net in
  if injected <> delivered + dropped + consumed + live then
    fail "packet-conservation"
      "injected %d <> delivered %d + dropped %d + consumed %d + in-flight %d"
      injected delivered dropped consumed live;
  (* 2: no flow ends with a stale delivery count. *)
  List.iter
    (fun (f : Flow.t) ->
      let total = Flow.packet_count f in
      let got = Netsim.Transport.received_distinct tr ~flow_id:f.Flow.id in
      let done_ = Netsim.Transport.receiver_done tr ~flow_id:f.Flow.id in
      if got > total then
        fail "stale-delivery" "flow %d: %d distinct packets for a %d-packet flow"
          f.Flow.id got total;
      if done_ <> (got = total) then
        fail "stale-delivery" "flow %d: done=%b but %d/%d packets received"
          f.Flow.id done_ got total)
    flows;
  (* 3: liveness — every fault heals before the horizon, so every flow
     must complete. *)
  let started = Metrics.flows_started m in
  let completed = Metrics.flows_completed m in
  let expected = List.length flows in
  if started <> expected then
    fail "liveness" "only %d of %d flows started" started expected;
  if strict_liveness && completed <> expected then
    fail "liveness" "%d of %d flows completed by the horizon" completed expected;
  if Netsim.Transport.flows_completed tr <> completed then
    fail "liveness" "transport completed %d flows but metrics recorded %d"
      (Netsim.Transport.flows_completed tr)
      completed;
  (* 4: cache occupancy within capacity. *)
  List.iter (fun d -> fail "cache-occupancy" "%s" d) (occupancy ());
  List.rev !failures

let transcript_of net ~seed ~scheme ~plan_str =
  let m = Network.metrics net in
  let b = Buffer.create 512 in
  let addf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  addf "dst seed=%d scheme=%s\n" seed scheme;
  addf "plan %s\n" plan_str;
  addf "engine executed=%d now=%d\n"
    (Engine.executed (Network.engine net))
    (Engine.now (Network.engine net));
  addf "injected=%d delivered=%d dropped=%d consumed=%d live=%d\n"
    (Network.injected_packets net)
    (Metrics.delivered_packets m)
    (Metrics.packets_dropped m)
    (Network.consumed_at_switch net)
    (Network.live_packets net);
  addf "flows started=%d completed=%d retransmits=%d misdelivered=%d\n"
    (Metrics.flows_started m) (Metrics.flows_completed m)
    (Metrics.retransmits_sent m)
    (Metrics.misdelivered_packets m);
  addf "hit_rate=%h\n" (Metrics.hit_rate m);
  List.iter (fun (k, v) -> addf "drop site=%s %d\n" k v) (Metrics.drops_by_site m);
  List.iter (fun (k, v) -> addf "drop kind=%s %d\n" k v) (Metrics.drops_by_kind m);
  List.iter (fun (k, v) -> addf "fault %s=%d\n" k v) (Network.fault_counts net);
  Buffer.contents b

(* Sharded variants of the invariants and transcript: the quantities
   aggregate across the per-shard networks (a flow's receiver lives on
   exactly one shard, so transport sums see each flow once), and
   conservation gains the cross-shard mailbox term. *)
let check_invariants_sharded par flows occupancies =
  let m = Netsim.Parnet.metrics par in
  let nets = Netsim.Parnet.nets par in
  let failures = ref [] in
  let fail inv fmt =
    Printf.ksprintf (fun d -> failures := (inv, d) :: !failures) fmt
  in
  let injected = Netsim.Parnet.injected_packets par in
  let delivered = Metrics.delivered_packets m in
  let dropped = Metrics.packets_dropped m in
  let consumed = Netsim.Parnet.consumed_at_switch par in
  let live = Netsim.Parnet.live_packets par in
  let in_hand = Netsim.Parnet.handoffs_in_flight par in
  if injected <> delivered + dropped + consumed + live + in_hand then
    fail "packet-conservation"
      "injected %d <> delivered %d + dropped %d + consumed %d + in-flight %d \
       + handoffs %d"
      injected delivered dropped consumed live in_hand;
  List.iter
    (fun (f : Flow.t) ->
      let total = Flow.packet_count f in
      let got =
        Array.fold_left
          (fun acc net ->
            acc
            + Netsim.Transport.received_distinct (Network.transport net)
                ~flow_id:f.Flow.id)
          0 nets
      in
      let done_ =
        Array.exists
          (fun net ->
            Netsim.Transport.receiver_done (Network.transport net)
              ~flow_id:f.Flow.id)
          nets
      in
      if got > total then
        fail "stale-delivery" "flow %d: %d distinct packets for a %d-packet flow"
          f.Flow.id got total;
      if done_ <> (got = total) then
        fail "stale-delivery" "flow %d: done=%b but %d/%d packets received"
          f.Flow.id done_ got total)
    flows;
  let started = Metrics.flows_started m in
  let completed = Metrics.flows_completed m in
  let expected = List.length flows in
  if started <> expected then
    fail "liveness" "only %d of %d flows started" started expected;
  if completed <> expected then
    fail "liveness" "%d of %d flows completed by the horizon" completed expected;
  if Netsim.Parnet.transport_flows_completed par <> completed then
    fail "liveness" "transport completed %d flows but metrics recorded %d"
      (Netsim.Parnet.transport_flows_completed par)
      completed;
  List.iter
    (fun occupancy -> List.iter (fun d -> fail "cache-occupancy" "%s" d) (occupancy ()))
    occupancies;
  List.rev !failures

let transcript_of_sharded par ~seed ~scheme ~plan_str =
  let m = Netsim.Parnet.metrics par in
  let nets = Netsim.Parnet.nets par in
  let b = Buffer.create 512 in
  let addf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  addf "dst seed=%d scheme=%s shards=%d\n" seed scheme
    (Netsim.Parnet.shards par);
  addf "plan %s\n" plan_str;
  let executed =
    Array.fold_left
      (fun acc net -> acc + Engine.executed (Network.engine net))
      0 nets
  in
  let now =
    Array.fold_left
      (fun acc net -> max acc (Engine.now (Network.engine net)))
      0 nets
  in
  addf "engine executed=%d now=%d windows=%d\n" executed now
    (Netsim.Parnet.windows par);
  addf "injected=%d delivered=%d dropped=%d consumed=%d live=%d handoffs=%d\n"
    (Netsim.Parnet.injected_packets par)
    (Metrics.delivered_packets m)
    (Metrics.packets_dropped m)
    (Netsim.Parnet.consumed_at_switch par)
    (Netsim.Parnet.live_packets par)
    (Netsim.Parnet.handoffs_in_flight par);
  addf "flows started=%d completed=%d retransmits=%d misdelivered=%d\n"
    (Metrics.flows_started m) (Metrics.flows_completed m)
    (Metrics.retransmits_sent m)
    (Metrics.misdelivered_packets m);
  addf "hit_rate=%h\n" (Metrics.hit_rate m);
  List.iter (fun (k, v) -> addf "drop site=%s %d\n" k v) (Metrics.drops_by_site m);
  List.iter (fun (k, v) -> addf "drop kind=%s %d\n" k v) (Metrics.drops_by_kind m);
  List.iter (fun (k, v) -> addf "fault %s=%d\n" k v) (Netsim.Parnet.fault_counts par);
  Buffer.contents b

let run_one ?(shards = 1) ~seed ~scheme () =
  let topo = Topology.build params in
  let plan = Netsim.Faultplan.generate ~seed ~horizon:fault_horizon topo in
  let plan_str = Fault.to_string plan in
  let config = { Network.default_config with Network.seed } in
  let num_vms =
    Array.length (Topology.hosts topo) * params.Topo.Params.vms_per_host
  in
  let flows = gen_flows ~seed ~num_vms in
  if shards <= 1 then begin
    let s, occupancy = scheme_with_occupancy scheme topo in
    let net = Network.create ~config topo ~scheme:s in
    Netsim.Faultplan.apply net plan;
    Network.run net flows ~migrations:[] ~until:run_until;
    {
      seed;
      scheme;
      plan = plan_str;
      transcript = transcript_of net ~seed ~scheme ~plan_str;
      failures = check_invariants net flows occupancy;
    }
  end
  else begin
    let occupancies = ref [] in
    let fresh_scheme ~shard:_ =
      let s, occ = scheme_with_occupancy scheme topo in
      occupancies := occ :: !occupancies;
      s
    in
    let par =
      Netsim.Parnet.run ~config ~faults:plan ~shards topo ~fresh_scheme ~flows
        ~migrations:[] ~until:run_until
    in
    {
      seed;
      scheme;
      plan = plan_str;
      transcript = transcript_of_sharded par ~seed ~scheme ~plan_str;
      failures = check_invariants_sharded par flows !occupancies;
    }
  end

(* --- churn DST: container-overlay churn episodes --- *)

module Churn = Workloads.Container_churn

(* The episode is derived from the seed alone: kind cycles through the
   three envelopes, rate/batch come from an independent stream. Every
   quantity stays small enough that one run takes milliseconds. *)
let churn_episode ~seed =
  let rng = Rng.create ((seed * 0x9e3779b1) lxor 0xc4) in
  let kind =
    match seed mod 3 with
    | 0 -> Churn.Cold_start
    | 1 -> Churn.Serverless
    | _ -> Churn.Migration_storm
  in
  let rate = 500.0 +. float_of_int (Rng.int rng 4000) in
  let batch = 1 + Rng.int rng 7 in
  Churn.make ~start:(Time_ns.of_ms 2) ~kind ~rate ~duration:(Time_ns.of_ms 15)
    ~batch ()

let run_churn ?(scheme = "switchv2p") ~seed () =
  let topo = Topology.build params in
  let episode = churn_episode ~seed in
  let plan =
    {
      Fault.seed;
      specs = Fault.sort_specs (Array.of_list (Churn.churn_specs episode));
    }
  in
  let plan_str = Fault.to_string plan in
  let config = { Network.default_config with Network.seed } in
  let num_vms =
    Array.length (Topology.hosts topo) * params.Topo.Params.vms_per_host
  in
  let flows = gen_flows ~seed ~num_vms in
  let s, occupancy = scheme_with_occupancy scheme topo in
  let net = Network.create ~config topo ~scheme:s in
  Network.install_faults net plan;
  Network.run net flows ~migrations:[] ~until:run_until;
  (* Churn remaps endpoints mid-flight: conservation, stale-delivery
     and occupancy must hold unconditionally, and every scheduled batch
     must fire, but completion-by-horizon is not promised (a remap can
     leave a tail of retransmissions past the horizon). *)
  let failures = check_invariants ~strict_liveness:false net flows occupancy in
  let fired =
    Option.value ~default:0 (List.assoc_opt "churn" (Network.fault_counts net))
  in
  let expected_batches = Churn.num_batches episode in
  let failures =
    if fired <> expected_batches then
      failures
      @ [
          ( "churn-accounting",
            Printf.sprintf "%d churn batches fired, episode schedules %d"
              fired expected_batches );
        ]
    else failures
  in
  let transcript =
    transcript_of net ~seed ~scheme ~plan_str
    ^ Printf.sprintf "churn kind=%s batches=%d mappings=%d\n"
        (Churn.kind_name episode.Churn.kind)
        expected_batches
        (Churn.total_mappings episode)
  in
  { seed; scheme; plan = plan_str; transcript; failures }

let run_seeds ?shards ~schemes ~seeds () =
  List.concat_map
    (fun scheme ->
      List.map (fun seed -> run_one ?shards ~seed ~scheme ()) seeds)
    schemes

let failed outcomes = List.filter (fun o -> o.failures <> []) outcomes

let replay_command ~seed ~scheme =
  Printf.sprintf "dune exec bin/switchv2p_sim.exe -- dst --seed %d --scheme %s"
    seed scheme

let pp_failure ppf o =
  Format.fprintf ppf "DST FAILURE seed=%d scheme=%s@." o.seed o.scheme;
  List.iter
    (fun (inv, detail) -> Format.fprintf ppf "  [%s] %s@." inv detail)
    o.failures;
  Format.fprintf ppf "  replay: %s@." (replay_command ~seed:o.seed ~scheme:o.scheme)
