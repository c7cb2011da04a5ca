(* One trial: set a workload up several times, run the last set-up to
   its horizon, measure, and check the simulated outputs. Untraced
   trials give the end-to-end numbers; a traced trial also wraps the
   scheme (see [Probe]) and yields the per-layer numbers. *)

module Spec = Netsim.Scenario
module Network = Netsim.Network
module Metrics = Netsim.Metrics
module Engine = Dessim.Engine
module Json = Dessim.Telemetry.Json

(* Set-up is milliseconds on the FT8 workloads, so one sample per
   process is mostly noise; the trial reports the median of these. *)
let setup_reps = 5

type result = {
  traced : bool;
  sched : string;
  digest : string;
      (** simulated outputs that every trial of a workload must repeat *)
  errors : string list;  (** failed output checks; empty when correct *)
  e2e : (string * float) list;  (** every [Catalog.end_to_end] metric *)
  layers : (string * float) list;
      (** traced only: every [Catalog.per_layer] metric except
          [trace.overhead], which needs the untraced trials *)
  spans : Json.t;  (** traced only *)
}

let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.0
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let rec go () =
            match input_line ic with
            | exception End_of_file -> 0.0
            | line -> (
                match String.split_on_char ':' line with
                | [ "VmHWM"; v ] -> (
                    match String.split_on_char ' ' (String.trim v) with
                    | kb :: _ -> float_of_string kb /. 1024.0
                    | [] -> 0.0)
                | _ -> go ())
          in
          go ())

type built = {
  net : Network.t;
  flows : Netcore.Flow.t list;
  until : Dessim.Time_ns.t;
  scheme : Netsim.Scheme.t;
}

(* One set-up, phase by phase: topology, flows, scheme, network (with
   the fault plan installed). Phase durations land in [phases]. *)
let build spec ~wrap phases =
  let t0 = Clock.now_ns () in
  let topo = Topo.Topology.build (Spec.params_of spec) in
  let t1 = Clock.now_ns () in
  let flows = Spec.flows spec in
  let until = Spec.horizon spec ~flows in
  let t2 = Clock.now_ns () in
  let setup =
    {
      Experiments.Setup.topo;
      num_vms = Spec.num_vms spec;
      agg_bps = Spec.agg_bps spec;
      seed = spec.Spec.topo.Spec.topo_seed;
    }
  in
  let scheme =
    wrap (Experiments.Scenario.build_scheme spec setup (List.hd spec.Spec.schemes))
  in
  let t3 = Clock.now_ns () in
  let net = Network.create ~config:(Spec.net_config spec) topo ~scheme in
  Option.iter (Network.install_faults net) (Spec.fault_plan spec topo ~until);
  let t4 = Clock.now_ns () in
  phases.(0) <- t1 - t0;
  phases.(1) <- t2 - t1;
  phases.(2) <- t3 - t2;
  phases.(3) <- t4 - t3;
  { net; flows; until; scheme }

let checks (b : built) =
  let m = Network.metrics b.net in
  let injected = Network.injected_packets b.net in
  let delivered = Metrics.delivered_packets m
  and dropped = Metrics.packets_dropped m
  and consumed = Network.consumed_at_switch b.net
  and live = Network.live_packets b.net in
  let flows = List.length b.flows in
  List.filter_map Fun.id
    [
      (if injected <> delivered + dropped + consumed + live then
         Some
           (Printf.sprintf
              "conservation: injected %d <> delivered %d + dropped %d + \
               consumed %d + live %d"
              injected delivered dropped consumed live)
       else None);
      (if Metrics.flows_started m <> flows then
         Some
           (Printf.sprintf "flows_started %d <> %d flows in the trace"
              (Metrics.flows_started m) flows)
       else None);
      (if Metrics.flows_completed m = 0 then Some "no flow completed" else None);
    ]

let run ~traced spec =
  let probe = if traced then Some (Probe.create ()) else None in
  let wrap = match probe with Some p -> Probe.wrap p | None -> Fun.id in
  let setup_s = ref [] in
  let rec setups i =
    let phases = Array.make 4 0 in
    let b = build spec ~wrap phases in
    setup_s := (float_of_int (Array.fold_left ( + ) 0 phases) /. 1e9) :: !setup_s;
    Option.iter
      (fun (p : Probe.t) ->
        Probe.record p.setup_topo phases.(0);
        Probe.record p.setup_workload phases.(1);
        Probe.record p.setup_scheme phases.(2);
        Probe.record p.setup_network phases.(3))
      probe;
    if i < setup_reps then begin
      Gc.full_major ();
      setups (i + 1)
    end
    else b
  in
  let b = setups 1 in
  let engine = Network.engine b.net in
  let gc0 = Gc.quick_stat () in
  let t0 = Clock.now_ns () in
  Network.run b.net b.flows ~migrations:[] ~until:b.until;
  let run_ns = Clock.now_ns () - t0 in
  let gc1 = Gc.quick_stat () in
  let rss = peak_rss_mb () in
  let m = Network.metrics b.net in
  let errors = checks b in
  let events = max 1 (Engine.executed engine) in
  let fevents = float_of_int events in
  let run_s = float_of_int run_ns /. 1e9 in
  let completed = Metrics.flows_completed m in
  let fct p = if completed = 0 then 0.0 else Metrics.fct_percentile m p in
  let minor_words = (gc1.Gc.minor_words -. gc0.Gc.minor_words) /. fevents in
  let digest =
    Printf.sprintf "events=%d sent=%d gw=%d hit=%h p50=%h p99=%h" events
      (Metrics.packets_sent m) (Metrics.gateway_packets m) (Metrics.hit_rate m)
      (fct 50.0) (fct 99.0)
  in
  let e2e =
    [
      ("run_s", run_s);
      ("events_per_s", fevents /. run_s);
      ("setup_s", Stats.median !setup_s);
      ("peak_rss_mb", rss);
      ("alloc_words_per_event", minor_words);
      ("hit_rate", Metrics.hit_rate m);
      ("fct_p50_us", fct 50.0 *. 1e6);
      ("fct_p99_us", fct 99.0 *. 1e6);
      ("fpl_mean_us", Metrics.mean_first_packet_latency m *. 1e6);
      ( "flows_completed_frac",
        float_of_int completed
        /. float_of_int (max 1 (Metrics.flows_started m)) );
    ]
  in
  let layers, spans =
    match probe with
    | None -> ([], Json.Null)
    | Some p ->
        Probe.record p.run run_ns;
        let pending_mean = Probe.pending_mean p in
        let hold_ns =
          Probe.hold_ns_per_event ~pending:pending_mean
            ~mean_delay_ns:(pending_mean *. float_of_int b.until /. fevents)
            ~events:(min events 2_000_000)
        in
        let route_ns = Probe.routing_ns_per_next_hop p (Network.topo b.net) in
        let pipeline_s = Probe.seconds p.pipeline
        and resolve_s = Probe.seconds p.resolve in
        let stats = b.scheme.Netsim.Scheme.stats () in
        let count n = float_of_int n in
        ( [
            ("topo.build_s", Probe.mean_seconds p.setup_topo);
            ("workloads.gen_s", Probe.mean_seconds p.setup_workload);
            ("workloads.flows", count (List.length b.flows));
            ("schemes.build_s", Probe.mean_seconds p.setup_scheme);
            ("netsim.create_s", Probe.mean_seconds p.setup_network);
            ("netsim.pipeline.calls", count p.pipeline.count);
            ("netsim.pipeline.self_s", pipeline_s);
            ( "netsim.pipeline.ns_per_call",
              float_of_int p.pipeline.total_ns
              /. float_of_int (max 1 p.pipeline.count) );
            ("netsim.pipeline.share", pipeline_s /. run_s);
            ("schemes.resolve_at_host.calls", count p.resolve.count);
            ("schemes.resolve_at_host.self_s", resolve_s);
            ("schemes.on_mapping_update.calls", count p.mapping_updates);
            ("schemes.on_misdelivery.calls", count p.misdeliveries);
          ]
          @ List.map
              (fun k ->
                ( "schemes.stats." ^ k,
                  Option.value (List.assoc_opt k stats) ~default:0.0 ))
              Catalog.scheme_stats
          @ [
              ("sim.engine.events", fevents);
              ("sim.engine.pending_mean", pending_mean);
              ("sim.engine.pending_max", count p.pending_max);
              ("sim.engine.hold_ns_per_event", hold_ns);
              ("topo.routing.ns_per_next_hop", route_ns);
              ("gc.minor_words_per_event", minor_words);
              ( "gc.minor_collections",
                count (gc1.Gc.minor_collections - gc0.Gc.minor_collections) );
              ( "gc.major_collections",
                count (gc1.Gc.major_collections - gc0.Gc.major_collections) );
              ( "gc.promoted_words",
                gc1.Gc.promoted_words -. gc0.Gc.promoted_words );
              ("netsim.metrics.packets_sent", count (Metrics.packets_sent m));
              ( "netsim.metrics.gateway_packets",
                count (Metrics.gateway_packets m) );
              ("netsim.metrics.delivered", count (Metrics.delivered_packets m));
              ("netsim.metrics.dropped", count (Metrics.packets_dropped m));
              ("netsim.metrics.retransmits", count (Metrics.retransmits_sent m));
              ( "netsim.metrics.misdelivered",
                count (Metrics.misdelivered_packets m) );
              ( "netsim.transport.reordering_events",
                count
                  (Netsim.Transport.reordering_events (Network.transport b.net))
              );
              ( "netsim.unattributed_s",
                run_s -. pipeline_s -. resolve_s
                -. (route_ns *. float_of_int p.routed /. 1e9)
                -. (hold_ns *. fevents /. 1e9) );
              ("trace.empty_span_ns", Probe.empty_span_ns ());
            ],
          Probe.spans_json p )
  in
  {
    traced;
    sched = Engine.sched_name (Engine.sched engine);
    digest;
    errors;
    e2e;
    layers;
    spans;
  }

(* Completes a traced trial's layer metrics with the tracing overhead:
   its [run_s] against the untraced trials' median. *)
let with_overhead layers ~run_s ~untraced_run_s =
  layers @ [ ("trace.overhead", (run_s /. untraced_run_s) -. 1.0) ]

(* --- the child-process wire form ------------------------------------ *)

let floats kvs = Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) kvs)

let to_json r =
  Json.Obj
    [
      ("traced", Json.Bool r.traced);
      ("sched", Json.Str r.sched);
      ("digest", Json.Str r.digest);
      ("errors", Json.List (List.map (fun e -> Json.Str e) r.errors));
      ("e2e", floats r.e2e);
      ("layers", floats r.layers);
      ("spans", r.spans);
    ]

let of_json j =
  let field k = Json.member k j in
  let str k = match field k with Some (Json.Str s) -> s | _ -> raise Not_found in
  let num = function
    | Json.Float f -> f
    | Json.Int i -> float_of_int i
    | _ -> raise Not_found
  in
  let kvs k =
    match field k with
    | Some (Json.Obj kvs) -> List.map (fun (k, v) -> (k, num v)) kvs
    | _ -> raise Not_found
  in
  match
    {
      traced = (match field "traced" with Some (Json.Bool b) -> b | _ -> raise Not_found);
      sched = str "sched";
      digest = str "digest";
      errors =
        (match field "errors" with
        | Some (Json.List l) ->
            List.map (function Json.Str s -> s | _ -> raise Not_found) l
        | _ -> raise Not_found);
      e2e = kvs "e2e";
      layers = kvs "layers";
      spans = Option.value (field "spans") ~default:Json.Null;
    }
  with
  | r -> Ok r
  | exception Not_found -> Error "malformed trial record"
