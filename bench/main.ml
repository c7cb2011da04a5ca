(* Benchmark harness: regenerates every table and figure of the paper
   (on the scaled-down default topology; pass `--paper` for the full
   Table 3 sizes) and runs Bechamel micro-benchmarks of the core
   primitives.

   Usage:
     dune exec bench/main.exe            # everything
     dune exec bench/main.exe fig5a tab4 # selected targets
     dune exec bench/main.exe micro      # primitive benchmarks only

   `--csv DIR` captures every table as CSV; `--telemetry DIR` writes
   one structured-telemetry JSON report per instrumented run (see
   DESIGN.md, "Observability"). *)

module Fig5 = Experiments.Fig5
module Parallel = Experiments.Parallel

let scale : Experiments.Setup.scale ref = ref `Small

(* Per-target records for BENCH_sweep.json: wall time, how many pool
   tasks ran and their summed wall time. [busy /. wall] estimates the
   effective speedup over a fully sequential execution of the sweep. *)
type target_record = {
  target : string;
  title : string;
  wall_s : float;
  tasks : int;
  task_s : float;
}

let records : target_record list ref = ref []

(* Filled by [eventcore]; written into BENCH_sweep.json. *)
let event_core_stats : (string * float) list ref = ref []

(* Filled by [scheme_bench]; written into BENCH_sweep.json. *)
let scheme_stats : (string * float) list ref = ref []

(* Filled by [ft16]; written into BENCH_sweep.json. *)
let ft16_stats : (string * float) list ref = ref []

(* Filled by [churn_bench]; written into BENCH_sweep.json. *)
let churn_stats : (string * float) list ref = ref []

(* Filled by [cachegeo]; written into BENCH_sweep.json. *)
let cachegeo_frontier : Experiments.Cache_geometry.t option ref = ref None

let time_it ~key name f =
  Parallel.reset_counters ();
  let t0 = Unix.gettimeofday () in
  f ();
  let wall = Unix.gettimeofday () -. t0 in
  let c = Parallel.counters () in
  Printf.printf "\n[%s finished in %.1fs]\n%!" name wall;
  records :=
    {
      target = key;
      title = name;
      wall_s = wall;
      tasks = c.Parallel.tasks;
      task_s = c.Parallel.busy_seconds;
    }
    :: !records

let scale_name () =
  match !scale with `Tiny -> "tiny" | `Small -> "small" | `Paper -> "paper"

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Measured on this machine immediately before the typed-event /
   packet-pool rewrite (closure-per-hop event loop), same eventcore
   workload: kept in the report so the before/after trajectory rides
   along with every sweep. *)
let baseline_event_core_json =
  "\"baseline_events_per_sec\": 5.0e6, \"baseline_words_per_event\": 28.58"

(* Measured on this machine at the commit immediately before the
   staged-pipeline refactor (the old [on_switch] adapter rebuilt the
   [Dataplane.env] record on every switch visit, boxed the carrier
   packet for spillover and allocated a tenant-scan closure per cache
   access), same SwitchV2P hit-path workload as [scheme_bench]. *)
let baseline_scheme_json = "\"baseline_words_per_dispatch\": 33.0"

let write_sweep_json jobs =
  let path =
    match Sys.getenv_opt "REPRO_BENCH_JSON" with
    | Some p -> p
    | None -> "BENCH_sweep.json"
  in
  let rs = List.rev !records in
  let total_wall = List.fold_left (fun a r -> a +. r.wall_s) 0.0 rs in
  let target_json r =
    let speedup = if r.wall_s > 0.0 then r.task_s /. r.wall_s else 1.0 in
    Printf.sprintf
      "    {\"target\": \"%s\", \"title\": \"%s\", \"wall_s\": %.3f, \
       \"tasks\": %d, \"task_s\": %.3f, \"effective_speedup\": %.2f}"
      (json_escape r.target) (json_escape r.title) r.wall_s r.tasks r.task_s
      speedup
  in
  let event_core_json () =
    match !event_core_stats with
    | [] -> ""
    | stats ->
        let fields =
          List.map (fun (k, v) -> Printf.sprintf "\"%s\": %.6g" k v) stats
        in
        Printf.sprintf "  \"event_core\": {%s},\n"
          (String.concat ", " (fields @ [ baseline_event_core_json ]))
  in
  let scheme_json () =
    match !scheme_stats with
    | [] -> ""
    | stats ->
        let fields =
          List.map (fun (k, v) -> Printf.sprintf "\"%s\": %.6g" k v) stats
        in
        Printf.sprintf "  \"scheme_pipeline\": {%s},\n"
          (String.concat ", " (fields @ [ baseline_scheme_json ]))
  in
  let ft16_json () =
    match !ft16_stats with
    | [] -> ""
    | stats ->
        let fields =
          List.map (fun (k, v) -> Printf.sprintf "\"%s\": %.6g" k v) stats
        in
        Printf.sprintf "  \"ft16_400k\": {%s},\n" (String.concat ", " fields)
  in
  let churn_json () =
    match !churn_stats with
    | [] -> ""
    | stats ->
        let fields =
          List.map (fun (k, v) -> Printf.sprintf "\"%s\": %.6g" k v) stats
        in
        Printf.sprintf "  \"container_churn\": {%s},\n"
          (String.concat ", " fields)
  in
  let cachegeo_json () =
    match !cachegeo_frontier with
    | None -> ""
    | Some t ->
        let module Cg = Experiments.Cache_geometry in
        let point_json (p : Cg.point) =
          Printf.sprintf
            "    {\"geometry\": \"%s\", \"locality\": %.2f, \"cache_pct\": \
             %d, \"slots\": %d, \"sram_bits\": %d, \"refs\": %d, \"hits\": \
             %d, \"hit_rate\": %.6g}"
            (json_escape p.Cg.geometry) p.Cg.locality p.Cg.cache_pct p.Cg.slots
            p.Cg.sram_bits p.Cg.refs p.Cg.hits p.Cg.hit_rate
        in
        Printf.sprintf
          "  \"cachegeo_frontier\": {\"geometries\": [%s], \"localities\": \
           [%s], \"cache_pcts\": [%s], \"points\": [\n\
           %s\n\
          \  ]},\n"
          (String.concat ", "
             (List.map
                (fun g -> Printf.sprintf "\"%s\"" (json_escape g))
                t.Cg.geometries))
          (String.concat ", "
             (List.map (Printf.sprintf "%.2f") t.Cg.localities))
          (String.concat ", " (List.map string_of_int t.Cg.cache_pcts))
          (String.concat ",\n" (List.map point_json t.Cg.points))
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc
        "{\n\
        \  \"schema\": \"bench_sweep/v1\",\n\
        \  \"jobs\": %d,\n\
        \  \"scale\": \"%s\",\n\
        \  \"total_wall_s\": %.3f,\n\
         %s\
         %s\
         %s\
         %s\
         %s\
        \  \"targets\": [\n\
         %s\n\
        \  ]\n\
         }\n"
        jobs (scale_name ()) total_wall (event_core_json ()) (scheme_json ())
        (ft16_json ()) (churn_json ()) (cachegeo_json ())
        (String.concat ",\n" (List.map target_json rs)));
  Printf.printf "\n[sweep report written to %s]\n%!" path

let fig5 kind () = Fig5.print (Fig5.run ~scale:!scale kind)

let fig5c_with_controller () =
  (* The paper evaluates the Controller on WebSearch only. *)
  Fig5.print
    (Fig5.run ~scale:!scale ~cache_pcts:[ 1; 10; 50; 200 ] ~with_controller:true
       Fig5.Websearch)

let fig7_8 () = Experiments.Fig7_8.print (Experiments.Fig7_8.run ~scale:!scale ())
let fig9 () = Experiments.Fig9.print (Experiments.Fig9.run ~scale:!scale ())
let fig10 () = Experiments.Fig10.print (Experiments.Fig10.run ())
let tab4 () = Experiments.Tab4.print (Experiments.Tab4.run ~scale:!scale ())
let tab5 () = Experiments.Tab5.print (Experiments.Tab5.run ~scale:!scale ())
let tab6 () = Experiments.Tab6.print (Experiments.Tab6.run ())
let app_a2 () = Experiments.App_a2.print (Experiments.App_a2.run ~scale:!scale ())

let ablation () =
  Experiments.Ablation.print (Experiments.Ablation.run ~scale:!scale ())

let multitenant () =
  Experiments.Multitenant.print (Experiments.Multitenant.run ~scale:!scale ())

let datasets () =
  Experiments.Datasets.print (Experiments.Datasets.run ~scale:!scale ())

let resilience () =
  Experiments.Resilience.print (Experiments.Resilience.run ~scale:!scale ())

let dht () = Experiments.Dht_compare.print (Experiments.Dht_compare.run ~scale:!scale ())

(* Regression gate for CI: with REPRO_CACHEGEO_HIT_FLOOR set, the
   worst geometry's hit rate at the most favorable frontier corner
   (highest locality, largest cache) must stay above the floor — a
   geometry whose replay drops well below its peers there is broken,
   not merely different. Off when unset. *)
let cachegeo () =
  let module Cg = Experiments.Cache_geometry in
  let t = Cg.run ~scale:!scale () in
  Cg.print t;
  cachegeo_frontier := Some t;
  match Sys.getenv_opt "REPRO_CACHEGEO_HIT_FLOOR" with
  | None -> ()
  | Some s ->
      let floor = float_of_string s in
      let best_locality = List.fold_left max neg_infinity t.Cg.localities in
      let best_pct = List.fold_left max min_int t.Cg.cache_pcts in
      let corner =
        List.filter
          (fun (p : Cg.point) ->
            p.Cg.locality = best_locality && p.Cg.cache_pct = best_pct)
          t.Cg.points
      in
      let worst =
        List.fold_left
          (fun acc (p : Cg.point) -> min acc p.Cg.hit_rate)
          infinity corner
      in
      if corner = [] || worst < floor then begin
        Printf.eprintf
          "FAIL: cachegeo frontier corner (locality %.2f, %d%%) worst hit \
           rate %.4f below floor %.4f\n"
          best_locality best_pct worst floor;
        exit 1
      end
      else
        Printf.printf
          "  [gate] frontier corner worst hit rate %.4f >= floor %.4f\n%!"
          worst floor

(* --- Event-core benchmark: forwarding-path throughput -------------- *)

(* Regression gate for CI: minor-heap words allocated per executed
   event on the forwarding path must not creep back up. The typed-event
   rewrite measures ~asymptotically the per-flow setup cost (flow +
   pool warmup) spread over the event count; the ceiling leaves modest
   headroom over the measured value (see README, "Event core").
   Override with REPRO_WORDS_PER_EVENT_CEILING for experiments. *)
let words_per_event_ceiling () =
  match Sys.getenv_opt "REPRO_WORDS_PER_EVENT_CEILING" with
  | Some s -> float_of_string s
  | None -> 6.0

(* One timed eventcore run. Cross-pod single-flow UDP traffic through
   the full simulator (transport, links, engine, metrics) with the
   Direct scheme: every packet takes the 6-link
   host-ToR-spine-core-spine-ToR-host path, so executed events are
   almost exclusively forwarding-path packet events (one arrival per
   link plus per-packet transport sends). *)
let eventcore_measure () =
  let module Time_ns = Dessim.Time_ns in
  let module Flow = Netcore.Flow in
  let topo =
    Topo.Topology.build
      (Topo.Params.scaled ~pods:2 ~racks_per_pod:2 ~hosts_per_rack:2
         ~vms_per_host:2 ())
  in
  let net =
    Netsim.Network.create topo ~scheme:(Schemes.Baselines.direct ())
  in
  let num_vms = Netsim.Network.num_vms net in
  let run_one i ~packets =
    let src = 2 * i mod (num_vms / 2) in
    let dst = (src + (num_vms / 2)) mod num_vms (* other pod *) in
    let start =
      Time_ns.add
        (Dessim.Engine.now (Netsim.Network.engine net))
        (Time_ns.of_ns 10)
    in
    let flow =
      Flow.make ~id:i ~pkt_bytes:1500
        ~src_vip:(Netcore.Addr.Vip.of_int src)
        ~dst_vip:(Netcore.Addr.Vip.of_int dst)
        ~size_bytes:(packets * 1500) ~start
        (Flow.Udp { rate_bps = 1e12 })
    in
    Netsim.Network.run net [ flow ] ~migrations:[]
      ~until:(Time_ns.add start (Time_ns.of_ms 10))
  in
  let iters =
    match Sys.getenv_opt "REPRO_EVENTCORE_ITERS" with
    | Some s -> int_of_string s
    | None -> 2_000
  in
  for i = 1 to 100 do
    run_one i ~packets:32 (* warmup: JIT nothing, but warm pools/caches *)
  done;
  let eng = Netsim.Network.engine net in
  let ev0 = Dessim.Engine.executed eng in
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  for i = 1 to iters do
    run_one i ~packets:32
  done;
  let wall = Unix.gettimeofday () -. t0 in
  let words = Gc.minor_words () -. w0 in
  let events = Dessim.Engine.executed eng - ev0 in
  (events, float_of_int events /. wall, words /. float_of_int events)

(* Optional CI regression gate on forwarding-path throughput, in
   events/sec (e.g. REPRO_EV_S_FLOOR=4e6). Off when unset: absolute
   throughput is machine-dependent, so a hard-coded local floor would
   only measure the machine. CI pins a conservative value for its own
   runner class. *)
let ev_s_floor () =
  match Sys.getenv_opt "REPRO_EV_S_FLOOR" with
  | Some s -> Some (float_of_string s)
  | None -> None

(* One timed domain-sharded run of a single logical simulation
   (Netsim.Parnet): a 4-pod FatTree under all-to-all cross-pod UDP
   traffic, Direct scheme, partitioned by pod. [shards = 1] is the
   same windowed runtime on one domain, so the ratio isolates what the
   extra domains buy (or cost) rather than comparing against the
   classic un-windowed loop. Returns (events, events/sec, windows,
   cross-shard handoffs). *)
let parcore_measure ~shards =
  let module Time_ns = Dessim.Time_ns in
  let module Flow = Netcore.Flow in
  let topo =
    Topo.Topology.build
      (Topo.Params.scaled ~pods:4 ~racks_per_pod:2 ~hosts_per_rack:2
         ~vms_per_host:2 ())
  in
  let num_vms =
    Array.length (Topo.Topology.hosts topo)
    * (Topo.Topology.params topo).Topo.Params.vms_per_host
  in
  let num_flows =
    match Sys.getenv_opt "REPRO_PARCORE_FLOWS" with
    | Some s -> int_of_string s
    | None -> 512
  in
  let rng = Dessim.Rng.create 4242 in
  let flows =
    List.init num_flows (fun i ->
        let src = Dessim.Rng.int rng num_vms in
        let dst = (src + (num_vms / 4) + Dessim.Rng.int rng (num_vms / 2)) mod num_vms in
        let dst = if dst = src then (dst + 1) mod num_vms else dst in
        Flow.make ~id:i ~pkt_bytes:1500
          ~src_vip:(Netcore.Addr.Vip.of_int src)
          ~dst_vip:(Netcore.Addr.Vip.of_int dst)
          ~size_bytes:(128 * 1500)
          ~start:(Time_ns.of_ns (200 * i))
          (Flow.Udp { rate_bps = 1e10 }))
  in
  let t0 = Unix.gettimeofday () in
  let par =
    Netsim.Parnet.run ~shards topo
      ~make_scheme:(fun ~shard:_ -> Schemes.Baselines.direct ())
      ~flows ~migrations:[] ~until:(Time_ns.of_ms 25)
  in
  let wall = Unix.gettimeofday () -. t0 in
  let events =
    Array.fold_left
      (fun acc net -> acc + Dessim.Engine.executed (Netsim.Network.engine net))
      0 (Netsim.Parnet.nets par)
  in
  let handoffs =
    Array.fold_left
      (fun acc net -> acc + Netsim.Network.handoffs_sent net)
      0 (Netsim.Parnet.nets par)
  in
  (events, float_of_int events /. wall, Netsim.Parnet.windows par, handoffs)

(* Optional CI gate on the 2-shard speedup over the 1-shard windowed
   baseline (e.g. REPRO_PAR_SPEEDUP_FLOOR=1.3). Off when unset: on a
   single-core machine the extra domains time-slice one CPU and the
   honest ratio is <= 1. *)
let par_speedup_floor () =
  match Sys.getenv_opt "REPRO_PAR_SPEEDUP_FLOOR" with
  | Some s -> Some (float_of_string s)
  | None -> None

let eventcore () =
  let events, eps, wpe = eventcore_measure () in
  Printf.printf
    "\n== event core (forwarding path) ==\n\
    \  events executed   %9d\n\
    \  events/sec        %.3e\n\
    \  words/event       %9.2f\n"
    events eps wpe;
  (* Domain-sharded scaling of one logical run (see Parnet). *)
  let cores = Domain.recommended_domain_count () in
  let shard_counts = [ 1; 2; 4 ] in
  let sharded = List.map (fun n -> (n, parcore_measure ~shards:n)) shard_counts in
  let base_eps =
    match sharded with (_, (_, eps, _, _)) :: _ -> eps | [] -> 1.0
  in
  Printf.printf "  sharded (one logical run, %d core%s):\n" cores
    (if cores = 1 then "" else "s");
  List.iter
    (fun (n, (events, eps, windows, handoffs)) ->
      Printf.printf
        "    %d shard%s     %9d ev   %.3e ev/s   %6.2fx   %d windows   %d \
         handoffs\n"
        n
        (if n = 1 then " " else "s")
        events eps (eps /. base_eps) windows handoffs)
    sharded;
  event_core_stats :=
    [
      ("events", float_of_int events);
      ("events_per_sec", eps);
      ("words_per_event", wpe);
      ("cores", float_of_int cores);
    ]
    @ List.map
        (fun (n, (_, eps, _, _)) ->
          (Printf.sprintf "sharded_%d_events_per_sec" n, eps))
        sharded;
  (let oc = open_out "BENCH_eventcore.json" in
   Fun.protect
     ~finally:(fun () -> close_out oc)
     (fun () ->
       let shard_json =
         String.concat ",\n"
           (List.map
              (fun (n, (events, eps, windows, handoffs)) ->
                Printf.sprintf
                  "    {\"shards\": %d, \"events\": %d, \"events_per_sec\": \
                   %.6g, \"speedup\": %.3f, \"windows\": %d, \"handoffs\": %d}"
                  n events eps (eps /. base_eps) windows handoffs)
              sharded)
       in
       Printf.fprintf oc
         "{\n\
         \  \"schema\": \"bench_eventcore/v3\",\n\
         \  \"workload\": \"32-packet cross-pod UDP flows, Direct scheme, 2-pod \
          FatTree\",\n\
         \  \"events\": %d,\n\
         \  \"events_per_sec\": %.6g,\n\
         \  \"words_per_event\": %.3f,\n\
         \  \"cores\": %d,\n\
         \  \"sharded\": {\n\
         \    \"workload\": \"512 x 128-packet cross-pod UDP flows, Direct \
          scheme, 4-pod FatTree, pod partition, one logical run\",\n\
         \    \"baseline\": \"1-shard windowed runtime (same protocol, one \
          domain)\",\n\
         \    \"runs\": [\n\
          %s\n\
         \    ]\n\
         \  }\n\
          }\n"
         events eps wpe cores shard_json);
   Printf.printf "[eventcore report written to BENCH_eventcore.json]\n%!");
  let ceiling = words_per_event_ceiling () in
  if wpe > ceiling then begin
    Printf.eprintf
      "eventcore: words/event %.2f exceeds ceiling %.2f — the forwarding \
       path regressed into allocating per event\n"
      wpe ceiling;
    exit 1
  end;
  (match par_speedup_floor () with
  | None -> ()
  | Some floor ->
      let eps2 =
        match List.assoc_opt 2 sharded with
        | Some (_, eps, _, _) -> eps
        | None -> base_eps
      in
      let speedup = eps2 /. base_eps in
      if speedup < floor then begin
        Printf.eprintf
          "eventcore(sharded): 2-shard speedup %.2fx below floor %.2fx — the \
           parallel event core regressed\n"
          speedup floor;
        exit 1
      end);
  match ev_s_floor () with
  | None -> ()
  | Some floor ->
      if eps < floor then begin
        Printf.eprintf
          "eventcore: %.3e events/sec below floor %.3e — scheduler \
           throughput regressed\n"
          eps floor;
        exit 1
      end

(* --- Scheme-pipeline benchmark: per-dispatch allocation ------------ *)

(* Regression gate for CI: minor-heap words allocated per on-switch
   dispatch through the full SwitchV2P pipeline (classify -> lookup ->
   learn -> emit), over two loops: a warm regular-ToR hit, and the miss
   path (a gateway-ToR learn that evicts and attaches a spill, the next
   hop absorbing it, a regular-spine promotion onto a core). Insert
   results and riders are unboxed ints and the [Dataplane.env] is bound
   once at [Pipeline.prepare], so both steady states must be exactly
   zero. Override with REPRO_SCHEME_WORDS_CEILING for experiments. *)
let scheme_words_ceiling () =
  match Sys.getenv_opt "REPRO_SCHEME_WORDS_CEILING" with
  | Some s -> float_of_string s
  | None -> 0.0

(* A SwitchV2P scheme over a 2-pod FatTree, prepared against a bare
   env (no network), as the pipeline tests drive it. *)
let scheme_rig ?config ~slots_per_switch () =
  let module Topology = Topo.Topology in
  let topo =
    Topology.build
      (Topo.Params.scaled ~pods:2 ~racks_per_pod:2 ~hosts_per_rack:2
         ~vms_per_host:2 ())
  in
  let scheme, dp =
    Schemes.Switchv2p_scheme.make_with_dataplane ?config topo
      ~total_cache_slots:(slots_per_switch * Array.length (Topology.switches topo))
  in
  let mapping = Netcore.Mapping.create () in
  Array.iteri
    (fun i host ->
      Netcore.Mapping.install mapping
        (Netcore.Addr.Vip.of_int i)
        (Topology.pip topo host))
    (Topology.hosts topo);
  let next_id = ref 0 in
  let env =
    {
      Netsim.Scheme.engine = Dessim.Engine.create ();
      rng = Dessim.Rng.create 11;
      topo;
      mapping;
      base_rtt = Dessim.Time_ns.of_us 12;
      fresh_packet_id =
        (fun () ->
          incr next_id;
          !next_id);
      emit_at_switch = (fun ~src_switch:_ _ -> ());
    }
  in
  let pl = scheme.Netsim.Scheme.pipeline in
  Netsim.Pipeline.prepare pl env;
  (topo, dp, pl, env)

(* Warm [round] up, then time [rounds] calls; each round is
   [per_round] pipeline dispatches. Returns (dispatches,
   dispatches/sec, words/dispatch). *)
let measure_dispatches ~rounds ~per_round round =
  for _ = 1 to 1_000 do
    round ()
  done;
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to rounds do
    round ()
  done;
  let wall = Unix.gettimeofday () -. t0 in
  let words = Gc.minor_words () -. w0 in
  let n = rounds * per_round in
  (n, float_of_int n /. wall, words /. float_of_int n)

(* A regular ToR serving a cached destination to an attached sender:
   the paper's steady-state hit path (classify no-op, lookup hit +
   rewrite, source learning updates in place, nothing to emit). *)
let scheme_hit_loop () =
  let module Topology = Topo.Topology in
  let module Packet = Netcore.Packet in
  let topo, dp, pl, env = scheme_rig ~slots_per_switch:64 () in
  let tor =
    Array.to_list (Topology.tors topo)
    |> List.find (fun sw -> Topology.role topo sw = Topo.Node.Regular_tor)
  in
  let sender = (Topology.endpoints_of_tor topo tor).(0) in
  let dst_vip = Netcore.Addr.Vip.of_int 100_000 in
  let dst_host = (Topology.hosts topo).(Array.length (Topology.hosts topo) - 1) in
  ignore
    (Switchv2p.Cache.insert
       (Switchv2p.Dataplane.cache dp ~switch:tor)
       ~admission:`All dst_vip
       (Topology.pip topo dst_host));
  let gw_pip = Topology.pip topo (Topology.gateways topo).(0) in
  let pkt =
    Packet.make_data ~id:1 ~flow_id:1 ~seq:0 ~size:1500
      ~src_vip:(Netcore.Addr.Vip.of_int 1_000)
      ~dst_vip
      ~src_pip:(Topology.pip topo sender)
      ~dst_pip:gw_pip ~now:0
  in
  measure_dispatches ~rounds:200_000 ~per_round:1 (fun () ->
      pkt.Packet.resolved <- false;
      pkt.Packet.dst_pip <- gw_pip;
      pkt.Packet.hit_switch <- -1;
      ignore (Netsim.Pipeline.run pl env ~switch:tor ~from:sender pkt : int))

(* The miss path, one slot per switch so every learn evicts: a
   gateway-ToR learn alternating two VIPs (evict + spill), the next-hop
   spine absorbing the spill, a regular-spine hit on an access-bit-set
   entry for an inter-pod destination (promotion), and a core absorbing
   the promotion. Learning packets are off: emitting one allocates a
   fresh control packet by design, at p_learn per resolved packet. *)
let scheme_miss_loop () =
  let module Topology = Topo.Topology in
  let module Packet = Netcore.Packet in
  let module Vip = Netcore.Addr.Vip in
  let config = Switchv2p.Config.make ~learning_packets:false () in
  let topo, dp, pl, env = scheme_rig ~config ~slots_per_switch:1 () in
  let find arr role =
    Array.to_list arr |> List.find (fun sw -> Topology.role topo sw = role)
  in
  let gw_tor = find (Topology.tors topo) Topo.Node.Gateway_tor in
  let gw = (Topology.gateways topo).(0) in
  let next_hop = Topology.spine_id topo ~pod:(Topology.pod topo gw_tor) ~group:0 in
  let spine = find (Topology.switches topo) Topo.Node.Regular_spine in
  let core = (Topology.cores topo).(0) in
  let hosts = Array.to_list (Topology.hosts topo) in
  let pod = Topology.pod topo in
  let local = List.find (fun h -> pod h = pod spine) hosts in
  let remote_pip =
    Topology.pip topo (List.find (fun h -> pod h <> pod spine) hosts)
  in
  let gw_pip = Topology.pip topo gw in
  ignore
    (Switchv2p.Geo_cache.insert
       (Switchv2p.Dataplane.geo_cache dp ~switch:spine)
       ~admission:`All (Vip.of_int 20) remote_pip
      : int);
  let mk dst =
    Packet.make_data ~id:1 ~flow_id:1 ~seq:0 ~size:1500
      ~src_vip:(Vip.of_int 1_000) ~dst_vip:(Vip.of_int dst)
      ~src_pip:(Topology.pip topo local) ~dst_pip:gw_pip ~now:0
  in
  let learn = mk 12 and hit = mk 20 in
  let i = ref 0 in
  let r =
    measure_dispatches ~rounds:50_000 ~per_round:4 (fun () ->
        learn.Packet.dst_vip <- Vip.of_int (12 + (!i land 1));
        learn.Packet.resolved <- true;
        learn.Packet.dst_pip <- remote_pip;
        learn.Packet.spill_vip <- -1;
        learn.Packet.spill_pip <- -1;
        ignore (Netsim.Pipeline.run pl env ~switch:gw_tor ~from:gw learn : int);
        ignore
          (Netsim.Pipeline.run pl env ~switch:next_hop ~from:gw_tor learn : int);
        hit.Packet.resolved <- false;
        hit.Packet.dst_pip <- gw_pip;
        hit.Packet.hit_switch <- -1;
        ignore (Netsim.Pipeline.run pl env ~switch:spine ~from:local hit : int);
        ignore (Netsim.Pipeline.run pl env ~switch:core ~from:spine hit : int);
        incr i)
  in
  (* The loop must really take the rider paths it claims to gate. *)
  let module D = Switchv2p.Dataplane in
  if D.spills_attached dp = 0 || D.spills_absorbed dp = 0 || D.promotions dp = 0
  then begin
    Printf.eprintf "scheme: miss loop no longer spills, absorbs and promotes\n";
    exit 1
  end;
  r

let scheme_bench () =
  let hit_n, hit_rate, hit_words = scheme_hit_loop () in
  let miss_n, miss_rate, miss_words = scheme_miss_loop () in
  Printf.printf
    "\n== scheme pipeline (SwitchV2P) ==\n\
    \  hit path   dispatches %d  dispatches/sec %.3e  words/dispatch %.2f\n\
    \  miss path  dispatches %d  dispatches/sec %.3e  words/dispatch %.2f\n"
    hit_n hit_rate hit_words miss_n miss_rate miss_words;
  scheme_stats :=
    [
      ("dispatches", float_of_int hit_n);
      ("dispatches_per_sec", hit_rate);
      ("words_per_dispatch", hit_words);
      ("miss_dispatches", float_of_int miss_n);
      ("miss_dispatches_per_sec", miss_rate);
      ("miss_words_per_dispatch", miss_words);
    ];
  let ceiling = scheme_words_ceiling () in
  List.iter
    (fun (path, words) ->
      if words > ceiling then begin
        Printf.eprintf
          "scheme: %s words/dispatch %.2f exceeds ceiling %.2f — the \
           on-switch path regressed into allocating per hop\n"
          path words ceiling;
        exit 1
      end)
    [ ("hit-path", hit_words); ("miss-path", miss_words) ]

(* --- FT16-400K scale run -------------------------------------------- *)

(* Peak RSS (VmHWM) in MB from /proc/self/status; 0 when the proc
   interface is unavailable (non-Linux). *)
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
            | line ->
                if String.length line >= 6 && String.sub line 0 6 = "VmHWM:"
                then
                  let kb =
                    String.to_seq line
                    |> Seq.filter (fun c -> c >= '0' && c <= '9')
                    |> String.of_seq |> float_of_string
                  in
                  kb /. 1024.0
                else go ()
          in
          go ())

(* Regression gate for CI: peak RSS of the single-process FT16-400K
   run, in MB (e.g. REPRO_FT16_RSS_CEILING=4096). Off when unset. *)
let ft16_rss_ceiling_mb () =
  match Sys.getenv_opt "REPRO_FT16_RSS_CEILING" with
  | Some s -> Some (float_of_string s)
  | None -> None

(* The full FT16-400K preset of the paper's Table 3, in one process:
   build the 12,866-node topology, stand up a SwitchV2P network over it
   (one ground-truth mapping per VM = 384,000, topped up with synthetic
   extra VIPs — endpoints holding several addresses — past 10^6
   mappings), drive a short cross-pod workload, and record peak RSS and
   words/host. Before the CSR topology this preset silently fell off
   the dense-table fast path (built only for n <= 1024) and paid two
   hashtable probes per hop; now every structure is O(n + E) or
   O(num_vms) words, so the whole thing fits comfortably in CI. *)
let ft16 () =
  let module Time_ns = Dessim.Time_ns in
  let module Flow = Netcore.Flow in
  let module Topology = Topo.Topology in
  let t0 = Unix.gettimeofday () in
  let setup = Experiments.Setup.ft16 `Paper in
  let topo = setup.Experiments.Setup.topo in
  let build_s = Unix.gettimeofday () -. t0 in
  let num_vms = setup.Experiments.Setup.num_vms in
  let slots = Experiments.Setup.cache_slots setup ~pct:10 in
  let t1 = Unix.gettimeofday () in
  let net =
    Netsim.Network.create topo
      ~scheme:(Schemes.Switchv2p_scheme.make topo ~total_cache_slots:slots)
  in
  (* Table 3 evaluates mapping tables in the millions; install
     synthetic extra VIPs round-robin over the hosts until the
     ground-truth store crosses 10^6 entries. No traffic targets them —
     they exist to size the gateway tables realistically. *)
  let mapping = Netsim.Network.mapping net in
  let hosts = Topology.hosts topo in
  let extra = max 0 (1_000_000 - num_vms) in
  for i = 0 to extra - 1 do
    Netcore.Mapping.install mapping
      (Netcore.Addr.Vip.of_int (num_vms + i))
      (Topology.pip topo hosts.(i mod Array.length hosts))
  done;
  let create_s = Unix.gettimeofday () -. t1 in
  let num_flows =
    match Sys.getenv_opt "REPRO_FT16_FLOWS" with
    | Some s -> int_of_string s
    | None -> 2_000
  in
  let rng = Dessim.Rng.create setup.Experiments.Setup.seed in
  let flows =
    List.init num_flows (fun i ->
        let src = Dessim.Rng.int rng num_vms in
        let dst = (src + (num_vms / 2)) mod num_vms (* cross-pod *) in
        Flow.make ~id:i ~pkt_bytes:1500
          ~src_vip:(Netcore.Addr.Vip.of_int src)
          ~dst_vip:(Netcore.Addr.Vip.of_int dst)
          ~size_bytes:(32 * 1500)
          ~start:(Time_ns.of_ns (10 * i))
          (Flow.Udp { rate_bps = 1e12 }))
  in
  let t2 = Unix.gettimeofday () in
  Netsim.Network.run net flows ~migrations:[] ~until:(Time_ns.of_ms 50);
  let run_s = Unix.gettimeofday () -. t2 in
  let events = Dessim.Engine.executed (Netsim.Network.engine net) in
  Gc.full_major ();
  let live_words = float_of_int (Gc.stat ()).Gc.live_words in
  let mappings = float_of_int (Netcore.Mapping.size mapping) in
  (* "Hosts" in the paper's Table 3 sense — the 400K addressable
     endpoints are our VMs. *)
  let words_per_host = live_words /. float_of_int num_vms in
  let rss = peak_rss_mb () in
  Printf.printf
    "\n== FT16-400K (single process) ==\n\
    \  nodes              %9d\n\
    \  directed links     %9d\n\
    \  vms (paper hosts)  %9d\n\
    \  mappings           %9.0f\n\
    \  flows run          %9d\n\
    \  events executed    %9d\n\
    \  build/create/run   %.2fs / %.2fs / %.2fs\n\
    \  live words         %.3e (%.1f words/host)\n\
    \  peak RSS           %.0f MB\n"
    (Topology.num_nodes topo) (Topology.num_links topo) num_vms mappings
    num_flows events build_s create_s run_s live_words words_per_host rss;
  ft16_stats :=
    [
      ("num_nodes", float_of_int (Topology.num_nodes topo));
      ("num_links", float_of_int (Topology.num_links topo));
      ("num_vms", float_of_int num_vms);
      ("mappings", mappings);
      ("flows", float_of_int num_flows);
      ("events", float_of_int events);
      ("build_s", build_s);
      ("create_s", create_s);
      ("run_s", run_s);
      ("live_words", live_words);
      ("words_per_host", words_per_host);
      ("peak_rss_mb", rss);
    ];
  if mappings < 1_000_000.0 then begin
    Printf.eprintf "ft16: only %.0f mappings installed (need >= 10^6)\n"
      mappings;
    exit 1
  end;
  match ft16_rss_ceiling_mb () with
  | None -> ()
  | Some ceiling ->
      if rss > ceiling then begin
        Printf.eprintf
          "ft16: peak RSS %.0f MB exceeds ceiling %.0f MB — per-node or \
           per-VIP state regressed to a superlinear structure\n"
          rss ceiling;
        exit 1
      end

(* --- Bechamel micro-benchmarks of the primitives ------------------- *)

let micro () =
  let open Bechamel in
  let open Toolkit in
  (* Each benchmark is a (name, closure) pair: Bechamel times the
     closure, and we separately count minor-heap words across a plain
     loop over the same closure (see [words_per_op] below). *)
  let cache_lookup =
    let cache = Switchv2p.Cache.create ~slots:4096 in
    for i = 0 to 4095 do
      ignore
        (Switchv2p.Cache.insert cache ~admission:`All
           (Netcore.Addr.Vip.of_int i)
           (Netcore.Addr.Pip.of_int i))
    done;
    let i = ref 0 in
    ( "cache lookup",
      fun () ->
        incr i;
        ignore
          (Switchv2p.Cache.lookup cache
             (Netcore.Addr.Vip.of_int (!i land 4095))) )
  in
  let cache_insert =
    let cache = Switchv2p.Cache.create ~slots:4096 in
    let i = ref 0 in
    ( "cache insert",
      fun () ->
        incr i;
        ignore
          (Switchv2p.Cache.insert cache ~admission:`All
             (Netcore.Addr.Vip.of_int (!i land 16383))
             (Netcore.Addr.Pip.of_int !i)) )
  in
  let routing_topo =
    Topo.Topology.build
      (Topo.Params.scaled ~pods:8 ~racks_per_pod:4 ~hosts_per_rack:2
         ~vms_per_host:2 ())
  in
  let ecmp =
    let t = routing_topo in
    let hosts = Topo.Topology.hosts t in
    let i = ref 0 in
    ( "ecmp full path",
      fun () ->
        incr i;
        let src = hosts.(!i mod Array.length hosts) in
        let dst = hosts.(((!i * 7) + 13) mod Array.length hosts) in
        if src <> dst then ignore (Topo.Routing.path t ~src ~dst ~salt:!i) )
  in
  (* The forwarding hot path proper: a spine picking the ECMP core
     toward a host in another pod — the one case where the oracle
     allocates its candidate array. The table-based path must show
     0 w/op here. *)
  let next_hop_pairs =
    let t = routing_topo in
    let spines = Topo.Topology.spines t in
    let hosts = Topo.Topology.hosts t in
    let pod_of id =
      match Topo.Topology.kind t id with
      | Topo.Node.Host { pod; _ }
      | Topo.Node.Gateway { pod; _ }
      | Topo.Node.Tor { pod; _ }
      | Topo.Node.Spine { pod; _ } ->
          pod
      | Topo.Node.Core _ -> -1
    in
    Array.init 1024 (fun i ->
        let at = spines.(i mod Array.length spines) in
        let rec pick j =
          let dst = hosts.(((i * 7) + j) mod Array.length hosts) in
          if pod_of dst <> pod_of at then dst else pick (j + 1)
        in
        (at, pick 13))
  in
  let next_hop_table =
    let t = routing_topo in
    let i = ref 0 in
    ( "next_hop (table)",
      fun () ->
        incr i;
        let at, dst = next_hop_pairs.(!i land 1023) in
        ignore (Topo.Routing.next_hop t ~at ~dst ~salt:!i) )
  in
  let next_hop_oracle =
    let t = routing_topo in
    let i = ref 0 in
    ( "next_hop (oracle)",
      fun () ->
        incr i;
        let at, dst = next_hop_pairs.(!i land 1023) in
        ignore (Topo.Routing.next_hop_oracle t ~at ~dst ~salt:!i) )
  in
  (* End-to-end per-packet cost: one single-packet UDP flow through the
     full simulator (transport, links, engine, metrics) with the Direct
     scheme, host -> ToR -> fabric -> host. *)
  let e2e =
    let topo =
      Topo.Topology.build
        (Topo.Params.scaled ~pods:2 ~racks_per_pod:2 ~hosts_per_rack:2
           ~vms_per_host:2 ())
    in
    let net = Netsim.Network.create topo ~scheme:(Schemes.Baselines.direct ()) in
    let num_vms = Netsim.Network.num_vms net in
    let vms_per_host = 2 in
    let module Time_ns = Dessim.Time_ns in
    let module Flow = Netcore.Flow in
    let i = ref 0 in
    ( "transmit+arrive (pkt e2e, direct)",
      fun () ->
        incr i;
        let src = !i * vms_per_host mod num_vms in
        let dst = (src + vms_per_host) mod num_vms in
        let start =
          Time_ns.add
            (Dessim.Engine.now (Netsim.Network.engine net))
            (Time_ns.of_ns 10)
        in
        let flow =
          Flow.make ~id:!i ~pkt_bytes:1500
            ~src_vip:(Netcore.Addr.Vip.of_int src)
            ~dst_vip:(Netcore.Addr.Vip.of_int dst)
            ~size_bytes:1000 ~start
            (Flow.Udp { rate_bps = 1e12 })
        in
        Netsim.Network.run net [ flow ] ~migrations:[]
          ~until:(Time_ns.add start (Time_ns.of_ms 1)) )
  in
  let rng_bench =
    let rng = Dessim.Rng.create 7 in
    ("rng int", fun () -> ignore (Dessim.Rng.int rng 1_000_000))
  in
  let benches =
    [
      cache_lookup; cache_insert; ecmp; next_hop_table;
      next_hop_oracle; e2e; rng_bench;
    ]
  in
  let tests =
    Test.make_grouped ~name:"primitives"
      (List.map (fun (name, f) -> Test.make ~name (Staged.stage f)) benches)
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let times = Analyze.all ols Instance.monotonic_clock raw in
  (* Allocation is counted directly: minor-heap words across [n] calls
     of the closure, divided by [n]. The loop and the closure call
     themselves allocate nothing, so 0.0 here means the operation truly
     performs zero allocation per call. *)
  let words_per_op f =
    f ();
    let n = 10_000 in
    let w0 = Gc.minor_words () in
    for _ = 1 to n do
      f ()
    done;
    (Gc.minor_words () -. w0) /. float_of_int n
  in
  let words =
    List.map (fun (name, f) -> ("primitives/" ^ name, words_per_op f)) benches
  in
  let estimate results name =
    match Hashtbl.find_opt results name with
    | Some r -> (
        match Analyze.OLS.estimates r with Some [ est ] -> Some est | _ -> None)
    | None -> None
  in
  print_newline ();
  print_endline "== micro: primitive costs ==";
  let names = Hashtbl.fold (fun name _ acc -> name :: acc) times [] in
  List.iter
    (fun name ->
      let time =
        match estimate times name with
        | Some ns -> Printf.sprintf "%8.1f ns/op" ns
        | None -> "     (no est.)"
      in
      let alloc =
        match List.assoc_opt name words with
        | Some w -> Printf.sprintf "%8.1f w/op" w
        | None -> "     (no est.)"
      in
      Printf.printf "  %-44s %s  %s\n" name time alloc)
    (List.sort compare names);
  flush stdout

(* --- Container-churn benchmark: sustained remapping pressure ------- *)

(* A container-overlay migration storm (Workloads.Container_churn)
   against a steady Hadoop workload, expressed as two declarative
   scenarios that differ only in the churn line: the reference run has
   no churn, the storm sustains ~20,000 mappings/sec for 20 ms. Reports
   the remap rate actually scheduled, the invalidation traffic it
   triggers, and how much of the reference hit rate survives. *)
let churn_bench () =
  let module Spec = Netsim.Scenario in
  let module Churn = Workloads.Container_churn in
  let module Time_ns = Dessim.Time_ns in
  let episode =
    Churn.make ~start:(Time_ns.of_ms 1) ~kind:Churn.Migration_storm
      ~rate:20_000.0 ~duration:(Time_ns.of_ms 20) ()
  in
  let run name churn =
    let spec =
      Spec.make ~name
        ~topo:(Spec.preset `FT8 !scale)
        ~streams:[ Spec.stream Spec.Hadoop ]
        ?churn
        [ Spec.scheme ~label:"SwitchV2P" (Spec.switchv2p (Spec.Pct 50)) ]
    in
    Experiments.Scenario.run_scheme spec (List.hd spec.Netsim.Scenario.schemes)
  in
  let reference = run "bench-churn/reference" None in
  let stormed = run "bench-churn/storm" (Some episode) in
  let extra (r : Experiments.Runner.result) k =
    Option.value ~default:0.0 (List.assoc_opt k r.Experiments.Runner.extra)
  in
  let ref_hit = reference.Experiments.Runner.hit_rate in
  let storm_hit = stormed.Experiments.Runner.hit_rate in
  let recovery = if ref_hit > 0.0 then storm_hit /. ref_hit else 1.0 in
  Printf.printf
    "\n== container churn (migration storm vs quiet reference) ==\n\
    \  mappings remapped  %9d (%d batches)\n\
    \  sustained rate     %9.0f mappings/sec\n\
    \  invalidations      %9.0f packets (%.0f entries wiped)\n\
    \  hit rate           %8.2f%% quiet -> %.2f%% under storm (%.1f%% retained)\n"
    (Churn.total_mappings episode)
    (Churn.num_batches episode)
    (Churn.sustained_rate episode)
    (extra stormed "invalidation_packets")
    (extra stormed "entries_invalidated")
    (100.0 *. ref_hit) (100.0 *. storm_hit) (100.0 *. recovery);
  churn_stats :=
    [
      ("mappings", float_of_int (Churn.total_mappings episode));
      ("batches", float_of_int (Churn.num_batches episode));
      ("sustained_mappings_per_sec", Churn.sustained_rate episode);
      ("invalidation_packets", extra stormed "invalidation_packets");
      ("entries_invalidated", extra stormed "entries_invalidated");
      ("hit_rate_reference", ref_hit);
      ("hit_rate_storm", storm_hit);
      ("hit_rate_retained", recovery);
    ]

(* --- DST smoke sweep ------------------------------------------------ *)

(* Seeded random fault plans over the default scheme set; any
   invariant violation writes the failing seeds (with replay commands)
   to DST_failures.txt and fails the run, so CI can upload the file as
   an artifact. Seed count override: REPRO_DST_SEEDS. *)
let dst () =
  let num_seeds =
    match Sys.getenv_opt "REPRO_DST_SEEDS" with
    | Some s -> int_of_string s
    | None -> 25
  in
  let shards = Parallel.shards () in
  let module Dst = Experiments.Dst in
  let outcomes =
    Dst.run_seeds ~shards ~schemes:Dst.default_schemes
      ~seeds:(List.init num_seeds (fun i -> i + 1))
      ()
  in
  Printf.printf "dst: %d runs (%s x %d seeds, %d shard%s), %d failed\n%!"
    (List.length outcomes)
    (String.concat "," Dst.default_schemes)
    num_seeds shards
    (if shards = 1 then "" else "s")
    (List.length (Dst.failed outcomes));
  match Dst.failed outcomes with
  | [] -> ()
  | failed ->
      let oc = open_out "DST_failures.txt" in
      List.iter
        (fun o -> output_string oc (Format.asprintf "%a" Dst.pp_failure o))
        failed;
      close_out oc;
      List.iter (fun o -> Format.eprintf "%a" Dst.pp_failure o) failed;
      Printf.eprintf "dst: failing seeds written to DST_failures.txt\n";
      exit 1

let targets =
  [
    ("fig5a", ("Figure 5a (Hadoop)", fig5 Fig5.Hadoop));
    ("fig5b", ("Figure 5b (Microbursts)", fig5 Fig5.Microbursts));
    ("fig5c", ("Figure 5c (WebSearch + Controller)", fig5c_with_controller));
    ("fig5d", ("Figure 5d (Video)", fig5 Fig5.Video));
    ("fig6", ("Figure 6 (Alibaba, FT16)", fig5 Fig5.Alibaba));
    ("fig7", ("Figures 7/8 (bandwidth heatmaps)", fig7_8));
    ("fig8", ("Figures 7/8 (bandwidth heatmaps)", fig7_8));
    ("fig9", ("Figure 9 (fewer gateways)", fig9));
    ("fig10", ("Figure 10 (topology scaling)", fig10));
    ("tab4", ("Table 4 (VM migration)", tab4));
    ("tab5", ("Table 5 (hit distribution)", tab5));
    ("tab6", ("Table 6 (switch resources)", tab6));
    ("appA2", ("Appendix A.2 (Controller)", app_a2));
    ("ablation", ("Ablation (design features)", ablation));
    ("multitenant", ("Multitenant partitions (§4)", multitenant));
    ("datasets", ("Dataset characterization (§5)", datasets));
    ("resilience", ("Switch-failure resilience (§2)", resilience));
    ("dht", ("DHT-store alternative (§2.4)", dht));
    ("cachegeo", ("Cache geometry study (§3.2)", cachegeo));
    ("micro", ("Micro-benchmarks", micro));
    ("eventcore", ("Event-core throughput (forwarding path)", eventcore));
    ("scheme", ("Scheme pipeline (per-dispatch allocation)", scheme_bench));
    ("ft16", ("FT16-400K scale (CSR topology, 10^6 mappings)", ft16));
    ("churn", ("Container churn (migration storm, mappings/sec)", churn_bench));
    ("dst", ("DST smoke sweep (seeded fault plans)", dst));
  ]

(* fig7 and fig8 share one runner; run it once in the full sweep. *)
let default_order =
  [
    "datasets"; "fig5a"; "fig5b"; "fig5c"; "fig5d"; "fig6"; "fig7"; "fig9";
    "fig10"; "tab4"; "tab5"; "tab6"; "appA2"; "ablation"; "multitenant";
    "resilience"; "dht"; "cachegeo"; "micro"; "eventcore"; "scheme"; "ft16";
    "churn"; "dst";
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec strip_flags acc = function
    | [] -> List.rev acc
    | "--paper" :: rest ->
        scale := `Paper;
        strip_flags acc rest
    | "--tiny" :: rest ->
        scale := `Tiny;
        strip_flags acc rest
    | "--csv" :: dir :: rest ->
        Experiments.Report.set_csv_dir (Some dir);
        strip_flags acc rest
    | "--telemetry" :: dir :: rest ->
        Experiments.Report.set_telemetry_dir (Some dir);
        strip_flags acc rest
    | a :: rest -> strip_flags (a :: acc) rest
  in
  let args = strip_flags [] args in
  let selected = if args = [] then default_order else args in
  let jobs = Parallel.default_jobs () in
  Printf.printf "[experiment pool: %d worker%s]\n%!" jobs
    (if jobs = 1 then "" else "s");
  List.iter
    (fun key ->
      match List.assoc_opt key targets with
      | Some (title, f) -> time_it ~key title f
      | None ->
          Printf.eprintf "unknown target %S; available: %s\n" key
            (String.concat ", " (List.map fst targets));
          exit 1)
    selected;
  write_sweep_json jobs
