(* Benchmark harness: regenerates every table and figure of the paper
   (on the scaled-down default topology; pass `--paper` for the full
   Table 3 sizes), runs the perf smokes, and checks them against one
   gate table.

   Usage:
     dune exec bench/main.exe            # everything
     dune exec bench/main.exe fig5a tab4 # selected targets

   `--csv DIR` captures every table as CSV; `--telemetry DIR` writes
   one structured-telemetry JSON report per instrumented run (see
   DESIGN.md, "Observability"). Every run merges one entry per target
   into BENCH_sweep.json, then checks [gates] and exits 1 if a row
   fails. *)

module Fig5 = Experiments.Fig5
module Spec = Netsim.Scenario
module Parallel = Experiments.Parallel
module Json = Dessim.Telemetry.Json

let scale : Spec.scale ref = ref `Small
let cores = Domain.recommended_domain_count ()

let scale_name () = Spec.scale_name !scale

(* A target prints its table and returns its stats: recorded under its
   name in BENCH_sweep.json and checked against [gates]. *)
type stats = (string * Json.t) list

let num k v = (k, Json.Float v)
let int k v = (k, Json.Int v)

(* --- Gates: every perf-smoke threshold, in one table --------------- *)

type gate = {
  target : string;
  metric : string;
  at_most : bool;  (** [metric <= threshold]; else [metric >= threshold] *)
  threshold : float;
  min_cores : int;  (** the row is skipped on machines with fewer cores *)
}

let le ?(min_cores = 1) target metric threshold =
  { target; metric; at_most = true; threshold; min_cores }

let ge ?(min_cores = 1) target metric threshold =
  { target; metric; at_most = false; threshold; min_cores }

let gates =
  [
    (* Forwarding path: minor words per executed event must not creep
       back up (measured 0.20, all of it per-flow set-up: the flow
       record the loop builds, its receiver and pacer records and
       bitmaps; the bound is that plus 50%), and throughput must stay
       within an order of magnitude of the dev box (4-7e6 ev/s). *)
    le "eventcore" "words_per_event" 0.30;
    ge "eventcore" "events_per_sec" 1.5e6;
    (* Two domains over the 1-shard windowed runtime; one core would
       only time-slice them. *)
    ge ~min_cores:2 "eventcore" "sharded_2_speedup" 1.3;
    (* The SwitchV2P on-switch path allocates nothing per dispatch, on
       the warm hit loop and on the miss loop, which must really take
       the rider paths it claims to gate. *)
    le "scheme" "words_per_dispatch" 0.0;
    le "scheme" "miss_words_per_dispatch" 0.0;
    (* The gateway-ToR learning-packet coin, drawn per resolved packet. *)
    le "scheme" "learn_words_per_dispatch" 0.0;
    ge "scheme" "miss_spills_attached" 1.0;
    ge "scheme" "miss_spills_absorbed" 1.0;
    ge "scheme" "miss_promotions" 1.0;
    (* FT16-400K fits one process with >= 10^6 mappings. Live words
       per VM are an exact count (6.29 measured: one word per mapping,
       cache line and packet rider; 10.4 when placements, mapping
       versions and cache lines took two or three words each); the
       bound is that plus 10%. Peak RSS is process-wide: 50 MB for
       [ft16] alone, 68 MB after [eventcore] and [scheme] in the same
       process (the CI smoke's order); the bound is 1.25x the latter. *)
    ge "ft16" "mappings" 1e6;
    le "ft16" "words_per_host" 6.9;
    le "ft16" "peak_rss_mb" 85.0;
    (* The worst geometry at the most favorable frontier corner
       measures ~0.9: below 0.6 a geometry is broken, not different. *)
    ge "cachegeo" "corner_worst_hit_rate" 0.6;
    le "dst" "failed" 0.0;
  ]

let gate_name g =
  Printf.sprintf "%s.%s %s %g" g.target g.metric
    (if g.at_most then "<=" else ">=")
    g.threshold

(* Checks every row whose target ran; returns the number that failed.
   A missing metric fails its row. *)
let check_gates (ran : (string * stats) list) =
  List.fold_left
    (fun failed g ->
      match List.assoc_opt g.target ran with
      | None -> failed
      | Some _ when cores < g.min_cores ->
          Printf.printf "[gate] %s skipped: %d core(s)\n" (gate_name g) cores;
          failed
      | Some stats -> (
          let v =
            match List.assoc_opt g.metric stats with
            | Some (Json.Float v) -> Some v
            | Some (Json.Int v) -> Some (float_of_int v)
            | _ -> None
          in
          match v with
          | Some v when if g.at_most then v <= g.threshold else v >= g.threshold
            ->
              failed
          | Some v ->
              Printf.eprintf "FAIL gate %s: measured %g\n" (gate_name g) v;
              failed + 1
          | None ->
              Printf.eprintf "FAIL gate %s: metric missing\n" (gate_name g);
              failed + 1))
    0 gates

(* --- Report: BENCH_sweep.json, one entry per target ---------------- *)

let report_path = "BENCH_sweep.json"
let report_schema = "bench_sweep/v2"

(* Entries of an earlier report, or none if it is absent, unreadable
   or of another schema. *)
let read_entries () =
  match In_channel.with_open_bin report_path In_channel.input_all with
  | exception Sys_error _ -> []
  | text -> (
      match Json.parse text with
      | Ok doc when Json.member "schema" doc = Some (Json.Str report_schema) -> (
          match Json.member "targets" doc with
          | Some (Json.Obj entries) -> entries
          | _ -> [])
      | _ -> [])

(* Replaces the entries this run produced, keeps the rest in place,
   and appends new targets; one target per line. *)
let write_report fresh =
  let old = read_entries () in
  let entries =
    List.map
      (fun (k, v) -> (k, Option.value ~default:v (List.assoc_opt k fresh)))
      old
    @ List.filter (fun (k, _) -> not (List.mem_assoc k old)) fresh
  in
  let line (k, v) = Printf.sprintf "  %s: %s" (Json.to_string (Json.Str k)) (Json.to_string v) in
  Out_channel.with_open_bin report_path (fun oc ->
      Printf.fprintf oc "{\"schema\": %s, \"targets\": {\n%s\n}}\n"
        (Json.to_string (Json.Str report_schema))
        (String.concat ",\n" (List.map line entries)));
  Printf.printf "\n[sweep report written to %s]\n%!" report_path

(* Runs one target and returns its report entry: wall time, the pool
   tasks it ran and their summed wall time ([task_s /. wall_s]
   estimates the speedup over a sequential sweep), and its stats. *)
let time_it ~key title f =
  Parallel.reset_counters ();
  let t0 = Unix.gettimeofday () in
  let stats = f () in
  let wall = Unix.gettimeofday () -. t0 in
  let c = Parallel.counters () in
  Printf.printf "\n[%s finished in %.1fs]\n%!" title wall;
  ( key,
    stats,
    Json.Obj
      [
        ("title", Json.Str title);
        ("scale", Json.Str (scale_name ()));
        ("jobs", Json.Int c.Parallel.max_jobs);
        ("cores", Json.Int cores);
        ("wall_s", Json.Float wall);
        ("tasks", Json.Int c.Parallel.tasks);
        ("task_s", Json.Float c.Parallel.busy_seconds);
        ( "effective_speedup",
          Json.Float (if wall > 0.0 then c.Parallel.busy_seconds /. wall else 1.0)
        );
        ("stats", Json.Obj stats);
      ] )

(* A paper table or figure: printed, nothing recorded. *)
let table f () : stats =
  f ();
  []

let fig5 kind () = Fig5.print (Fig5.run ~scale:!scale kind)

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

(* The full frontier, plus the worst geometry's hit rate at its most
   favorable corner (highest locality, largest cache) for [gates]. *)
let cachegeo () =
  let module Cg = Experiments.Cache_geometry in
  let t = Cg.run ~scale:!scale () in
  Cg.print t;
  let best_locality = List.fold_left max neg_infinity t.Cg.localities in
  let best_pct = List.fold_left max min_int t.Cg.cache_pcts in
  let corner =
    List.filter
      (fun (p : Cg.point) ->
        p.Cg.locality = best_locality && p.Cg.cache_pct = best_pct)
      t.Cg.points
  in
  let worst =
    match corner with
    | [] -> 0.0
    | p :: ps ->
        List.fold_left
          (fun acc (p : Cg.point) -> min acc p.Cg.hit_rate)
          p.Cg.hit_rate ps
  in
  let point (p : Cg.point) =
    Json.Obj
      [
        ("geometry", Json.Str p.Cg.geometry);
        num "locality" p.Cg.locality;
        int "cache_pct" p.Cg.cache_pct;
        int "slots" p.Cg.slots;
        int "sram_bits" p.Cg.sram_bits;
        int "refs" p.Cg.refs;
        int "hits" p.Cg.hits;
        num "hit_rate" p.Cg.hit_rate;
      ]
  in
  [
    num "corner_worst_hit_rate" worst;
    ( "frontier",
      Json.Obj
        [
          ("geometries", Json.List (List.map (fun g -> Json.Str g) t.Cg.geometries));
          ("localities", Json.List (List.map (fun l -> Json.Float l) t.Cg.localities));
          ("cache_pcts", Json.List (List.map (fun c -> Json.Int c) t.Cg.cache_pcts));
          ("points", Json.List (List.map point t.Cg.points));
        ] );
  ]

(* --- Event-core benchmark: forwarding-path throughput -------------- *)

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
  for i = 1 to 100 do
    run_one i ~packets:32 (* warmup: JIT nothing, but warm pools/caches *)
  done;
  let eng = Netsim.Network.engine net in
  let ev0 = Dessim.Engine.executed eng in
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  for i = 1 to 20_000 do
    run_one i ~packets:32
  done;
  let wall = Unix.gettimeofday () -. t0 in
  let words = Gc.minor_words () -. w0 in
  let events = Dessim.Engine.executed eng - ev0 in
  (events, float_of_int events /. wall, words /. float_of_int events)

(* One logical run for the sharding comparison: a 4-pod FatTree under
   512 all-to-all cross-pod UDP flows of 128 packets, Direct scheme.
   The topology is fresh per call, since links carry per-run queue
   state. *)
let parcore_workload () =
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
  let rng = Dessim.Rng.create 4242 in
  let flows =
    List.init 512 (fun i ->
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
  (topo, flows)

let parcore_until = Dessim.Time_ns.of_ms 25

type parcore_run = { events : int; wall : float; windows : int; handoffs : int }

(* The workload on the classic single-domain [Network.run]. *)
let classic_measure () =
  let topo, flows = parcore_workload () in
  let net = Netsim.Network.create topo ~scheme:(Schemes.Baselines.direct ()) in
  let t0 = Unix.gettimeofday () in
  Netsim.Network.run net flows ~migrations:[] ~until:parcore_until;
  let wall = Unix.gettimeofday () -. t0 in
  let events = Dessim.Engine.executed (Netsim.Network.engine net) in
  { events; wall; windows = 0; handoffs = 0 }

(* The workload as one domain-sharded run (Netsim.Parnet), partitioned
   by pod. [shards = 1] is the same windowed runtime on one domain. *)
let parcore_measure ~shards =
  let topo, flows = parcore_workload () in
  let t0 = Unix.gettimeofday () in
  let par =
    Netsim.Parnet.run ~shards topo
      ~fresh_scheme:(fun ~shard:_ -> Schemes.Baselines.direct ())
      ~flows ~migrations:[] ~until:parcore_until
  in
  let wall = Unix.gettimeofday () -. t0 in
  let sum f = Array.fold_left (fun acc net -> acc + f net) 0 (Netsim.Parnet.nets par) in
  {
    events = sum (fun net -> Dessim.Engine.executed (Netsim.Network.engine net));
    wall;
    windows = Netsim.Parnet.windows par;
    handoffs = sum Netsim.Network.handoffs_sent;
  }

let eps r = float_of_int r.events /. r.wall

(* The arms of the sharding comparison: 0 is the classic loop, n > 0
   the windowed runtime on n shards. *)
let parcore_arms = [ 0; 1; 2; 4 ]

let arm_measure n = if n = 0 then classic_measure () else parcore_measure ~shards:n

(* Every arm, warmed up once, then timed over [rounds] rounds whose order
   reverses each round, so no arm always runs first or last; each arm
   reports its median wall time (its event counts repeat exactly). A
   fixed order read the 1-shard arm at 0.97x and 1.42x of classic in two
   sessions, and the gated 2-shard ratio at 0.41 and 1.26 in
   consecutive runs. *)
let parcore_medians ~rounds =
  List.iter (fun n -> ignore (arm_measure n : parcore_run)) parcore_arms;
  let runs = List.map (fun n -> (n, ref [])) parcore_arms in
  for round = 0 to rounds - 1 do
    let order = if round land 1 = 0 then parcore_arms else List.rev parcore_arms in
    List.iter
      (fun n ->
        let rs = List.assoc n runs in
        rs := arm_measure n :: !rs)
      order
  done;
  List.map
    (fun (n, rs) ->
      let walls = List.sort compare (List.map (fun r -> r.wall) !rs) in
      (n, { (List.hd !rs) with wall = List.nth walls (List.length walls / 2) }))
    runs

(* The classic engine's throughput on its own workload, then the
   512-flow run on the classic engine and at 1, 2 and 4 shards (median
   of 3 alternating rounds). [sharded_N_speedup] is events/sec over the
   1-shard windowed runtime (the gated ratio); [sharded_N_vs_classic] is
   classic wall time over sharded wall time for the same logical
   run. *)
let eventcore () : stats =
  let events, ev_s, wpe = eventcore_measure () in
  Printf.printf
    "\n== event core (forwarding path) ==\n\
    \  events executed   %9d\n\
    \  events/sec        %.3e\n\
    \  words/event       %9.2f\n"
    events ev_s wpe;
  let arms = parcore_medians ~rounds:3 in
  let classic = List.assoc 0 arms in
  let sharded = List.filter (fun (n, _) -> n > 0) arms in
  let base = eps (List.assoc 1 sharded) in
  Printf.printf
    "  512-flow run, 4-pod FatTree (%d core%s, median of 3 alternating rounds):\n"
    cores
    (if cores = 1 then "" else "s");
  Printf.printf "    classic    %9d ev   %.3e ev/s   %6.3fs\n" classic.events
    (eps classic) classic.wall;
  List.iter
    (fun (n, r) ->
      Printf.printf
        "    %d shard%s   %9d ev   %.3e ev/s   %6.3fs   %5.2fx 1-shard   \
         %5.2fx classic   %d windows   %d handoffs\n"
        n
        (if n = 1 then " " else "s")
        r.events (eps r) r.wall (eps r /. base) (classic.wall /. r.wall)
        r.windows r.handoffs)
    sharded;
  [
    int "events" events;
    num "events_per_sec" ev_s;
    num "words_per_event" wpe;
    int "classic_events" classic.events;
    num "classic_events_per_sec" (eps classic);
    num "classic_wall_s" classic.wall;
  ]
  @ List.concat_map
      (fun (n, r) ->
        let k = Printf.sprintf "sharded_%d_%s" n in
        [
          int (k "events") r.events;
          num (k "events_per_sec") (eps r);
          num (k "wall_s") r.wall;
          num (k "speedup") (eps r /. base);
          num (k "vs_classic") (classic.wall /. r.wall);
          int (k "windows") r.windows;
          int (k "handoffs") r.handoffs;
        ])
      sharded

(* --- Scheme-pipeline benchmark: per-dispatch allocation ------------ *)

(* Minor-heap words per on-switch dispatch through the full SwitchV2P
   pipeline (classify -> lookup -> learn -> emit), over two loops: a
   warm regular-ToR hit, and the miss path (a gateway-ToR learn that
   evicts and attaches a spill, the next hop absorbing it, a
   regular-spine promotion onto a core). Insert results and riders are
   unboxed ints and the [Dataplane.env] is bound once at
   [Pipeline.prepare], so [gates] holds both steady states at exactly
   zero. *)

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
  let discard = Netcore.Packet.blank () in
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
      (* Emitted packets are dropped, so one packet serves them all. *)
      pooled_packet = (fun () -> discard);
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
      Packet.set_resolved pkt false;
      pkt.Packet.dst_pip <- gw_pip;
      pkt.Packet.hit_switch <- -1;
      ignore (Netsim.Pipeline.run pl env ~switch:tor ~from:sender pkt : int))

(* The miss path, one slot per switch so every learn evicts: a
   gateway-ToR learn alternating two VIPs (evict + spill), the next-hop
   spine absorbing the spill, a regular-spine hit on an access-bit-set
   entry for an inter-pod destination (promotion), and a core absorbing
   the promotion. Learning packets are off, so the loop gates the cache
   paths alone; the learning-packet coin has its own loop below. *)
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
        Packet.set_resolved learn true;
        learn.Packet.dst_pip <- remote_pip;
        Packet.clear_spill learn;
        ignore (Netsim.Pipeline.run pl env ~switch:gw_tor ~from:gw learn : int);
        ignore
          (Netsim.Pipeline.run pl env ~switch:next_hop ~from:gw_tor learn : int);
        Packet.set_resolved hit false;
        hit.Packet.dst_pip <- gw_pip;
        hit.Packet.hit_switch <- -1;
        ignore (Netsim.Pipeline.run pl env ~switch:spine ~from:local hit : int);
        ignore (Netsim.Pipeline.run pl env ~switch:core ~from:spine hit : int);
        incr i)
  in
  (* The rider paths the loop claims to gate; [gates] checks each ran. *)
  let module D = Switchv2p.Dataplane in
  ( r,
    [
      int "miss_spills_attached" (D.spills_attached dp);
      int "miss_spills_absorbed" (D.spills_absorbed dp);
      int "miss_promotions" (D.promotions dp);
    ] )

(* The gateway-ToR emit stage with learning packets on and
   [p_learn = 0]: every resolved packet leaving the gateway draws the
   learning-packet coin ([Rng.bernoulli]) and none is emitted, so the
   loop gates the draw itself, which every miss path pays. *)
let scheme_learn_loop () =
  let module Topology = Topo.Topology in
  let module Packet = Netcore.Packet in
  let config = Switchv2p.Config.make ~learning_packets:true ~p_learn:0.0 () in
  let topo, _dp, pl, env = scheme_rig ~config ~slots_per_switch:64 () in
  let gw_tor =
    Array.to_list (Topology.tors topo)
    |> List.find (fun sw -> Topology.role topo sw = Topo.Node.Gateway_tor)
  in
  let gw = (Topology.gateways topo).(0) in
  let hosts = Topology.hosts topo in
  let remote =
    Array.to_list hosts
    |> List.find (fun h -> Topology.pod topo h <> Topology.pod topo gw_tor)
  in
  let dst_pip = Topology.pip topo hosts.(0) in
  let pkt =
    Packet.make_data ~id:1 ~flow_id:1 ~seq:0 ~size:1500
      ~src_vip:(Netcore.Addr.Vip.of_int 1_000)
      ~dst_vip:(Netcore.Addr.Vip.of_int 0)
      ~src_pip:(Topology.pip topo remote) ~dst_pip ~now:0
  in
  measure_dispatches ~rounds:200_000 ~per_round:1 (fun () ->
      Packet.set_resolved pkt true;
      Packet.set_gw_visited pkt true;
      pkt.Packet.dst_pip <- dst_pip;
      Packet.clear_spill pkt;
      ignore (Netsim.Pipeline.run pl env ~switch:gw_tor ~from:gw pkt : int))

let scheme_bench () : stats =
  let hit_n, hit_rate, hit_words = scheme_hit_loop () in
  let (miss_n, miss_rate, miss_words), riders = scheme_miss_loop () in
  let learn_n, learn_rate, learn_words = scheme_learn_loop () in
  Printf.printf
    "\n== scheme pipeline (SwitchV2P) ==\n\
    \  hit path   dispatches %d  dispatches/sec %.3e  words/dispatch %.2f\n\
    \  miss path  dispatches %d  dispatches/sec %.3e  words/dispatch %.2f\n\
    \  learn coin dispatches %d  dispatches/sec %.3e  words/dispatch %.2f\n"
    hit_n hit_rate hit_words miss_n miss_rate miss_words learn_n learn_rate
    learn_words;
  [
    int "dispatches" hit_n;
    num "dispatches_per_sec" hit_rate;
    num "words_per_dispatch" hit_words;
    int "miss_dispatches" miss_n;
    num "miss_dispatches_per_sec" miss_rate;
    num "miss_words_per_dispatch" miss_words;
    int "learn_dispatches" learn_n;
    num "learn_dispatches_per_sec" learn_rate;
    num "learn_words_per_dispatch" learn_words;
  ]
  @ riders

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

(* The full FT16-400K preset of the paper's Table 3, in one process:
   build the 12,866-node topology, stand up a SwitchV2P network over it
   (one ground-truth mapping per VM = 384,000, topped up with synthetic
   extra VIPs — endpoints holding several addresses — past 10^6
   mappings), drive a short cross-pod workload, and record peak RSS and
   words/host. Before the CSR topology this preset silently fell off
   the dense-table fast path (built only for n <= 1024) and paid two
   hashtable probes per hop; now every structure is O(n + E) or
   O(num_vms) words, so the whole thing fits comfortably in CI. *)
let ft16 () : stats =
  let module Time_ns = Dessim.Time_ns in
  let module Flow = Netcore.Flow in
  let module Topology = Topo.Topology in
  let t0 = Unix.gettimeofday () in
  let spec = Spec.make ~name:"ft16" ~topo:(Spec.preset `FT16 `Paper) [] in
  let topo = Topology.build (Spec.params_of spec) in
  let build_s = Unix.gettimeofday () -. t0 in
  let num_vms = Spec.num_vms spec in
  let slots = Spec.cache_slots spec (Spec.Pct 10) in
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
  let num_flows = 2_000 in
  let rng = Dessim.Rng.create spec.Spec.topo.Spec.topo_seed in
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
  [
    int "num_nodes" (Topology.num_nodes topo);
    int "num_links" (Topology.num_links topo);
    int "num_vms" num_vms;
    num "mappings" mappings;
    int "flows" num_flows;
    int "events" events;
    num "build_s" build_s;
    num "create_s" create_s;
    num "run_s" run_s;
    num "live_words" live_words;
    num "words_per_host" words_per_host;
    num "peak_rss_mb" rss;
  ]

(* --- Container-churn benchmark: sustained remapping pressure ------- *)

(* A container-overlay migration storm (Workloads.Container_churn)
   against a steady Hadoop workload, expressed as two declarative
   scenarios that differ only in the churn line: the reference run has
   no churn, the storm sustains ~20,000 mappings/sec for 20 ms. Reports
   the remap rate actually scheduled, the invalidation traffic it
   triggers, and how much of the reference hit rate survives. *)
let churn_bench () : stats =
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
    Experiments.Scenario.run_scheme spec (List.hd spec.Spec.schemes)
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
  [
    int "mappings" (Churn.total_mappings episode);
    int "batches" (Churn.num_batches episode);
    num "sustained_mappings_per_sec" (Churn.sustained_rate episode);
    num "invalidation_packets" (extra stormed "invalidation_packets");
    num "entries_invalidated" (extra stormed "entries_invalidated");
    num "hit_rate_reference" ref_hit;
    num "hit_rate_storm" storm_hit;
    num "hit_rate_retained" recovery;
  ]

(* --- DST smoke sweep ------------------------------------------------ *)

(* 25 seeded random fault plans per scheme in the default set, run on
   one shard and again on two (the cross-shard protocol: mailbox
   conservation, handoffs under churn). Failing seeds go to
   DST_failures.txt, which CI uploads as an artifact, and fail the
   [dst.failed] gate. *)
let dst () : stats =
  let module Dst = Experiments.Dst in
  let num_seeds = 25 in
  let sweep shards =
    let outcomes =
      Dst.run_seeds ~shards ~schemes:Dst.default_schemes
        ~seeds:(List.init num_seeds (fun i -> i + 1))
        ()
    in
    let failed = Dst.failed outcomes in
    Printf.printf "dst: %d runs (%s x %d seeds, %d shard%s), %d failed\n%!"
      (List.length outcomes)
      (String.concat "," Dst.default_schemes)
      num_seeds shards
      (if shards = 1 then "" else "s")
      (List.length failed);
    List.map
      (fun o -> Printf.sprintf "shards=%d %s" shards (Format.asprintf "%a" Dst.pp_failure o))
      failed
  in
  let one = sweep 1 in
  let failures = one @ sweep 2 in
  if failures <> [] then begin
    Out_channel.with_open_bin "DST_failures.txt" (fun oc ->
        List.iter (output_string oc) failures);
    List.iter prerr_string failures;
    Printf.eprintf "dst: failing seeds written to DST_failures.txt\n"
  end;
  [ int "seeds" num_seeds; int "failed" (List.length failures) ]

let targets =
  [
    ("fig5a", ("Figure 5a (Hadoop)", table (fig5 Spec.Hadoop)));
    ("fig5b", ("Figure 5b (Microbursts)", table (fig5 Spec.Microbursts)));
    ("fig5c", ("Figure 5c (WebSearch + Controller)", table (fig5 Spec.Websearch)));
    ("fig5d", ("Figure 5d (Video)", table (fig5 Spec.Video)));
    ("fig6", ("Figure 6 (Alibaba, FT16)", table (fig5 Spec.Alibaba)));
    ("fig7", ("Figures 7/8 (bandwidth heatmaps)", table fig7_8));
    ("fig8", ("Figures 7/8 (bandwidth heatmaps)", table fig7_8));
    ("fig9", ("Figure 9 (fewer gateways)", table fig9));
    ("fig10", ("Figure 10 (topology scaling)", table fig10));
    ("tab4", ("Table 4 (VM migration)", table tab4));
    ("tab5", ("Table 5 (hit distribution)", table tab5));
    ("tab6", ("Table 6 (switch resources)", table tab6));
    ("appA2", ("Appendix A.2 (Controller)", table app_a2));
    ("ablation", ("Ablation (design features)", table ablation));
    ("multitenant", ("Multitenant partitions (§4)", table multitenant));
    ("datasets", ("Dataset characterization (§5)", table datasets));
    ("resilience", ("Switch-failure resilience (§2)", table resilience));
    ("dht", ("DHT-store alternative (§2.4)", table dht));
    ("cachegeo", ("Cache geometry study (§3.2)", cachegeo));
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
    "resilience"; "dht"; "cachegeo"; "eventcore"; "scheme"; "ft16";
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
  List.iter
    (fun key ->
      if not (List.mem_assoc key targets) then begin
        Printf.eprintf "unknown target %S; available: %s\n" key
          (String.concat ", " (List.map fst targets));
        exit 1
      end)
    selected;
  Printf.printf "[experiment pool: %d worker%s]\n%!" cores
    (if cores = 1 then "" else "s");
  let ran =
    List.map
      (fun key ->
        let title, f = List.assoc key targets in
        time_it ~key title f)
      selected
  in
  write_report (List.map (fun (key, _, entry) -> (key, entry)) ran);
  let failed = check_gates (List.map (fun (key, stats, _) -> (key, stats)) ran) in
  Printf.printf "[gates: %d failed]\n%!" failed;
  if failed > 0 then exit 1
