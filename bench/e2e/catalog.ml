(* Every metric the benchmark reports, with its unit, direction and
   regression bounds. BENCHMARK.json mirrors these tables; the smoke
   test fails if the two disagree. *)

type better = Lower | Higher

let better_name = function Lower -> "lower" | Higher -> "higher"

(* How [--compare] judges two runs made at the same seed. Simulated
   metrics repeat bit for bit at one seed, so any move in the worse
   direction counts; host metrics may worsen by the larger of [share]
   of the baseline median and [floor] (in the metric's unit). *)
type rule = Exact | Within of { share : float; floor : float }

type e2e = {
  name : string;
  unit : string;
  better : better;
  bound : float;
      (** BENCHMARK.json's bound: the share of the baseline median a
          metric may worsen by across runs at different seeds. It
          covers the spread between seeds as well as host noise, so it
          is wider than [compare]. *)
  compare : rule;
}

let within ?(floor = 0.0) share = Within { share; floor }

let end_to_end =
  [
    { name = "run_s"; unit = "s"; better = Lower; bound = 0.25; compare = within 0.10 };
    { name = "events_per_s"; unit = "1/s"; better = Higher; bound = 0.25; compare = within 0.10 };
    {
      name = "setup_s";
      unit = "s";
      better = Lower;
      bound = 0.25;
      compare = within 0.10 ~floor:0.05;
    };
    { name = "peak_rss_mb"; unit = "MB"; better = Lower; bound = 0.20; compare = within 0.10 };
    {
      name = "alloc_words_per_event";
      unit = "words";
      better = Lower;
      bound = 0.25;
      compare = within 0.0 ~floor:0.05;
    };
    { name = "hit_rate"; unit = "ratio"; better = Higher; bound = 0.20; compare = Exact };
    { name = "fct_p50_us"; unit = "us"; better = Lower; bound = 0.10; compare = Exact };
    { name = "fct_p99_us"; unit = "us"; better = Lower; bound = 0.25; compare = Exact };
    { name = "fpl_mean_us"; unit = "us"; better = Lower; bound = 0.15; compare = Exact };
    {
      name = "flows_completed_frac";
      unit = "ratio";
      better = Higher;
      bound = 0.001;
      compare = Exact;
    };
  ]

type layer = { lname : string; lunit : string; lbetter : better }

let layer lname lunit lbetter = { lname; lunit; lbetter }

(* The SwitchV2P scheme's own [stats ()] keys; other schemes report
   them as 0. *)
let scheme_stats =
  [
    "learning_packets";
    "invalidation_packets";
    "invalidations_suppressed";
    "promotions";
    "spills_attached";
    "spills_absorbed";
    "entries_invalidated";
    "misdelivery_tags";
  ]

let per_layer =
  [
    layer "topo.build_s" "s" Lower;
    layer "workloads.gen_s" "s" Lower;
    layer "workloads.flows" "count" Higher;
    layer "schemes.build_s" "s" Lower;
    layer "netsim.create_s" "s" Lower;
    layer "netsim.pipeline.calls" "count" Lower;
    layer "netsim.pipeline.self_s" "s" Lower;
    layer "netsim.pipeline.ns_per_call" "ns" Lower;
    layer "netsim.pipeline.share" "ratio" Lower;
    layer "schemes.resolve_at_host.calls" "count" Lower;
    layer "schemes.resolve_at_host.self_s" "s" Lower;
    layer "schemes.on_mapping_update.calls" "count" Lower;
    layer "schemes.on_misdelivery.calls" "count" Lower;
  ]
  @ List.map (fun k -> layer ("schemes.stats." ^ k) "count" Lower) scheme_stats
  @ [
      layer "sim.engine.events" "count" Lower;
      layer "sim.engine.pending_mean" "events" Lower;
      layer "sim.engine.pending_max" "events" Lower;
      layer "sim.engine.hold_ns_per_event" "ns" Lower;
      layer "topo.routing.ns_per_next_hop" "ns" Lower;
      layer "gc.minor_words_per_event" "words" Lower;
      layer "gc.minor_collections" "count" Lower;
      layer "gc.major_collections" "count" Lower;
      layer "gc.promoted_words" "words" Lower;
      layer "netsim.metrics.packets_sent" "count" Lower;
      layer "netsim.metrics.gateway_packets" "count" Lower;
      layer "netsim.metrics.delivered" "count" Higher;
      layer "netsim.metrics.dropped" "count" Lower;
      layer "netsim.metrics.retransmits" "count" Lower;
      layer "netsim.metrics.misdelivered" "count" Lower;
      layer "netsim.transport.reordering_events" "count" Lower;
      layer "netsim.unattributed_s" "s" Lower;
      layer "trace.overhead" "ratio" Lower;
      layer "trace.empty_span_ns" "ns" Lower;
    ]

let find_e2e name = List.find (fun m -> m.name = name) end_to_end
let find_layer name = List.find (fun m -> m.lname = name) per_layer
