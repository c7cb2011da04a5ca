(* Shape tests at tiny scale for every experiment: these assert the
   qualitative results the paper reports (who wins, directions of
   effects), not absolute numbers. *)

module Fig5 = Experiments.Fig5
module Fig7_8 = Experiments.Fig7_8
module Fig9 = Experiments.Fig9
module Fig10 = Experiments.Fig10
module Tab4 = Experiments.Tab4
module Tab5 = Experiments.Tab5
module Tab6 = Experiments.Tab6
module App_a2 = Experiments.App_a2
module Ablation = Experiments.Ablation
module Runner = Experiments.Runner
module Spec = Netsim.Scenario

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let series name (t : Fig5.t) = List.assoc name t.Fig5.series

let test_fig5_hadoop_shape () =
  let t = Fig5.run ~scale:`Tiny ~cache_pcts:[ 10; 400 ] Spec.Hadoop in
  let v2p = series "SwitchV2P" t in
  let nc_hit = t.Fig5.nocache.Runner.hit_rate in
  checkb "nocache hit rate is zero" true (nc_hit = 0.0);
  (* Hit rate grows with cache size. *)
  checkb "hit grows with cache" true (v2p.(1).Fig5.hit > v2p.(0).Fig5.hit);
  (* At a large cache, SwitchV2P clearly beats NoCache on FCT... *)
  checkb "fct improves" true (v2p.(1).Fig5.fct_x > 1.2);
  (* ...and beats LocalLearning, the strawman. *)
  let ll = series "LocalLearning" t in
  checkb "beats locallearning on hit" true (v2p.(1).Fig5.hit > ll.(1).Fig5.hit);
  checkb "beats locallearning on fct" true (v2p.(1).Fig5.fct_x > ll.(1).Fig5.fct_x);
  (* Direct is the (unreachable) ideal. *)
  let d = series "Direct" t in
  checkb "direct is the upper bound" true (d.(1).Fig5.fct_x >= v2p.(1).Fig5.fct_x)

let test_fig5_video_no_reuse () =
  let t = Fig5.run ~scale:`Tiny ~cache_pcts:[ 400 ] Spec.Video in
  let v2p = series "SwitchV2P" t in
  (* No destination reuse: first-packet latency cannot improve much. *)
  checkb "no first-packet win without reuse" true (v2p.(0).Fig5.fpl_x < 1.5)

let test_fig5_microbursts_runs () =
  let t = Fig5.run ~scale:`Tiny ~cache_pcts:[ 100 ] Spec.Microbursts in
  let v2p = series "SwitchV2P" t in
  checkb "some hits" true (v2p.(0).Fig5.hit > 0.0)

let test_fig6_alibaba_shape () =
  let t = Fig5.run ~scale:`Tiny ~cache_pcts:[ 200 ] Spec.Alibaba in
  let v2p = series "SwitchV2P" t in
  (* RPC traffic has strong reuse: high hit rates and real FCT wins. *)
  checkb "high hit rate" true (v2p.(0).Fig5.hit > 0.5);
  checkb "fct improves" true (v2p.(0).Fig5.fct_x > 1.0)

let test_fig7_gateway_load_reduction () =
  let t = Fig7_8.run ~scale:`Tiny ~cache_pct:100 () in
  let bytes name =
    let r = List.assoc name t.Fig7_8.results in
    Array.fold_left (fun acc (_, b) -> acc + b) 0 r.Runner.bytes_by_pod
  in
  (* SwitchV2P reduces total processed bytes vs NoCache and sits above
     Direct. *)
  checkb "v2p below nocache" true (bytes "SwitchV2P" < bytes "NoCache");
  checkb "direct is the floor" true (bytes "Direct" <= bytes "SwitchV2P");
  (* The gateway pod itself gets visibly cooler. *)
  let gw_pod_bytes name =
    let r = List.assoc name t.Fig7_8.results in
    List.assoc t.Fig7_8.gateway_pod
      (Array.to_list r.Runner.bytes_by_pod)
  in
  checkb "gateway pod cooler" true
    (gw_pod_bytes "SwitchV2P" < gw_pod_bytes "NoCache")

let test_fig7_stretch_ordering () =
  let t = Fig7_8.run ~scale:`Tiny ~cache_pct:100 () in
  let stretch name = (List.assoc name t.Fig7_8.results).Runner.stretch in
  checkb "direct < v2p" true (stretch "Direct" <= stretch "SwitchV2P");
  checkb "v2p < nocache" true (stretch "SwitchV2P" < stretch "NoCache")

let test_fig9_gateway_resilience () =
  let t = Fig9.run ~scale:`Tiny ~cache_pct:100 () in
  let last (name : string) =
    let pts = List.assoc name t.Fig9.series in
    pts.(Array.length pts - 1)
  in
  let first (name : string) = (List.assoc name t.Fig9.series).(0) in
  (* With 10x fewer gateways SwitchV2P retains most of its FCT... *)
  let v2p_hold = (last "SwitchV2P").Fig9.fct_x /. (first "SwitchV2P").Fig9.fct_x in
  let nc_hold = (last "NoCache").Fig9.fct_x /. (first "NoCache").Fig9.fct_x in
  checkb "v2p holds better than nocache" true (v2p_hold > nc_hold);
  checkb "v2p still beats nocache baseline" true ((last "SwitchV2P").Fig9.fct_x > 1.0)

let test_fig10_runs_all_sizes () =
  let t = Fig10.run ~cache_pct:100 ~total_hosts:16 () in
  checkb "several pod counts" true (List.length t.Fig10.pod_counts >= 2);
  List.iter
    (fun (_, pts) ->
      Array.iter
        (fun p -> checkb "fct factor positive" true (p.Fig10.fct_x > 0.0))
        pts)
    t.Fig10.series

let test_tab4_shape () =
  let t = Tab4.run ~scale:`Tiny ~senders:8 () in
  let row v = List.find (fun r -> r.Tab4.variant = v) t.Tab4.rows in
  let nocache = row "NoCache" in
  let ondemand = row "OnDemand" in
  let no_inval = row "SwitchV2P w/o invalidations" in
  let no_ts = row "SwitchV2P w/o timestamp vector" in
  let full = row "SwitchV2P w/ timestamp vector" in
  checkb "nocache all via gateway" true (nocache.Tab4.gateway_pkt_share > 0.99);
  checkb "ondemand no gateway" true (ondemand.Tab4.gateway_pkt_share < 0.01);
  checkb "switchv2p mostly cached" true (full.Tab4.gateway_pkt_share < 0.5);
  checkb "caching cuts latency" true (full.Tab4.latency_x < 0.8);
  (* Invalidations cut misdeliveries. *)
  checkb "invalidations help" true
    (no_ts.Tab4.misdelivered_x < no_inval.Tab4.misdelivered_x);
  (* The timestamp vector slashes invalidation traffic. *)
  checkb "ts vector reduces invalidations" true
    (full.Tab4.invalidation_packets < no_ts.Tab4.invalidation_packets);
  checki "no invalidations when disabled" 0 no_inval.Tab4.invalidation_packets

let test_tab5_distributions_normalized () =
  let t = Tab5.run ~scale:`Tiny ~cache_pct:100 () in
  checki "five traces" 5 (List.length t.Tab5.rows);
  List.iter
    (fun r ->
      let s = r.Tab5.total in
      let sum = s.Tab5.core +. s.Tab5.spine +. s.Tab5.tor in
      checkb "normalized or empty" true
        (Float.abs (sum -. 1.0) < 1e-6 || sum = 0.0))
    t.Tab5.rows

let test_tab5_tcp_hits_mostly_tor () =
  let t = Tab5.run ~scale:`Tiny ~cache_pct:100 () in
  let hadoop = List.find (fun r -> r.Tab5.trace = "Hadoop") t.Tab5.rows in
  checkb "ToR dominates total hits" true (hadoop.Tab5.total.Tab5.tor > 0.5)

let test_tab6_values () =
  let t = Tab6.run () in
  checkb "sram plausible" true
    (t.Tab6.usage.P4model.Resources.sram > 3.0
    && t.Tab6.usage.P4model.Resources.sram < 5.0)

let test_dist_of_normalization () =
  let d = Tab5.dist_of ~core:1 ~spine:1 ~tor:2 in
  checkb "quarters" true
    (Float.abs (d.Tab5.core -. 0.25) < 1e-9
    && Float.abs (d.Tab5.tor -. 0.5) < 1e-9);
  let z = Tab5.dist_of ~core:0 ~spine:0 ~tor:0 in
  checkb "all-zero stays zero" true (z.Tab5.core = 0.0 && z.Tab5.tor = 0.0)

let test_app_a2_runs () =
  let t = App_a2.run ~scale:`Tiny ~cache_pcts:[ 50 ] () in
  checki "four schemes" 4 (List.length t.App_a2.series);
  List.iter
    (fun (_, cells) ->
      Array.iter
        (fun c -> checkb "sane hit rate" true (c.App_a2.hit >= 0.0 && c.App_a2.hit <= 1.0))
        cells)
    t.App_a2.series

let test_ablation_full_is_best_or_close () =
  let t = Experiments.Ablation.run ~scale:`Tiny ~cache_pct:100 () in
  let full = List.find (fun r -> r.Ablation.variant = "full") t.Ablation.rows in
  List.iter
    (fun r ->
      checkb
        (Printf.sprintf "full >= %s - slack" r.Ablation.variant)
        true
        (full.Ablation.hit +. 0.15 >= r.Ablation.hit))
    t.Ablation.rows

let test_resilience_shape () =
  let t = Experiments.Resilience.run ~scale:`Tiny () in
  checki "no flow lost to the failure" t.Experiments.Resilience.flows_started
    t.Experiments.Resilience.flows_completed;
  checkb "hit rate at most mildly affected" true
    (t.Experiments.Resilience.hit_with_failure
    >= t.Experiments.Resilience.hit_before -. 0.2)

let test_datasets_shape () =
  let t = Experiments.Datasets.run ~scale:`Tiny () in
  let row name =
    List.find (fun r -> r.Experiments.Datasets.trace = name) t.Experiments.Datasets.rows
  in
  let reuse name =
    Workloads.Trace_stats.reuse_fraction (row name).Experiments.Datasets.stats
  in
  checkb "hadoop reuse-heavy" true (reuse "Hadoop" > 0.5);
  checkb "alibaba reuse-heavy" true (reuse "Alibaba" > 0.5);
  checkb "websearch reuse-free" true (reuse "WebSearch" < 0.1);
  checkb "video reuse-free" true (reuse "Video" = 0.0)

let test_report_slug () =
  Alcotest.check Alcotest.string "slugified" "fig-5a-hit-rate-50"
    (Experiments.Report.slug "Fig 5a: hit rate (50%)");
  Alcotest.check Alcotest.string "no trailing dash" "x"
    (Experiments.Report.slug "X!!!")

let test_report_csv () =
  let out =
    Experiments.Report.csv ~header:[ "a"; "b" ]
      [ [ "1"; "plain" ]; [ "2"; "with,comma" ]; [ "3"; "with\"quote" ] ]
  in
  Alcotest.check Alcotest.string "csv escaping"
    "a,b\n1,plain\n2,\"with,comma\"\n3,\"with\"\"quote\"\n" out

let test_cache_geometry_shape () =
  let t =
    Experiments.Cache_geometry.run ~scale:`Tiny ~localities:[ 0.5 ]
      ~cache_pcts:[ 400 ] ()
  in
  let point name =
    match
      List.find_opt
        (fun p -> p.Experiments.Cache_geometry.geometry = name)
        t.Experiments.Cache_geometry.points
    with
    | Some p -> p
    | None -> Alcotest.fail ("missing frontier point for " ^ name)
  in
  let rate name = (point name).Experiments.Cache_geometry.hit_rate in
  checkb "rates sane" true (rate "direct" > 0.0);
  List.iter
    (fun name ->
      let p = point name in
      checkb (name ^ " hit rate in [0,1]") true
        (p.Experiments.Cache_geometry.hit_rate >= 0.0
        && p.Experiments.Cache_geometry.hit_rate <= 1.0);
      checkb
        (name ^ " sram bits positive")
        true
        (p.Experiments.Cache_geometry.sram_bits > 0))
    t.Experiments.Cache_geometry.geometries;
  (* The sketch costs bits: tinylfu points sit strictly to the right
     of their base geometry at equal slots. *)
  checkb "tinylfu costs sketch bits" true
    ((point "direct+tinylfu").Experiments.Cache_geometry.sram_bits
    > (point "direct").Experiments.Cache_geometry.sram_bits)

let test_dht_compare_shape () =
  let t = Experiments.Dht_compare.run ~scale:`Tiny () in
  let find rows name =
    List.find (fun r -> r.Experiments.Dht_compare.scheme = name) rows
  in
  let dht = find t.Experiments.Dht_compare.healthy "DhtStore" in
  let dht_failed = find t.Experiments.Dht_compare.under_failure "DhtStore" in
  let v2p = find t.Experiments.Dht_compare.healthy "SwitchV2P" in
  let v2p_failed = find t.Experiments.Dht_compare.under_failure "SwitchV2P" in
  (* Healthy DHT avoids the gateways entirely. *)
  checki "dht bypasses gateways" 0 dht.Experiments.Dht_compare.gw_packets;
  (* Failure hurts the DHT far more than SwitchV2P (the paper's
     dismissal argument). *)
  checkb "dht degrades under failure" true
    (dht_failed.Experiments.Dht_compare.fct_x
    < dht.Experiments.Dht_compare.fct_x);
  checkb "switchv2p barely moves" true
    (Float.abs
       (v2p_failed.Experiments.Dht_compare.fct_x
       -. v2p.Experiments.Dht_compare.fct_x)
    < 0.5)

let test_runner_improvement_guards () =
  Alcotest.check (Alcotest.float 1e-9) "degenerate baseline" 1.0
    (Runner.improvement ~baseline:0.0 ~v:5.0);
  Alcotest.check (Alcotest.float 1e-9) "degenerate value" 1.0
    (Runner.improvement ~baseline:5.0 ~v:0.0);
  Alcotest.check (Alcotest.float 1e-9) "normal" 2.0
    (Runner.improvement ~baseline:10.0 ~v:5.0)

(* The percent-to-slots arithmetic every experiment sizes its caches
   with, on the tiny FT8 preset. *)
let test_cache_slots () =
  let s = Spec.make ~name:"slots" ~topo:(Spec.preset `FT8 `Tiny) [] in
  let num_vms = Spec.num_vms s in
  checki "tiny FT8 VIP space" 160 num_vms;
  checki "realized setup agrees" num_vms
    (Experiments.Setup.pooled s.Spec.topo).Experiments.Setup.num_vms;
  checki "50% of vips" (num_vms / 2) (Spec.cache_slots s (Spec.Pct 50));
  checki "1500%" (num_vms * 15) (Spec.cache_slots s (Spec.Pct 1500));
  checki "absolute count" 7 (Spec.cache_slots s (Spec.Abs 7));
  Alcotest.check_raises "negative pct"
    (Invalid_argument "Scenario.cache_slots: negative percentage") (fun () ->
      ignore (Spec.cache_slots s (Spec.Pct (-1))))

let () =
  Alcotest.run "experiments"
    [
      ( "fig5/6",
        [
          Alcotest.test_case "hadoop shape" `Slow test_fig5_hadoop_shape;
          Alcotest.test_case "video no reuse" `Slow test_fig5_video_no_reuse;
          Alcotest.test_case "microbursts runs" `Slow test_fig5_microbursts_runs;
          Alcotest.test_case "alibaba shape" `Slow test_fig6_alibaba_shape;
        ] );
      ( "fig7/8",
        [
          Alcotest.test_case "gateway load reduction" `Slow
            test_fig7_gateway_load_reduction;
          Alcotest.test_case "stretch ordering" `Slow test_fig7_stretch_ordering;
        ] );
      ( "fig9/10",
        [
          Alcotest.test_case "gateway resilience" `Slow test_fig9_gateway_resilience;
          Alcotest.test_case "topology scaling runs" `Slow test_fig10_runs_all_sizes;
        ] );
      ( "tables",
        [
          Alcotest.test_case "tab4 migration" `Slow test_tab4_shape;
          Alcotest.test_case "tab5 normalized" `Slow test_tab5_distributions_normalized;
          Alcotest.test_case "tab5 ToR domination" `Slow test_tab5_tcp_hits_mostly_tor;
          Alcotest.test_case "tab6 values" `Quick test_tab6_values;
          Alcotest.test_case "dist_of" `Quick test_dist_of_normalization;
          Alcotest.test_case "appendix A2" `Slow test_app_a2_runs;
          Alcotest.test_case "ablation" `Slow test_ablation_full_is_best_or_close;
        ] );
      ( "extensions",
        [
          Alcotest.test_case "resilience" `Slow test_resilience_shape;
          Alcotest.test_case "datasets" `Quick test_datasets_shape;
          Alcotest.test_case "cache geometry" `Quick test_cache_geometry_shape;
          Alcotest.test_case "dht comparison" `Slow test_dht_compare_shape;
        ] );
      ( "plumbing",
        [
          Alcotest.test_case "report slug" `Quick test_report_slug;
          Alcotest.test_case "report csv" `Quick test_report_csv;
          Alcotest.test_case "improvement guards" `Quick test_runner_improvement_guards;
          Alcotest.test_case "cache slots" `Quick test_cache_slots;
        ] );
    ]
