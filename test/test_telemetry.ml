(* Telemetry subsystem tests: histogram bucket-edge geometry, JSON
   round-tripping, and the determinism guard — enabling telemetry must
   not change a single simulation result. *)

module Telemetry = Dessim.Telemetry
module Json = Dessim.Telemetry.Json
module Histogram = Dessim.Telemetry.Histogram
module Runner = Experiments.Runner
module Spec = Netsim.Scenario
module Report = Experiments.Report

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let json_testable =
  Alcotest.testable (fun ppf j -> Format.pp_print_string ppf (Json.to_string j)) ( = )

(* --- histograms --- *)

let test_bucket_edges () =
  (* One bucket per decade starting at 1.0: edges 1, 10, 100, 1000. *)
  let h = Histogram.create ~lo:1.0 ~buckets_per_decade:1 ~decades:3 () in
  checki "three buckets" 3 (Histogram.num_buckets h);
  for i = 0 to Histogram.num_buckets h - 1 do
    let lo_e, hi_e = Histogram.bucket_bounds h i in
    (* A lower edge opens its own bucket (half-open intervals)... *)
    checki (Printf.sprintf "lower edge of bucket %d" i) i
      (Histogram.bucket_index h lo_e);
    (* ...an interior point stays inside... *)
    checki
      (Printf.sprintf "midpoint of bucket %d" i)
      i
      (Histogram.bucket_index h ((lo_e +. hi_e) /. 2.0));
    (* ...and the upper edge already belongs to the next bucket. *)
    checki
      (Printf.sprintf "upper edge of bucket %d" i)
      (i + 1)
      (Histogram.bucket_index h hi_e)
  done;
  checki "below lo underflows" (-1) (Histogram.bucket_index h 0.5);
  checki "zero underflows" (-1) (Histogram.bucket_index h 0.0);
  checki "top edge overflows" 3 (Histogram.bucket_index h 1000.0);
  checki "far out overflows" 3 (Histogram.bucket_index h 1e9)

let test_record_and_counters () =
  let h = Histogram.create ~lo:1.0 ~buckets_per_decade:1 ~decades:3 () in
  Histogram.record h 0.5;
  (* underflow *)
  Histogram.record h 5.0;
  (* bucket 0 *)
  Histogram.record h 50.0;
  (* bucket 1 *)
  Histogram.record h 5000.0;
  (* overflow *)
  checki "count includes under/overflow" 4 (Histogram.count h);
  checki "underflow" 1 (Histogram.underflow h);
  checki "overflow" 1 (Histogram.overflow h);
  checki "bucket 0" 1 (Histogram.bucket_count h 0);
  checki "bucket 1" 1 (Histogram.bucket_count h 1);
  checki "bucket 2" 0 (Histogram.bucket_count h 2);
  checkb "sum" true (Float.abs (Histogram.sum h -. 5055.5) < 1e-9);
  checkb "mean" true (Float.abs (Histogram.mean h -. (5055.5 /. 4.0)) < 1e-9)

let test_percentile_conservative () =
  (* Default geometry: 20 buckets/decade, so a bucket spans a factor of
     10^(1/20) ~ 1.122. The reported percentile is the upper edge of
     the bucket holding the ranked sample: never below the true value
     and at most ~12.2% above it. *)
  let h = Histogram.create () in
  for i = 1 to 100 do
    Histogram.record h (float_of_int i *. 1e-3)
  done;
  let p50 = Histogram.percentile h 50.0 in
  let p90 = Histogram.percentile h 90.0 in
  let p99 = Histogram.percentile h 99.0 in
  checkb "p50 above true value" true (p50 >= 0.050);
  checkb "p50 within one bucket" true (p50 <= 0.050 *. 1.13);
  checkb "p90 above true value" true (p90 >= 0.090);
  checkb "p99 above true value" true (p99 >= 0.099);
  checkb "monotone" true (p50 <= p90 && p90 <= p99);
  checkb "empty is zero" true
    (Histogram.percentile (Histogram.create ()) 99.0 = 0.0)

let test_histogram_json () =
  let h = Histogram.create ~lo:1.0 ~buckets_per_decade:1 ~decades:3 () in
  Histogram.record h 5.0;
  Histogram.record h 7.0;
  let j = Histogram.to_json h in
  checkb "count field" true (Json.member "count" j = Some (Json.Int 2));
  (match Json.member "buckets" j with
  | Some (Json.List [ Json.List [ Json.Int 0; _; _; Json.Int 2 ] ]) -> ()
  | _ -> Alcotest.fail "expected a single populated bucket [0,lo,hi,2]");
  (* The JSON form must itself survive print-and-parse. *)
  match Json.parse (Json.to_string j) with
  | Ok j' -> Alcotest.check json_testable "histogram json round-trips" j j'
  | Error e -> Alcotest.fail e

(* --- JSON --- *)

let test_json_round_trip () =
  let doc =
    Json.Obj
      [
        ("schema", Json.Str "switchv2p-telemetry/v1");
        ( "manifest",
          Json.Obj
            [
              ("scheme", Json.Str "SwitchV2P");
              ("seed", Json.Int 42);
              ("horizon_s", Json.Float 0.0125);
              ("git_rev", Json.Str "deadbeef");
              ( "topology",
                Json.Obj [ ("pods", Json.Int 8); ("racks_per_pod", Json.Int 4) ]
              );
            ] );
        ("empty_obj", Json.Obj []);
        ("empty_list", Json.List []);
        ("null", Json.Null);
        ("flags", Json.List [ Json.Bool true; Json.Bool false ]);
        ("negative", Json.Int (-17));
        ("tiny_float", Json.Float 3.177e-7);
        ("escapes", Json.Str "quote\" slash\\ nl\n tab\t ctl\001");
      ]
  in
  match Json.parse (Json.to_string doc) with
  | Ok doc' -> Alcotest.check json_testable "document round-trips" doc doc'
  | Error e -> Alcotest.fail e

let test_json_int_float_distinction () =
  (* A float that happens to be integral must not collapse into an Int
     across a round trip, and vice versa. *)
  (match Json.parse (Json.to_string (Json.Float 3.0)) with
  | Ok (Json.Float 3.0) -> ()
  | Ok j -> Alcotest.fail ("expected Float 3.0, got " ^ Json.to_string j)
  | Error e -> Alcotest.fail e);
  (match Json.parse (Json.to_string (Json.Int 3)) with
  | Ok (Json.Int 3) -> ()
  | Ok j -> Alcotest.fail ("expected Int 3, got " ^ Json.to_string j)
  | Error e -> Alcotest.fail e);
  (* Scientific notation parses as a float. *)
  match Json.parse "1e-3" with
  | Ok (Json.Float f) -> checkb "1e-3" true (Float.abs (f -. 0.001) < 1e-12)
  | _ -> Alcotest.fail "expected Float"

let test_json_parse_errors () =
  let is_error s =
    match Json.parse s with Ok _ -> false | Error _ -> true
  in
  checkb "trailing garbage" true (is_error "{}x");
  checkb "unterminated list" true (is_error "[1,2");
  checkb "unterminated string" true (is_error "\"abc");
  checkb "bare word" true (is_error "nope");
  checkb "empty input" true (is_error "");
  checkb "whitespace ok" false (is_error "  { \"a\" : [ 1 , null ] }  ")

let test_json_member () =
  let j = Json.Obj [ ("a", Json.Int 1); ("b", Json.Null) ] in
  checkb "present" true (Json.member "a" j = Some (Json.Int 1));
  checkb "absent" true (Json.member "c" j = None);
  checkb "non-object" true (Json.member "a" (Json.List []) = None)

(* --- collector plumbing --- *)

let test_disabled_is_inert () =
  let t = Telemetry.disabled in
  checkb "disabled" false (Telemetry.is_enabled t);
  Telemetry.observe t "x" 1.0;
  Telemetry.sample t "y" ~now_sec:0.0 2.0;
  Telemetry.trace t ~now_sec:0.0 ~pkt:0 ~node:0 "ev";
  checkb "no histogram created" true (Telemetry.histogram t "x" = None);
  checki "no flight events" 0 (Telemetry.flight_events t)

let test_flight_sampling () =
  let t = Telemetry.create ~flight_sample_every:4 ~max_flight_events:3 () in
  for pkt = 0 to 15 do
    Telemetry.trace t ~now_sec:0.0 ~pkt ~node:1 "seen"
  done;
  (* pkts 0,4,8 are sampled; 12 hits the cap. *)
  checki "cap respected" 3 (Telemetry.flight_events t);
  checkb "unsampled id rejected" false (Telemetry.should_trace t ~pkt:5)

(* --- the determinism guard --- *)

let render_result (r : Runner.result) =
  let b = Buffer.create 1024 in
  let f name v = Buffer.add_string b (Printf.sprintf "%s=%.17g\n" name v) in
  let i name v = Buffer.add_string b (Printf.sprintf "%s=%d\n" name v) in
  let counts name kvs =
    List.iter (fun (k, v) -> i (name ^ "." ^ k) v) kvs
  in
  Buffer.add_string b (r.Runner.scheme ^ "\n");
  f "hit_rate" r.Runner.hit_rate;
  f "mean_fct" r.Runner.mean_fct;
  f "mean_fpl" r.Runner.mean_fpl;
  f "mean_pkt_latency" r.Runner.mean_pkt_latency;
  f "stretch" r.Runner.stretch;
  i "gw_packets" r.Runner.gw_packets;
  i "packets_sent" r.Runner.packets_sent;
  i "packets_dropped" r.Runner.packets_dropped;
  counts "drops_by_kind" r.Runner.drops_by_kind;
  counts "drops_by_site" r.Runner.drops_by_site;
  i "misdelivered" r.Runner.misdelivered;
  i "flows_started" r.Runner.flows_started;
  i "flows_completed" r.Runner.flows_completed;
  i "reordering" r.Runner.reordering_events;
  let core, spine, tor, gw, host = r.Runner.layer_hits in
  List.iter2 i
    [ "hits.core"; "hits.spine"; "hits.tor"; "hits.gw"; "hits.host" ]
    [ core; spine; tor; gw; host ];
  List.iter (fun (k, v) -> f ("extra." ^ k) v) r.Runner.extra;
  Array.iter (fun (pod, bytes) -> i (Printf.sprintf "pod%d" pod) bytes)
    r.Runner.bytes_by_pod;
  Array.iter (fun (sw, bytes) -> i (Printf.sprintf "sw%d" sw) bytes)
    r.Runner.bytes_by_switch;
  Buffer.contents b

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let fresh_dir () =
  let path = Filename.temp_file "sv2p-telemetry" "" in
  Sys.remove path;
  path

let test_telemetry_off_byte_identical () =
  let spec =
    Spec.make ~name:"telemetry"
      ~topo:(Spec.preset `FT8 `Tiny)
      ~streams:[ Spec.stream Spec.Hadoop ]
      [ Spec.scheme (Spec.switchv2p (Spec.Pct 100)) ]
  in
  let run_once () =
    Experiments.Scenario.run_scheme ~report_name:"telemetry/guard" spec
      (List.hd spec.Spec.schemes)
  in
  (* Plain run: no telemetry dir, the collector stays disabled. *)
  Report.set_telemetry_dir None;
  let plain = render_result (run_once ()) in
  (* Instrumented run: same seed, same flows, telemetry enabled. *)
  let dir = fresh_dir () in
  Report.set_telemetry_dir (Some dir);
  let instrumented =
    Fun.protect
      ~finally:(fun () -> Report.set_telemetry_dir None)
      (fun () -> render_result (run_once ()))
  in
  checks "results byte-identical with telemetry on" plain instrumented;
  (* The instrumented run must have produced a well-formed report. *)
  let path = Filename.concat dir (Report.slug "telemetry/guard" ^ ".json") in
  checkb "report written" true (Sys.file_exists path);
  match Json.parse (read_file path) with
  | Error e -> Alcotest.fail ("report does not parse: " ^ e)
  | Ok doc ->
      checkb "schema tag" true
        (Json.member "schema" doc
        = Some (Json.Str "switchv2p-telemetry/v1"));
      let manifest = Option.get (Json.member "manifest" doc) in
      checkb "manifest scheme" true
        (Json.member "scheme" manifest = Some (Json.Str "SwitchV2P"));
      checkb "manifest seed" true
        (match Json.member "seed" manifest with
        | Some (Json.Int _) -> true
        | _ -> false);
      checkb "manifest topology" true
        (match Json.member "topology" manifest with
        | Some (Json.Obj _) -> true
        | _ -> false);
      let histograms = Option.get (Json.member "histograms" doc) in
      checkb "fct histogram present" true
        (Json.member "fct_s" histograms <> None);
      checkb "latency histogram present" true
        (Json.member "packet_latency_s" histograms <> None);
      let series = Option.get (Json.member "series" doc) in
      checkb "per-tier series present" true
        (Json.member "tier/tor/occupancy" series <> None);
      checkb "network series present" true
        (Json.member "net/flows_completed" series <> None);
      (match Json.member "drops_by_kind" doc with
      | Some (Json.Obj kvs) ->
          Alcotest.check
            (Alcotest.list Alcotest.string)
            "all four kinds accounted"
            [ "data"; "ack"; "learning"; "invalidation" ]
            (List.map fst kvs)
      | _ -> Alcotest.fail "drops_by_kind missing");
      (match Json.member "flight" doc with
      | Some flight ->
          checkb "flight sample rate recorded" true
            (Json.member "sample_every" flight = Some (Json.Int 64))
      | None -> Alcotest.fail "flight section missing")

let () =
  Alcotest.run "telemetry"
    [
      ( "histogram",
        [
          Alcotest.test_case "bucket edges" `Quick test_bucket_edges;
          Alcotest.test_case "record and counters" `Quick
            test_record_and_counters;
          Alcotest.test_case "percentile conservative" `Quick
            test_percentile_conservative;
          Alcotest.test_case "json export" `Quick test_histogram_json;
        ] );
      ( "json",
        [
          Alcotest.test_case "round trip" `Quick test_json_round_trip;
          Alcotest.test_case "int/float distinction" `Quick
            test_json_int_float_distinction;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          Alcotest.test_case "member" `Quick test_json_member;
        ] );
      ( "collector",
        [
          Alcotest.test_case "disabled is inert" `Quick test_disabled_is_inert;
          Alcotest.test_case "flight sampling" `Quick test_flight_sampling;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "telemetry-off byte-identical" `Slow
            test_telemetry_off_byte_identical;
        ] );
    ]
