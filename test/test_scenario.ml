(* Scenario spec layer: lossless text round-trip (QCheck over
   seed-derived random specs), committed-example fidelity and
   validation, golden byte-identical replay of [run --scenario], and
   fixed-shard-count replay determinism. *)

module Spec = Netsim.Scenario
module Scenario = Experiments.Scenario
module Runner = Experiments.Runner
module Fault = Dessim.Fault
module Rng = Dessim.Rng
module Time_ns = Dessim.Time_ns
module Churn = Workloads.Container_churn

let qtest = QCheck_alcotest.to_alcotest
let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* ------------------------------------------------------------------ *)
(* Random valid specs, derived from one integer through our own Rng
   so the generator stays deterministic and shrinkable over ints.     *)

let pick rng l = List.nth l (Rng.int rng (List.length l))

let gen_stream rng parity =
  let trace = pick rng Spec.[ Hadoop; Websearch; Alibaba; Microbursts; Video ] in
  let rate = 0.5 +. (float_of_int (Rng.int rng 64) /. 2.0) in
  let load = 0.05 +. (float_of_int (Rng.int rng 15) /. 20.0) in
  let zipf_alpha =
    if Rng.int rng 3 = 0 then
      Some (0.01 +. (float_of_int (Rng.int rng 200) /. 100.0))
    else None
  in
  let vips = match parity with None -> Spec.All | Some p -> Spec.Parity p in
  Spec.stream ~rate ~load ?zipf_alpha ~vips ~seed_delta:(Rng.int rng 4)
    ~id_base:(Rng.int rng 2 * 1_000_000)
    trace

let gen_slots rng =
  if Rng.int rng 2 = 0 then Spec.Pct (Rng.int rng 200)
  else Spec.Abs (Rng.int rng 5000)

let gen_config rng =
  Switchv2p.Config.make
    ~p_learn:(1.0 /. float_of_int (1 + Rng.int rng 512))
    ~learning_packets:(Rng.int rng 2 = 0)
    ~spillover:(Rng.int rng 2 = 0)
    ~promotion:(Rng.int rng 2 = 0)
    ~source_learning:(Rng.int rng 2 = 0)
    ~invalidations:(Rng.int rng 2 = 0)
    ~ts_vector:(Rng.int rng 2 = 0)
    ~allocation:
      (pick rng
         [
           Switchv2p.Config.Uniform;
           Switchv2p.Config.Tor_only;
           Switchv2p.Config.Weighted
             {
               tor = 1.0 +. float_of_int (Rng.int rng 8);
               spine = 1.0 +. float_of_int (Rng.int rng 8);
               core = float_of_int (Rng.int rng 4);
               gw_tor = 1.0;
               gw_spine = 1.0;
             };
         ])
    ~ways:(pick rng [ 1; 2; 1 + Rng.int rng 8 ])
    ~tinylfu:(Rng.int rng 2 = 0)
    ()

let gen_scheme rng ~classified =
  let label =
    match Rng.int rng 3 with
    | 0 -> None
    | 1 -> Some "plain"
    | _ -> Some "label with spaces @50%"
  in
  let kind =
    match Rng.int rng 10 with
    | 0 -> Spec.Nocache
    | 1 -> Spec.Direct
    | 2 -> Spec.Ondemand
    | 3 -> Spec.Hoverboard
    | 4 -> Spec.Dht
    | 5 -> Spec.Locallearning (gen_slots rng)
    | 6 -> Spec.Gwcache (gen_slots rng)
    | 7 -> Spec.Bluebird (gen_slots rng)
    | 8 ->
        Spec.Controller
          {
            slots = gen_slots rng;
            interval = Time_ns.of_us (1 + Rng.int rng 500);
          }
    | _ ->
        let shares =
          if classified && Rng.int rng 2 = 0 then
            Some
              [|
                1.0 +. float_of_int (Rng.int rng 9);
                1.0 +. float_of_int (Rng.int rng 9);
              |]
          else None
        in
        Spec.switchv2p ~config:(gen_config rng) ?shares (gen_slots rng)
  in
  Spec.scheme ?label kind

let spec_of_seed n =
  let rng = Rng.create ((n * 0x5bd1e995) + 17) in
  let family = pick rng [ `FT8; `FT16 ] in
  let scale = pick rng [ `Tiny; `Small ] in
  let topo =
    if Rng.int rng 5 = 0 then
      Spec.custom ~seed:(Rng.int rng 100) (Spec.preset_params family scale)
    else Spec.preset ~seed:(Rng.int rng 100) family scale
  in
  let classified = Rng.int rng 2 = 0 in
  let streams =
    if classified then [ gen_stream rng (Some 0); gen_stream rng (Some 1) ]
    else List.init (Rng.int rng 3) (fun _ -> gen_stream rng None)
  in
  let churn =
    if Rng.int rng 3 = 0 then
      Some
        (Churn.make
           ~start:(Time_ns.of_us (Rng.int rng 1000))
           ~kind:(pick rng Churn.[ Cold_start; Serverless; Migration_storm ])
           ~rate:(1.0 +. float_of_int (Rng.int rng 5000))
           ~duration:(Time_ns.of_us (1 + Rng.int rng 20000))
           ~batch:(1 + Rng.int rng 8) ())
    else None
  in
  let faults =
    match Rng.int rng 3 with
    | 0 -> Spec.No_faults
    | 1 -> Spec.Random (Rng.int rng 1000)
    | _ ->
        (* Literal plans stay topology-independent: churn actions are
           the one kind whose target needs no node ids. *)
        Spec.Literal
          {
            Fault.seed = Rng.int rng 100;
            specs =
              Fault.sort_specs
                (Array.init (Rng.int rng 3) (fun i ->
                     {
                       Fault.at = Time_ns.of_us ((i + 1) * (1 + Rng.int rng 500));
                       action = Fault.Churn (1 + Rng.int rng 8);
                     }));
          }
  in
  let shards = Spec.Shards (1 + Rng.int rng 3) in
  let horizon =
    if Rng.int rng 2 = 0 then Spec.Horizon_auto
    else Spec.Horizon (Time_ns.of_ms (1 + Rng.int rng 100))
  in
  Spec.make
    ~name:(pick rng [ "qc"; "qc spec"; "multitenant/qc 50/50" ])
    ~topo ~streams ?churn ~faults ~seed:(Rng.int rng 10_000) ~shards
    ~horizon
    ?gateways_used:(if Rng.int rng 3 = 0 then Some 1 else None)
    ~classify:(if classified then Spec.Vip_parity else Spec.No_classify)
    (List.init (1 + Rng.int rng 3) (fun _ -> gen_scheme rng ~classified))

let roundtrip_qcheck =
  QCheck.Test.make ~count:300
    ~name:"of_string (to_string t) = Ok t, and reprint is stable"
    QCheck.(int_bound 1_000_000)
    (fun n ->
      let t = spec_of_seed n in
      let s = Spec.to_string t in
      match Spec.of_string s with
      | Ok t' -> t' = t && String.equal (Spec.to_string t') s
      | Error e ->
          QCheck.Test.fail_reportf "parse failed: %s\nin:\n%s"
            (Spec.error_to_string e) s)

(* ------------------------------------------------------------------ *)
(* Committed examples: all validate; the golden file is exactly what
   its constructor prints, so the committed text cannot drift.        *)

let examples_dir = "../examples/scenarios"

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let golden_spec () =
  Spec.make ~name:"golden_tiny"
    ~topo:(Spec.preset `FT8 `Tiny)
    ~streams:[ Spec.stream Spec.Hadoop ]
    [
      Spec.scheme ~label:"NoCache" Spec.Nocache;
      Spec.scheme ~label:"SwitchV2P" (Spec.switchv2p (Spec.Pct 50));
    ]

let examples_validate () =
  let files =
    Sys.readdir examples_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".scn")
    |> List.sort compare
  in
  checkb "at least six committed scenarios" true (List.length files >= 6);
  List.iter
    (fun f ->
      match Spec.validate_file (Filename.concat examples_dir f) with
      | Ok _ -> ()
      | Error errs ->
          Alcotest.failf "%s: %s" f
            (String.concat "; " (List.map Spec.error_to_string errs)))
    files

let golden_file_matches_constructor () =
  Alcotest.(check string)
    "golden_tiny.scn is the constructor's canonical print"
    (Spec.to_string (golden_spec ()))
    (read_file (Filename.concat examples_dir "golden_tiny.scn"))

(* ------------------------------------------------------------------ *)
(* Parse compatibility and errors: the engine line still accepts the
   retired [sched] field with the two values committed files carry,
   the scheme line accepts [geometry=dleft:1] as another spelling of
   [geometry=direct], and any other bad value is blamed on its line
   and field.                                                         *)

(* The golden spec's text with its first line starting [prefix]
   rewritten by [f], and that line's 1-based number. *)
let with_line prefix f =
  let lines = String.split_on_char '\n' (Spec.to_string (golden_spec ())) in
  let line = ref 0 in
  let lines =
    List.mapi
      (fun i l ->
        if !line = 0 && String.starts_with ~prefix l then begin
          line := i + 1;
          f l
        end
        else l)
      lines
  in
  (String.concat "\n" lines, !line)

let with_engine_line f = with_line "engine " f
let with_engine_field field = with_engine_line (fun l -> l ^ " " ^ field)

(* The golden text with the [key=] token of its first line starting
   [prefix] set to [key=v]. *)
let with_token prefix key v =
  with_line prefix (fun l ->
      String.split_on_char ' ' l
      |> List.map (fun tok ->
             if String.starts_with ~prefix:(key ^ "=") tok then key ^ "=" ^ v
             else tok)
      |> String.concat " ")

let with_geometry v = with_token "scheme switchv2p " "geometry" v

(* Each [(name, (text, _))] parses to the golden spec and reprints as
   its canonical text. *)
let parses_as_golden cases =
  let golden_text = Spec.to_string (golden_spec ()) in
  List.iter
    (fun (name, (text, _)) ->
      match Spec.of_string text with
      | Ok t ->
          checkb (name ^ " parses to the same spec") true (t = golden_spec ());
          Alcotest.(check string)
            (name ^ " reprints canonically") golden_text (Spec.to_string t)
      | Error e -> Alcotest.failf "%s: %s" name (Spec.error_to_string e))
    cases

(* Each [(name, (text, line))] is an error located at [line] and
   [field]. *)
let located_errors ~field cases =
  List.iter
    (fun (name, (text, line)) ->
      match Spec.of_string text with
      | Ok _ -> Alcotest.failf "%s accepted" name
      | Error e ->
          checki (name ^ " error line") line e.Spec.line;
          Alcotest.(check (option string))
            (name ^ " error field") (Some field) e.Spec.field)
    cases

let sched_case v = ("sched=" ^ v, with_engine_field ("sched=" ^ v))
let geometry_case v = ("geometry=" ^ v, with_geometry v)

let sched_field_compat () =
  parses_as_golden (List.map sched_case [ "default"; "heap" ])

let sched_field_rejected () =
  located_errors ~field:"sched" (List.map sched_case [ "wheel"; "fifo"; "" ])

let geometry_dleft1_is_direct () =
  parses_as_golden (List.map geometry_case [ "direct"; "dleft:1" ])

let geometry_rejected () =
  located_errors ~field:"geometry"
    (List.map geometry_case [ "dleft:0"; "dleft:x"; "dleft:-2"; "lru" ])

(* The range checks [run]'s flags rely on: the tiny FT8 preset has 4
   gateways, and a cache percentage must be non-negative. *)
let gateways_rejected () =
  located_errors ~field:"gateways"
    (List.map
       (fun v -> ("gateways=" ^ v, with_token "net " "gateways" v))
       [ "0"; "5" ])

let negative_pct_rejected () =
  located_errors ~field:"slots"
    [ ("slots=pct:-1", with_token "scheme switchv2p " "slots" "pct:-1") ]

(* The messages [run] prints for the same specs built in memory. *)
let range_messages () =
  let golden = golden_spec () in
  let rejects name spec msg =
    Alcotest.(check (result unit (list string)))
      name (Error [ msg ]) (Spec.validate spec)
  in
  List.iter
    (fun k ->
      rejects
        (Printf.sprintf "gateways=%d" k)
        { golden with Spec.gateways_used = Some k }
        "gateways must be in [1, 4]")
    [ 0; 5 ];
  rejects "slots=pct:-1"
    { golden with Spec.schemes = [ Spec.scheme (Spec.switchv2p (Spec.Pct (-1))) ] }
    "slots percentage must be non-negative"

(* The golden text with its engine line's [shards=] token replaced
   by [shards=v], or dropped when [v] is [None]. *)
let with_shards v =
  with_engine_line (fun l ->
      String.split_on_char ' ' l
      |> List.filter_map (fun tok ->
             if String.starts_with ~prefix:"shards=" tok then
               Option.map (fun v -> "shards=" ^ v) v
             else Some tok)
      |> String.concat " ")

let shards_omitted_is_one () =
  let text, _ = with_shards None in
  checkb "engine line has no shards field" false
    (List.exists
       (String.starts_with ~prefix:"engine seed=42 shards")
       (String.split_on_char '\n' text));
  match Spec.of_string text with
  | Ok t -> checkb "omitted shards parses to Shards 1" true (t.Spec.shards = Spec.Shards 1)
  | Error e -> Alcotest.failf "omitted shards: %s" (Spec.error_to_string e)

let shards_auto_rejected () =
  let text, line = with_shards (Some "auto") in
  match Spec.of_string text with
  | Ok _ -> Alcotest.fail "shards=auto accepted"
  | Error e ->
      checki "shards=auto error line" line e.Spec.line;
      Alcotest.(check (option string))
        "shards=auto error field" (Some "shards") e.Spec.field

let shards_zero_rejected () =
  let text, _ = with_shards (Some "0") in
  match Spec.of_string text with
  | Ok _ -> Alcotest.fail "shards=0 accepted"
  | Error e ->
      Alcotest.(check string) "shards=0 message" "shards must be >= 1" e.Spec.msg;
      Alcotest.(check (option string))
        "shards=0 error field" (Some "shards") e.Spec.field

(* Validation builds the topology only for the checks that read it
   (a gateway count, a literal fault plan): the FT16-400K preset's
   12,866-node build is tens of MB. *)
let paper_preset_parse_is_cheap () =
  let text, _ =
    with_line "topo " (fun _ -> "topo preset family=ft16 scale=paper seed=42")
  in
  let b0 = Gc.allocated_bytes () in
  let parsed = Spec.of_string text in
  let bytes = Gc.allocated_bytes () -. b0 in
  (match parsed with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "ft16 paper: %s" (Spec.error_to_string e));
  checkb (Printf.sprintf "parse allocates under 1 MB (%.0f bytes)" bytes) true
    (bytes < 1e6)

(* ------------------------------------------------------------------ *)
(* Random fault plans land on the traffic: on the tiny trace the
   horizon is mostly drain, so a plan spread over it would fire after
   the last flow start and change nothing.                            *)

let random_faults_hit_tiny_traffic () =
  let golden = golden_spec () in
  let v2p = List.nth golden.Spec.schemes 1 in
  let faulted = { golden with Spec.faults = Spec.Random 42 } in
  let p = Scenario.prepare faulted in
  let last_start =
    List.fold_left
      (fun acc (f : Netcore.Flow.t) -> max acc f.Netcore.Flow.start)
      0 p.Scenario.flows
  in
  let plan = Option.get p.Scenario.faults in
  checkb "a fault fires before the last flow start" true
    (Array.exists (fun (s : Fault.spec) -> s.Fault.at < last_start) plan.Fault.specs);
  checkb "faulted metrics differ from the fault-free run" true
    (Scenario.run_prepared p v2p <> Scenario.run_scheme golden v2p)

(* ------------------------------------------------------------------ *)
(* Golden replay: running the committed file reproduces the
   programmatic run of the same spec, result-for-result.              *)

let golden_replay () =
  let file = Filename.concat examples_dir "golden_tiny.scn" in
  match Scenario.run_file file with
  | Error e -> Alcotest.failf "run_file: %s" (Spec.error_to_string e)
  | Ok (spec, from_file) ->
      let programmatic = Scenario.run (golden_spec ()) in
      checkb "parsed spec equals constructor" true (spec = golden_spec ());
      checkb "file replay = programmatic run, byte-identical results" true
        (from_file = programmatic)

(* ------------------------------------------------------------------ *)
(* Sharded scenarios: a fixed shard count replays deterministically,
   and agrees with the single-shard run on flow outcomes.             *)

let sharded_spec shards =
  { (golden_spec ()) with Spec.shards = Spec.Shards shards }

let sharded_replay_deterministic () =
  let spec = sharded_spec 2 in
  let s = List.nth spec.Spec.schemes 1 in
  let a = Scenario.run_scheme spec s in
  let b = Scenario.run_scheme spec s in
  checkb "2-shard scenario run replays identically" true (a = b)

let sharded_flow_outcomes_agree () =
  let one = Scenario.run_scheme (sharded_spec 1) (List.nth (golden_spec ()).Spec.schemes 1) in
  let two = Scenario.run_scheme (sharded_spec 2) (List.nth (golden_spec ()).Spec.schemes 1) in
  checki "flows started" one.Runner.flows_started two.Runner.flows_started;
  checki "flows completed" one.Runner.flows_completed two.Runner.flows_completed;
  checki "drops (1-shard)" 0 one.Runner.packets_dropped;
  checki "drops (2-shard)" 0 two.Runner.packets_dropped

let () =
  Alcotest.run "scenario"
    [
      ("roundtrip", [ qtest roundtrip_qcheck ]);
      ( "examples",
        [
          Alcotest.test_case "all committed examples validate" `Quick
            examples_validate;
          Alcotest.test_case "golden file matches constructor" `Quick
            golden_file_matches_constructor;
        ] );
      ( "parse",
        [
          Alcotest.test_case "sched=default and sched=heap still parse" `Quick
            sched_field_compat;
          Alcotest.test_case "any other sched value is a located error" `Quick
            sched_field_rejected;
          Alcotest.test_case "omitted shards means 1" `Quick
            shards_omitted_is_one;
          Alcotest.test_case "shards=auto is a located error" `Quick
            shards_auto_rejected;
          Alcotest.test_case "shards=0 must be >= 1" `Quick shards_zero_rejected;
          Alcotest.test_case "geometry=dleft:1 parses and prints as direct"
            `Quick geometry_dleft1_is_direct;
          Alcotest.test_case "bad geometry is a located error" `Quick
            geometry_rejected;
          Alcotest.test_case "gateways out of range is a located error" `Quick
            gateways_rejected;
          Alcotest.test_case "negative slots pct is a located error"
            `Quick negative_pct_rejected;
          Alcotest.test_case "range errors carry run's messages" `Quick
            range_messages;
          Alcotest.test_case "ft16 paper preset parses without a build" `Quick
            paper_preset_parse_is_cheap;
        ] );
      ( "faults",
        [
          Alcotest.test_case "random faults hit the tiny trace" `Quick
            random_faults_hit_tiny_traffic;
        ] );
      ( "replay",
        [
          Alcotest.test_case "run --scenario = programmatic run" `Quick
            golden_replay;
          Alcotest.test_case "2-shard replay deterministic" `Quick
            sharded_replay_deterministic;
          Alcotest.test_case "shard counts agree on flow outcomes" `Quick
            sharded_flow_outcomes_agree;
        ] );
    ]
