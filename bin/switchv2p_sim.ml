(* switchv2p-sim: command-line front end for the SwitchV2P simulator.

   Subcommands either reproduce a specific paper artifact (fig5a..tab6)
   or run a single custom simulation with a chosen scheme, trace and
   cache size, printing the standard metric row. *)

open Cmdliner
module Spec = Netsim.Scenario

(* A conv over [values], each spelled [name v] on the command line. *)
let named_conv what name values =
  let names = List.map name values in
  let parse s =
    match List.find_opt (fun v -> name v = s) values with
    | Some v -> Ok v
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown %s %S (%s)" what s (String.concat "|" names)))
  in
  Arg.conv (parse, fun ppf v -> Format.pp_print_string ppf (name v))

let scale_conv = named_conv "scale" Spec.scale_name [ `Tiny; `Small; `Paper ]

let scale_arg =
  let doc = "Topology scale: tiny (tests), small (default), paper (Table 3)." in
  Arg.(value & opt scale_conv `Small & info [ "scale" ] ~docv:"SCALE" ~doc)

let cache_pct_arg =
  let doc = "Aggregate cache size as a percentage of the VIP space." in
  Arg.(value & opt int 50 & info [ "cache-pct" ] ~docv:"PCT" ~doc)

let seed_arg =
  let doc = "Random seed (runs are bit-reproducible per seed)." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

(* --- run: a single simulation --- *)

(* Every scheme [run] builds, at cache size [sl]; the Controller
   re-solves its placement every 300 us. *)
let scheme_kinds sl =
  Spec.
    [ Nocache; Direct; Ondemand; Hoverboard; Locallearning sl; Gwcache sl;
      Bluebird sl; Dht; switchv2p sl;
      Controller { slots = sl; interval = Dessim.Time_ns.of_us 300 } ]

let scheme_conv =
  named_conv "scheme" Fun.id
    (List.map Spec.scheme_kind_name (scheme_kinds (Spec.Pct 0)))

let scheme_arg =
  let doc = "Translation scheme to simulate." in
  Arg.(value & opt scheme_conv "switchv2p" & info [ "scheme" ] ~docv:"SCHEME" ~doc)

let trace_conv = named_conv "trace" Spec.trace_name Experiments.Fig5.traces

let trace_arg =
  let doc = "Workload trace." in
  Arg.(value & opt trace_conv Spec.Hadoop & info [ "trace" ] ~docv:"TRACE" ~doc)

let gateways_arg =
  let doc = "Restrict load balancing to the first K gateways." in
  Arg.(value & opt (some int) None & info [ "gateways" ] ~docv:"K" ~doc)

let telemetry_arg =
  let doc =
    "Collect structured telemetry (latency/FCT histograms, per-tier cache \
     series, drop accounting) and write a JSON report into $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "telemetry" ] ~docv:"DIR" ~doc)

let faults_conv =
  let parse = function
    | "random" -> Ok `Random
    | s -> (
        match Spec.fault_plan_of_string s with
        | Ok p -> Ok (`Plan p)
        | Error e -> Error (`Msg (Spec.error_to_string e)))
  in
  let print ppf = function
    | `Random -> Format.pp_print_string ppf "random"
    | `Plan p -> Format.pp_print_string ppf (Dessim.Fault.to_string p)
  in
  Arg.conv (parse, print)

let faults_arg =
  let doc =
    "Run under a fault plan: $(b,random) draws one from --seed, anything else \
     is parsed as a literal plan (seed=N;@T:ACTION;... — the form printed by \
     a run and by DST failure reports). Parse errors name the offending \
     segment."
  in
  Arg.(value & opt (some faults_conv) None & info [ "faults" ] ~docv:"PLAN" ~doc)

(* The standard metric block, shared by [run] and [run --scenario]. *)
let print_metrics (r : Experiments.Runner.result) =
  let core, spine, tor, gw, host = r.Experiments.Runner.layer_hits in
  Printf.printf "scheme          %s\n" r.Experiments.Runner.scheme;
  Printf.printf "flows completed %d / %d\n" r.Experiments.Runner.flows_completed
    r.Experiments.Runner.flows_started;
  Printf.printf "hit rate        %.2f%%\n" (100.0 *. r.Experiments.Runner.hit_rate);
  Printf.printf "mean FCT        %.1f us\n" (r.Experiments.Runner.mean_fct *. 1e6);
  Printf.printf "mean FP latency %.1f us\n" (r.Experiments.Runner.mean_fpl *. 1e6);
  Printf.printf "packet stretch  %.2f switches\n" r.Experiments.Runner.stretch;
  Printf.printf "gateway packets %d / %d sent\n" r.Experiments.Runner.gw_packets
    r.Experiments.Runner.packets_sent;
  Printf.printf "drops           %d (%s)\n"
    r.Experiments.Runner.packets_dropped
    (String.concat " "
       (List.map
          (fun (k, v) -> Printf.sprintf "%s=%d" k v)
          r.Experiments.Runner.drops_by_kind));
  Printf.printf "hit layers      core=%d spine=%d tor=%d gateway=%d host=%d\n"
    core spine tor gw host;
  List.iter
    (fun (c, h) -> Printf.printf "class %-9d %.2f%%\n" c (100.0 *. h))
    r.Experiments.Runner.class_hit_rates;
  List.iter
    (fun (k, v) -> Printf.printf "%-15s %.0f\n" k v)
    r.Experiments.Runner.extra

let run_scenario_file file =
  match Experiments.Scenario.run_file file with
  | Error e ->
      Printf.eprintf "%s: %s\n" file (Spec.error_to_string e);
      exit 1
  | Ok (spec, results) ->
      (* Every run realizes the same flow list; a spec has >= 1 scheme. *)
      let flows =
        match results with (_, r) :: _ -> r.Experiments.Runner.flows | [] -> 0
      in
      Printf.printf "scenario        %s (%d flows, %d schemes)\n"
        spec.Spec.name flows (List.length results);
      List.iter
        (fun (name, r) ->
          Printf.printf "--- %s ---\n" name;
          print_metrics r)
        results

(* The flags' run: a one-scheme spec, validated like a scenario file
   and run through the same entry point. *)
let run_flags ~scale ~cache_pct ~seed ~scheme_name ~trace ~gateways ~faults
    ~telemetry =
  let kind =
    List.find
      (fun k -> Spec.scheme_kind_name k = scheme_name)
      (scheme_kinds (Spec.Pct cache_pct))
  in
  let spec =
    Spec.make ~name:"run"
      ~topo:(Experiments.Fig5.preset ~seed scale trace)
      ~streams:[ Spec.stream trace ]
      ~faults:
        (match faults with
        | None -> Spec.No_faults
        | Some `Random -> Spec.Random seed
        | Some (`Plan p) -> Spec.Literal p)
      ~seed ?gateways_used:gateways [ Spec.scheme kind ]
  in
  (match Spec.validate spec with
  | Ok () -> ()
  | Error msgs ->
      List.iter (Printf.eprintf "run: %s\n") msgs;
      exit 1);
  let p = Experiments.Scenario.prepare spec in
  Option.iter
    (fun plan -> Printf.printf "faults          %s\n" (Dessim.Fault.to_string plan))
    p.Experiments.Scenario.faults;
  let trace_name = Spec.trace_name trace in
  let report_name = Printf.sprintf "run/%s/%s" scheme_name trace_name in
  let r =
    Experiments.Scenario.run_prepared ~report_name p (List.hd spec.Spec.schemes)
  in
  Printf.printf "trace           %s (%d flows, %d VMs)\n" trace_name
    (List.length p.Experiments.Scenario.flows) (Spec.num_vms spec);
  Printf.printf "cache           %d%% of VIP space (%d entries total)\n"
    cache_pct (Spec.cache_slots spec (Spec.Pct cache_pct));
  print_metrics r;
  Option.iter
    (fun dir ->
      Printf.printf "telemetry       %s/%s.json\n" dir
        (Experiments.Report.slug report_name))
    telemetry

let run_cmd =
  let run scale cache_pct seed scheme_name trace gateways telemetry faults
      scenario_file =
    Experiments.Report.set_telemetry_dir telemetry;
    match scenario_file with
    | Some file -> run_scenario_file file
    | None ->
        run_flags ~scale ~cache_pct ~seed ~scheme_name ~trace ~gateways ~faults
          ~telemetry
  in
  let scenario_file_arg =
    let doc =
      "Replay a committed scenario file instead of building the run from \
       flags ($(b,--scheme), $(b,--trace), ... are ignored): parse, \
       validate, and run every scheme alternative the spec declares. \
       Byte-identical to the programmatic run the file was printed from."
    in
    Arg.(
      value
      & opt (some non_dir_file) None
      & info [ "scenario" ] ~docv:"FILE" ~doc)
  in
  let doc = "Run one simulation and print the standard metrics." in
  Cmd.v
    (Cmd.info "run" ~doc)
    Term.(
      const run $ scale_arg $ cache_pct_arg $ seed_arg $ scheme_arg $ trace_arg
      $ gateways_arg $ telemetry_arg $ faults_arg $ scenario_file_arg)

(* --- scenario: spec-file tooling --- *)

let scenario_cmd =
  let files_arg =
    let doc = "Scenario spec file(s)." in
    Arg.(non_empty & pos_all non_dir_file [] & info [] ~docv:"FILE" ~doc)
  in
  let print_cmd =
    let run files =
      List.iter
        (fun file ->
          match Spec.of_file file with
          | Ok t -> print_string (Spec.to_string t)
          | Error e ->
              Printf.eprintf "%s: %s\n" file
                (Spec.error_to_string e);
              exit 1)
        files
    in
    let doc =
      "Parse scenario files and reprint their canonical form (every field \
       explicit, floats in hex — the lossless round-trip form)."
    in
    Cmd.v (Cmd.info "print" ~doc) Term.(const run $ files_arg)
  in
  let validate_cmd =
    let run files =
      let ok = ref true in
      List.iter
        (fun file ->
          match Spec.validate_file file with
          | Ok t ->
              Printf.printf "%s: ok (scenario %s, %d schemes)\n" file
                t.Spec.name
                (List.length t.Spec.schemes)
          | Error errs ->
              ok := false;
              List.iter
                (fun e ->
                  Printf.eprintf "%s: %s\n" file
                    (Spec.error_to_string e))
                errs)
        files;
      if not !ok then exit 1
    in
    let doc =
      "Validate scenario files: parse, then report every semantic error \
       with its line number (stream parameters, share vectors, gateway \
       counts, fault-plan targets against the realized topology)."
    in
    Cmd.v (Cmd.info "validate" ~doc) Term.(const run $ files_arg)
  in
  let doc = "Inspect and validate declarative scenario spec files." in
  Cmd.group (Cmd.info "scenario" ~doc) [ print_cmd; validate_cmd ]

(* --- dst: deterministic simulation testing --- *)

let dst_cmd =
  let run seed seeds scheme_name =
    let module Dst = Experiments.Dst in
    let schemes =
      if scheme_name = "all" then Dst.all_schemes else [ scheme_name ]
    in
    let outcomes =
      match seeds with
      | None ->
          List.map (fun scheme -> Dst.run_one ~seed ~scheme ()) schemes
      | Some n ->
          Dst.run_seeds ~schemes ~seeds:(List.init n (fun i -> seed + i)) ()
    in
    (* A single replay prints its full transcript; sweeps stay quiet
       unless an invariant breaks. *)
    (match (seeds, outcomes) with
    | None, [ o ] -> print_string o.Dst.transcript
    | _ ->
        Printf.printf "dst: %d runs (%s), %d failed\n" (List.length outcomes)
          (String.concat "," schemes)
          (List.length (Dst.failed outcomes)));
    match Dst.failed outcomes with
    | [] -> ()
    | failed ->
        List.iter (fun o -> Format.printf "%a" Dst.pp_failure o) failed;
        exit 1
  in
  let seeds_arg =
    let doc = "Sweep $(docv) consecutive seeds starting at --seed." in
    Arg.(value & opt (some int) None & info [ "seeds" ] ~docv:"N" ~doc)
  in
  let dst_scheme_arg =
    let doc = "Scheme to test (or $(b,all))." in
    Arg.(value & opt string "switchv2p" & info [ "scheme" ] ~docv:"SCHEME" ~doc)
  in
  let doc =
    "Deterministic simulation test: run seeded random fault plans and check \
     the DST invariants, printing a byte-identical replay transcript."
  in
  Cmd.v (Cmd.info "dst" ~doc)
    Term.(const run $ seed_arg $ seeds_arg $ dst_scheme_arg)

(* --- reproduce: paper artifacts --- *)

let artifact_cmd name doc f =
  Cmd.v (Cmd.info name ~doc) Term.(const f $ scale_arg $ cache_pct_arg)

let fig5_cmd key kind doc =
  let f scale _pct = Experiments.Fig5.print (Experiments.Fig5.run ~scale kind) in
  artifact_cmd key doc f

let cmds =
  [
    run_cmd;
    scenario_cmd;
    dst_cmd;
    fig5_cmd "fig5a" Spec.Hadoop "Figure 5a: Hadoop cache sweep.";
    fig5_cmd "fig5b" Spec.Microbursts "Figure 5b: Microbursts cache sweep.";
    fig5_cmd "fig5c" Spec.Websearch
      "Figure 5c: WebSearch cache sweep, with the Controller baseline.";
    fig5_cmd "fig5d" Spec.Video "Figure 5d: Video cache sweep.";
    fig5_cmd "fig6" Spec.Alibaba "Figure 6: Alibaba on FT16.";
    artifact_cmd "fig7" "Figures 7/8: per-pod and per-switch bytes." (fun scale pct ->
        Experiments.Fig7_8.print (Experiments.Fig7_8.run ~scale ~cache_pct:pct ()));
    artifact_cmd "fig9" "Figure 9: shrinking the gateway fleet." (fun scale pct ->
        Experiments.Fig9.print (Experiments.Fig9.run ~scale ~cache_pct:pct ()));
    artifact_cmd "fig10" "Figure 10: topology scaling." (fun _scale pct ->
        Experiments.Fig10.print (Experiments.Fig10.run ~cache_pct:pct ()));
    artifact_cmd "tab4" "Table 4: VM migration." (fun scale pct ->
        Experiments.Tab4.print (Experiments.Tab4.run ~scale ~cache_pct:pct ()));
    artifact_cmd "tab5" "Table 5: hit distribution by layer." (fun scale pct ->
        Experiments.Tab5.print (Experiments.Tab5.run ~scale ~cache_pct:pct ()));
    artifact_cmd "tab6" "Table 6: switch resource model." (fun _scale _pct ->
        Experiments.Tab6.print (Experiments.Tab6.run ()));
    artifact_cmd "appA2" "Appendix A.2: Controller baseline." (fun scale _pct ->
        Experiments.App_a2.print (Experiments.App_a2.run ~scale ()));
    artifact_cmd "ablation" "Ablation of SwitchV2P features." (fun scale pct ->
        Experiments.Ablation.print (Experiments.Ablation.run ~scale ~cache_pct:pct ()));
    artifact_cmd "multitenant" "Per-VPC cache partitions (paper section 4)."
      (fun scale pct ->
        Experiments.Multitenant.print
          (Experiments.Multitenant.run ~scale ~cache_pct:pct ()));
    artifact_cmd "datasets" "Address-reuse characteristics of the traces."
      (fun scale _pct ->
        Experiments.Datasets.print (Experiments.Datasets.run ~scale ()));
    artifact_cmd "resilience" "Cache-wipe resilience (paper section 2)."
      (fun scale pct ->
        Experiments.Resilience.print
          (Experiments.Resilience.run ~scale ~cache_pct:pct ()));
    artifact_cmd "dht" "DHT-store alternative (paper section 2.4)."
      (fun scale pct ->
        Experiments.Dht_compare.print
          (Experiments.Dht_compare.run ~scale ~cache_pct:pct ()));
    artifact_cmd "cachegeo" "Cache geometry study (paper section 3.2)."
      (fun scale _pct ->
        Experiments.Cache_geometry.print
          (Experiments.Cache_geometry.run ~scale ()));
  ]

let () =
  let doc = "SwitchV2P: in-network address caching simulator" in
  let info = Cmd.info "switchv2p-sim" ~version:"1.0.0" ~doc in
  exit (Cmd.eval (Cmd.group info cmds))
