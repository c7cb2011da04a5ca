(* The end-to-end benchmark's command line. Run from the repository root:

     main.exe [--workload W]... [--seed N] [--trials N | --seconds S]
              [--trace 0|1] [--out FILE]
     main.exe --compare A.json B.json

   Every trial runs in a fresh child process (this executable with
   --child), one at a time, with REPRO_* and OCAMLRUNPARAM removed from
   its environment. Untraced trials go round-robin across the
   workloads, so a slow stretch of a shared machine hits them all
   alike; then one traced trial per workload gives the per-layer
   numbers. The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}. *)

open E2e
module Json = Dessim.Telemetry.Json

let workloads_dir = "bench/e2e/workloads"
let out_dir = "bench/e2e/out"
let history_path = "bench/e2e/history.jsonl"
let min_trials = 5
let trial_timeout_s = 120.0

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("e2e: " ^ s); exit 2) fmt

(* --- environment ----------------------------------------------------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The checkout's own commit, read from ./.git only: "unknown" outside
   a git checkout. *)
let git_rev () =
  let read path =
    match read_file path with s -> Some (String.trim s) | exception Sys_error _ -> None
  in
  match read ".git/HEAD" with
  | None -> "unknown"
  | Some head when String.starts_with ~prefix:"ref: " head -> (
      let name = String.sub head 5 (String.length head - 5) in
      match read (Filename.concat ".git" name) with
      | Some rev -> rev
      | None -> (
          let packed =
            Option.value (read ".git/packed-refs") ~default:""
            |> String.split_on_char '\n'
            |> List.find_map (fun line ->
                   match String.split_on_char ' ' line with
                   | [ rev; n ] when n = name -> Some rev
                   | _ -> None)
          in
          match packed with Some rev -> rev | None -> "unknown"))
  | Some rev -> rev

let utc_now () =
  let t = Unix.gmtime (Unix.time ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (t.Unix.tm_year + 1900)
    (t.Unix.tm_mon + 1) t.Unix.tm_mday t.Unix.tm_hour t.Unix.tm_min
    t.Unix.tm_sec

let child_env () =
  Unix.environment () |> Array.to_list
  |> List.filter (fun kv ->
         not
           (String.starts_with ~prefix:"REPRO_" kv
           || String.starts_with ~prefix:"OCAMLRUNPARAM=" kv))
  |> Array.of_list

(* --- trials in child processes --------------------------------------- *)

(* The running child, killed and reaped if this process is told to
   stop, so no trial outlives the benchmark. *)
let running_child = ref None

let () =
  let stop signal =
    Option.iter
      (fun pid ->
        try
          Unix.kill pid Sys.sigkill;
          ignore (Unix.waitpid [] pid)
        with Unix.Unix_error _ -> ())
      !running_child;
    exit (128 + if signal = Sys.sigint then 2 else 15)
  in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
  Sys.set_signal Sys.sigint (Sys.Signal_handle stop)

let spawn_trial ~workload ~seed ~traced =
  let path = Filename.concat out_dir (Printf.sprintf "trial-%d.out" (Unix.getpid ())) in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let args =
    [|
      Sys.executable_name;
      "--child";
      "--workload";
      workload;
      "--seed";
      string_of_int seed;
      "--trace";
      (if traced then "1" else "0");
    |]
  in
  let pid =
    Unix.create_process_env Sys.executable_name args (child_env ()) Unix.stdin
      fd Unix.stderr
  in
  Unix.close fd;
  running_child := Some pid;
  let deadline = Unix.gettimeofday () +. trial_timeout_s in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
        if Unix.gettimeofday () > deadline then begin
          Unix.kill pid Sys.sigkill;
          ignore (Unix.waitpid [] pid);
          None
        end
        else begin
          Unix.sleepf 0.01;
          wait ()
        end
    | _, status -> Some status
  in
  let status = wait () in
  running_child := None;
  let text = read_file path in
  Sys.remove path;
  match status with
  | None -> Error (Printf.sprintf "timed out after %.0f s" trial_timeout_s)
  | Some (Unix.WEXITED 0) -> (
      match Json.parse text with
      | Ok j -> Trial.of_json j
      | Error e -> Error ("unreadable trial output: " ^ e))
  | Some (Unix.WEXITED n) -> Error (Printf.sprintf "exited with code %d" n)
  | Some (Unix.WSIGNALED s | Unix.WSTOPPED s) ->
      Error (Printf.sprintf "killed by signal %d" s)

(* --- aggregation ----------------------------------------------------- *)

type outcome = {
  name : string;
  mutable untraced : (Trial.result, string) result list;  (** newest first *)
  mutable traced : (Trial.result, string) result option;
}

type summary = {
  wname : string;
  ops : int;
  ops_failed : int;
  failures : string list;
  digest : string;
  sched : string;
  metrics : (string * Stats.summary) list;
  layers : (string * float) list;
  spans : Json.t;
}

(* A trial fails on a crash, a timeout, a failed check, or a digest
   that differs from the workload's first good trial. *)
let summarize o =
  let untraced = List.rev o.untraced in
  let trials = untraced @ Option.to_list o.traced in
  let digest =
    List.find_map
      (function Ok (r : Trial.result) when r.errors = [] -> Some r.digest | _ -> None)
      trials
    |> Option.value ~default:""
  in
  let verdict = function
    | Error e -> Error e
    | Ok (r : Trial.result) when r.errors <> [] -> Error (String.concat "; " r.errors)
    | Ok r when r.digest <> digest ->
        Error (Printf.sprintf "digest %s differs from %s" r.digest digest)
    | Ok r -> Ok r
  in
  let failures =
    List.filter_map
      (fun t ->
        match verdict t with
        | Error e ->
            let kind =
              match t with Ok (r : Trial.result) when r.traced -> "traced" | _ -> "trial"
            in
            Some (kind ^ ": " ^ e)
        | Ok _ -> None)
      trials
  in
  let good = List.filter_map (fun t -> Result.to_option (verdict t)) untraced in
  let metrics =
    if good = [] then []
    else
      List.map
        (fun (m : Catalog.e2e) ->
          ( m.name,
            Stats.summarize
              (List.map (fun (r : Trial.result) -> List.assoc m.name r.e2e) good) ))
        Catalog.end_to_end
  in
  let layers, spans =
    match (Option.map verdict o.traced, List.assoc_opt "run_s" metrics) with
    | Some (Ok r), Some run_s ->
        ( Trial.with_overhead r.layers ~run_s:(List.assoc "run_s" r.e2e)
            ~untraced_run_s:run_s.Stats.median,
          r.spans )
    | _ -> ([], Json.Null)
  in
  {
    wname = o.name;
    ops = List.length trials;
    ops_failed = List.length failures;
    failures;
    digest;
    sched =
      (match good with (r : Trial.result) :: _ -> r.sched | [] -> "unknown");
    metrics;
    layers;
    spans;
  }

(* --- JSON forms ------------------------------------------------------ *)

let summary_json (s : Stats.summary) unit =
  Json.Obj
    [
      ("median", Json.Float s.median);
      ("q1", Json.Float s.q1);
      ("q3", Json.Float s.q3);
      ("n", Json.Int s.n);
      ("unit", Json.Str unit);
    ]

let workload_json ?(full = true) s =
  Json.Obj
    ([
       ("name", Json.Str s.wname);
       ("ops", Json.Int s.ops);
       ("ops_failed", Json.Int s.ops_failed);
       ("digest", Json.Str s.digest);
       ( "metrics",
         Json.Obj
           (List.map
              (fun (k, v) -> (k, summary_json v (Catalog.find_e2e k).Catalog.unit))
              s.metrics) );
     ]
    @
    if full then
      [
        ("failures", Json.List (List.map (fun f -> Json.Str f) s.failures));
        ("layers", Trial.floats s.layers);
      ]
    else [])

let header_json ~seed ~trials summaries =
  let sched =
    List.find_map (fun s -> if s.sched <> "unknown" then Some s.sched else None) summaries
  in
  Json.Obj
    [
      ("git_rev", Json.Str (git_rev ()));
      ("date", Json.Str (utc_now ()));
      ("nproc", Json.Int (Domain.recommended_domain_count ()));
      ("ocaml", Json.Str Sys.ocaml_version);
      ("sched", Json.Str (Option.value sched ~default:"unknown"));
      ("seed", Json.Int seed);
      ("trials", Json.Int trials);
    ]

let write_json path j = Dessim.Telemetry.write ~path j

let append_history record =
  let oc =
    open_out_gen [ Open_wronly; Open_append; Open_creat ] 0o644 history_path
  in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Json.to_channel oc record;
      output_char oc '\n')

(* --- printing -------------------------------------------------------- *)

let print_summary s =
  Printf.printf "\n== %s  ops=%d ops_failed=%d sched=%s\n   digest %s\n" s.wname
    s.ops s.ops_failed s.sched s.digest;
  List.iter (fun f -> Printf.printf "   FAILED %s\n" f) s.failures;
  List.iter
    (fun (name, (st : Stats.summary)) ->
      let m = Catalog.find_e2e name in
      Printf.printf "   %-22s %14.6g %-6s  q1 %-12.6g q3 %-12.6g n=%d spread %.1f%%\n"
        name st.median m.Catalog.unit st.q1 st.q3 st.n (100.0 *. Stats.spread st))
    s.metrics;
  if s.layers <> [] then begin
    Printf.printf "   -- traced trial (bench/e2e/out/trace-%s.json)\n" s.wname;
    List.iter
      (fun (name, v) ->
        Printf.printf "   %-36s %14.6g %s\n" name v (Catalog.find_layer name).Catalog.lunit)
      s.layers
  end

(* The machine-readable last line. With one workload the metric names
   are bare; with several they are prefixed "<workload>/". *)
let result_line ~traced summaries =
  let prefix s = match summaries with [ _ ] -> "" | _ -> s.wname ^ "/" in
  let value v unit = Json.Obj [ ("value", Json.Float v); ("unit", Json.Str unit) ] in
  let metrics =
    List.concat_map
      (fun s ->
        if traced then
          List.map
            (fun (k, v) -> (prefix s ^ k, value v (Catalog.find_layer k).Catalog.lunit))
            s.layers
        else
          List.map
            (fun (k, (st : Stats.summary)) ->
              (prefix s ^ k, value st.median (Catalog.find_e2e k).Catalog.unit))
            s.metrics)
      summaries
  in
  let attempted = List.fold_left (fun a s -> a + s.ops) 0 summaries in
  let failed = List.fold_left (fun a s -> a + s.ops_failed) 0 summaries in
  let expected = if traced then List.length Catalog.per_layer else List.length Catalog.end_to_end in
  let complete = List.length metrics = expected * List.length summaries in
  Json.Obj
    [
      ("correct", Json.Bool (failed = 0 && complete));
      ("attempted", Json.Int attempted);
      ("failed", Json.Int failed);
      ("metrics", Json.Obj metrics);
    ]

(* --- run mode -------------------------------------------------------- *)

let run_benchmark ~workloads ~seed ~trials ~seconds ~trace ~out =
  List.iter
    (fun w ->
      match Workload.load ~dir:workloads_dir ~seed w with
      | Ok _ -> ()
      | Error e -> fail "%s" e)
    workloads;
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let outcomes = List.map (fun name -> { name; untraced = []; traced = None }) workloads in
  let t0 = Unix.gettimeofday () in
  let enough rounds =
    match seconds with
    | Some s -> rounds >= min_trials && Unix.gettimeofday () -. t0 >= s
    | None -> rounds >= trials
  in
  let rec rounds r =
    if enough r then r
    else begin
      List.iter
        (fun o ->
          o.untraced <- spawn_trial ~workload:o.name ~seed ~traced:false :: o.untraced)
        outcomes;
      rounds (r + 1)
    end
  in
  let trials = rounds 0 in
  if trace <> Some 0 then
    List.iter
      (fun o -> o.traced <- Some (spawn_trial ~workload:o.name ~seed ~traced:true))
      outcomes;
  let summaries = List.map summarize outcomes in
  let header = header_json ~seed ~trials summaries in
  List.iter
    (fun s ->
      if s.layers <> [] then
        write_json
          (Filename.concat out_dir ("trace-" ^ s.wname ^ ".json"))
          (Json.Obj
             [
               ("header", header);
               ("workload", Json.Str s.wname);
               ("digest", Json.Str s.digest);
               ("layers", Trial.floats s.layers);
               ("spans", s.spans);
             ]))
    summaries;
  write_json out
    (Json.Obj
       [
         ("header", header);
         ("workloads", Json.List (List.map (fun s -> workload_json s) summaries));
       ]);
  append_history
    (Json.Obj
       [
         ("kind", Json.Str "run");
         ("header", header);
         ( "workloads",
           Json.List (List.map (fun s -> workload_json ~full:false s) summaries) );
       ]);
  Printf.printf "# e2e %s\n" (Json.to_string header);
  List.iter print_summary summaries;
  print_endline (Json.to_string (result_line ~traced:(trace = Some 1) summaries));
  if List.exists (fun s -> s.ops_failed > 0) summaries then exit 1

(* --- compare mode ---------------------------------------------------- *)

type verdict = Better | Same | Worse | Unresolved

let verdict_name = function
  | Better -> "better"
  | Same -> "same"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

(* [judge m ~a ~b]: how [b] (the candidate) reads against [a]. *)
let judge (m : Catalog.e2e) ~(a : Stats.summary) ~(b : Stats.summary) =
  let worse_by =
    match m.better with
    | Catalog.Lower -> b.median -. a.median
    | Catalog.Higher -> a.median -. b.median
  in
  match m.compare with
  | Catalog.Exact ->
      if worse_by > 0.0 then Worse else if worse_by < 0.0 then Better else Same
  | Catalog.Within { share; floor } ->
      let allowed = Float.max (share *. Float.abs a.median) floor in
      let wide = Float.max (a.q3 -. a.q1) (b.q3 -. b.q1) > allowed in
      let overlap = a.q1 <= b.q3 && b.q1 <= a.q3 in
      if wide && overlap then Unresolved
      else if worse_by > allowed then Worse
      else if -.worse_by > allowed then Better
      else Same

let rule_name (m : Catalog.e2e) =
  match m.compare with
  | Catalog.Exact -> "exact"
  | Catalog.Within { share; floor = 0.0 } -> Printf.sprintf "%g%%" (100.0 *. share)
  | Catalog.Within { share = 0.0; floor } -> Printf.sprintf "%g %s" floor m.unit
  | Catalog.Within { share; floor } ->
      Printf.sprintf "max(%g%%, %g %s)" (100.0 *. share) floor m.unit

let load_results path =
  let j =
    match Json.parse (read_file path) with
    | Ok j -> j
    | Error e -> fail "%s: %s" path e
    | exception Sys_error e -> fail "%s" e
  in
  let num = function Json.Float f -> f | Json.Int i -> float_of_int i | _ -> nan in
  let seed =
    match Option.bind (Json.member "header" j) (Json.member "seed") with
    | Some (Json.Int s) -> s
    | _ -> fail "%s: no header seed" path
  in
  let workloads =
    match Json.member "workloads" j with
    | Some (Json.List ws) ->
        List.filter_map
          (fun w ->
            match (Json.member "name" w, Json.member "metrics" w) with
            | Some (Json.Str name), Some (Json.Obj ms) ->
                let summary (k, v) =
                  let f key = num (Option.value (Json.member key v) ~default:Json.Null) in
                  ( k,
                    {
                      Stats.median = f "median";
                      q1 = f "q1";
                      q3 = f "q3";
                      n = int_of_float (f "n");
                    } )
                in
                let digest =
                  match Json.member "digest" w with Some (Json.Str d) -> d | _ -> ""
                in
                Some (name, (digest, List.map summary ms))
            | _ -> None)
          ws
    | _ -> fail "%s: no workloads" path
  in
  (seed, workloads)

let compare_results path_a path_b =
  let seed_a, wa = load_results path_a and seed_b, wb = load_results path_b in
  if seed_a <> seed_b then
    fail "runs used different seeds (%d vs %d); simulated metrics only compare at one seed"
      seed_a seed_b;
  let rows =
    List.concat_map
      (fun (w, (digest_a, ma)) ->
        match List.assoc_opt w wb with
        | None -> []
        | Some (digest_b, mb) ->
            Printf.printf "\n== %s  digest %s\n" w
              (if digest_a = digest_b then "identical" else "DIFFERS");
            List.filter_map
              (fun (m : Catalog.e2e) ->
                match (List.assoc_opt m.name ma, List.assoc_opt m.name mb) with
                | Some a, Some b ->
                    let v = judge m ~a ~b in
                    let delta =
                      if a.median = 0.0 then 0.0 else (b.median -. a.median) /. Float.abs a.median
                    in
                    Printf.printf
                      "   %-22s A %-12.6g [%-10.5g %-10.5g] B %-12.6g [%-10.5g %-10.5g] \
                       %+7.2f%%  bound %-18s %s\n"
                      m.name a.median a.q1 a.q3 b.median b.q1 b.q3 (100.0 *. delta)
                      (rule_name m) (verdict_name v);
                    Some (w, m.name, v, digest_a = digest_b)
                | _ -> None)
              Catalog.end_to_end)
      wa
  in
  let worse = List.filter (fun (_, _, v, _) -> v = Worse) rows in
  let unresolved = List.filter (fun (_, _, v, _) -> v = Unresolved) rows in
  let names l = Json.List (List.map (fun (w, m, _, _) -> Json.Str (w ^ "/" ^ m)) l) in
  append_history
    (Json.Obj
       [
         ("kind", Json.Str "compare");
         ("date", Json.Str (utc_now ()));
         ("a", Json.Str path_a);
         ("b", Json.Str path_b);
         ("worse", names worse);
         ("unresolved", names unresolved);
         ( "digests_identical",
           Json.Bool (List.for_all (fun (_, _, _, same) -> same) rows) );
       ]);
  Printf.printf "\n%d worse, %d unresolved of %d\n" (List.length worse)
    (List.length unresolved) (List.length rows);
  if worse <> [] then exit 1

(* --- command line ---------------------------------------------------- *)

let () =
  let workloads = ref [] and seed = ref 42 and trials = ref 7 in
  let seconds = ref None and trace = ref None and child = ref false in
  let compare = ref None and out = ref (Filename.concat out_dir "results.json") in
  let a_path = ref "" in
  let spec =
    [
      ( "--workload",
        Arg.String (fun w -> workloads := !workloads @ [ w ]),
        "NAME run this workload (repeatable; default all)" );
      ("--seed", Arg.Set_int seed, "N workload seed (default 42)");
      ("--trials", Arg.Set_int trials, "N untraced trials per workload (default 7, at least 5)");
      ( "--seconds",
        Arg.Float (fun s -> seconds := Some s),
        "S run rounds of trials until S seconds have passed (at least 5 rounds)" );
      ( "--trace",
        Arg.Int (fun t -> trace := Some t),
        "0|1 0: no traced trial; 1: report the per-layer metrics (default: trace, report end to end)" );
      ("--out", Arg.Set_string out, "FILE results file (default bench/e2e/out/results.json)");
      ( "--compare",
        Arg.Tuple [ Arg.Set_string a_path; Arg.String (fun b -> compare := Some (!a_path, b)) ],
        "A.json B.json compare two results files" );
      ("--child", Arg.Set child, " run one trial in this process (internal)");
    ]
  in
  Arg.parse spec (fun a -> fail "unexpected argument %s" a) "main.exe [options]";
  (match !trace with Some (0 | 1) | None -> () | Some t -> fail "--trace %d: expected 0 or 1" t);
  List.iter
    (fun w -> if not (List.mem w Workload.names) then fail "unknown workload %s (known: %s)" w (String.concat ", " Workload.names))
    !workloads;
  let workloads = if !workloads = [] then Workload.names else !workloads in
  match (!compare, !child) with
  | Some (a, b), _ -> compare_results a b
  | None, true -> (
      match workloads with
      | [ w ] -> (
          match Workload.load ~dir:workloads_dir ~seed:!seed w with
          | Error e -> fail "%s" e
          | Ok spec ->
              let r = Trial.run ~traced:(!trace = Some 1) spec in
              print_endline (Json.to_string (Trial.to_json r)))
      | _ -> fail "--child runs exactly one workload")
  | None, false ->
      if !trials < min_trials then fail "--trials %d: at least %d are needed" !trials min_trials;
      run_benchmark ~workloads ~seed:!seed ~trials:!trials ~seconds:!seconds
        ~trace:!trace ~out:!out
