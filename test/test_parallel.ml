(* Tests for the experiment worker pool: submission-order results,
   exception propagation, counters, and — the load-bearing property —
   byte-identical sweep results regardless of worker count. *)

module Parallel = Experiments.Parallel
module Spec = Netsim.Scenario
module Runner = Experiments.Runner

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool
let named f i = (Printf.sprintf "t%d" i, fun () -> f i)

let test_submission_order () =
  let tasks = List.init 33 (named (fun i -> i * i)) in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "order with %d jobs" jobs)
        (List.init 33 (fun i -> i * i))
        (Parallel.map ~jobs tasks))
    [ 1; 2; 4; 7 ]

let test_map_named () =
  let tasks = List.init 5 (named (fun i -> 10 * i)) in
  Alcotest.(check (list (pair string int)))
    "names zipped back"
    (List.init 5 (fun i -> (Printf.sprintf "t%d" i, 10 * i)))
    (Parallel.map_named ~jobs:3 tasks)

exception Boom of int

let test_exception_propagates () =
  let tasks =
    List.init 8 (named (fun i -> if i = 5 then raise (Boom i) else i))
  in
  List.iter
    (fun jobs ->
      match Parallel.map ~jobs tasks with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom 5 -> ())
    [ 1; 4 ]

let test_counters () =
  Parallel.reset_counters ();
  ignore (Parallel.map ~jobs:2 (List.init 6 (named Fun.id)));
  let c = Parallel.counters () in
  checki "tasks counted" 6 c.Parallel.tasks;
  checkb "busy time non-negative" true (c.Parallel.busy_seconds >= 0.0);
  checki "max jobs" 2 c.Parallel.max_jobs

(* A sweep of real simulation runs must produce byte-identical results
   no matter how many workers execute it. Each task realizes its own
   per-domain topology through [Setup.pooled], so no mutable state
   crosses domains; everything else a task reads (the flow list) is
   immutable. *)
let sweep jobs =
  let spec =
    Spec.make ~name:"sweep"
      ~topo:(Spec.preset `FT8 `Tiny)
      ~streams:[ Spec.stream Spec.Hadoop ]
      Spec.
        [
          scheme Nocache;
          scheme Ondemand;
          scheme Direct;
          scheme (switchv2p (Pct 50));
        ]
  in
  let flows = Spec.flows spec in
  let until = Spec.horizon spec ~flows in
  let task s =
    ( Experiments.Scenario.task_name spec s,
      fun () ->
        let setup = Experiments.Scenario.realize spec in
        Runner.run setup
          ~scheme:(Experiments.Scenario.build_scheme spec setup s)
          ~flows ~migrations:[] ~until )
  in
  Parallel.map ~jobs (List.map task spec.Spec.schemes)

let test_results_independent_of_workers () =
  let seq = sweep 1 in
  let par = sweep 4 in
  checki "same length" (List.length seq) (List.length par);
  checkb "byte-identical results" true
    (Marshal.to_string seq [] = Marshal.to_string par [])

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "submission order" `Quick test_submission_order;
          Alcotest.test_case "map_named" `Quick test_map_named;
          Alcotest.test_case "exceptions propagate" `Quick
            test_exception_propagates;
          Alcotest.test_case "counters" `Quick test_counters;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "1 vs 4 workers byte-identical" `Slow
            test_results_independent_of_workers;
        ] );
    ]
