(* Deterministic simulation tests: random seeded fault plans, four
   invariants, and byte-identical replay. A failure prints the seed
   and the exact command that reproduces the run. *)

module Dst = Experiments.Dst

let report_failures outcomes =
  let failed = Dst.failed outcomes in
  if failed <> [] then begin
    let b = Buffer.create 512 in
    List.iter
      (fun o -> Buffer.add_string b (Format.asprintf "%a" Dst.pp_failure o))
      failed;
    Alcotest.failf "%d/%d DST runs violated invariants:\n%s"
      (List.length failed) (List.length outcomes) (Buffer.contents b)
  end

(* All four invariants across randomized fault plans for every scheme
   in the default set (>= 3 schemes). Seeds are arbitrary but fixed so
   a regression names the exact seed to replay. *)
let invariants_default_schemes () =
  report_failures
    (Dst.run_seeds ~schemes:Dst.default_schemes ~seeds:[ 1; 2; 3; 4; 5 ] ())

(* The remaining known schemes get a lighter sweep. *)
let invariants_remaining_schemes () =
  let rest =
    List.filter (fun s -> not (List.mem s Dst.default_schemes)) Dst.all_schemes
  in
  report_failures (Dst.run_seeds ~schemes:rest ~seeds:[ 6; 7 ] ())

(* Container-overlay churn episodes (cold-start, serverless bursts,
   migration storms — the kind cycles with the seed) across >= 20
   seeds: conservation, stale-delivery, occupancy and churn-batch
   accounting must hold under sustained remapping pressure. *)
let churn_invariants () =
  report_failures (List.init 21 (fun seed -> Dst.run_churn ~seed ()))

(* A churn run is as replayable as a fault run. *)
let churn_replay_byte_identical () =
  let a = Dst.run_churn ~seed:7 () in
  let b = Dst.run_churn ~seed:7 () in
  Alcotest.(check string) "churn transcript replay" a.Dst.transcript
    b.Dst.transcript

(* Replaying a seed must reproduce the run byte-identically — this is
   what makes a printed failing seed actionable. *)
let replay_byte_identical () =
  List.iter
    (fun scheme ->
      let a = Dst.run_one ~seed:11 ~scheme () in
      let b = Dst.run_one ~seed:11 ~scheme () in
      Alcotest.(check string)
        (Printf.sprintf "transcript replay (%s)" scheme)
        a.Dst.transcript b.Dst.transcript)
    Dst.default_schemes

(* The plan embedded in an outcome round-trips through the textual
   form, so a transcript's plan line is a complete reproduction. *)
let plan_roundtrip () =
  let o = Dst.run_one ~seed:3 ~scheme:"nocache" () in
  let plan = Dessim.Fault.of_string_exn o.Dst.plan in
  Alcotest.(check string)
    "plan to_string/of_string round-trip" o.Dst.plan
    (Dessim.Fault.to_string plan)

let () =
  Alcotest.run "dst"
    [
      ( "invariants",
        [
          Alcotest.test_case "default schemes, seeds 1-5" `Quick
            invariants_default_schemes;
          Alcotest.test_case "remaining schemes, seeds 6-7" `Quick
            invariants_remaining_schemes;
          Alcotest.test_case "container churn episodes, seeds 0-20" `Quick
            churn_invariants;
        ] );
      ( "replay",
        [
          Alcotest.test_case "same seed, byte-identical transcript" `Quick
            replay_byte_identical;
          Alcotest.test_case "churn run, byte-identical transcript" `Quick
            churn_replay_byte_identical;
          Alcotest.test_case "plan text round-trip" `Quick plan_roundtrip;
        ] );
    ]
