(* Smoke test of the benchmark, run by `dune runtest`: every workload
   file at tiny scale, one untraced and one traced trial in this
   process. All output checks must pass, the traced trial must
   simulate exactly what the untraced one did, every metric
   BENCHMARK.json names must be emitted, and BENCHMARK.json must agree
   with the benchmark's own metric catalog. *)

open E2e
module Json = Dessim.Telemetry.Json

let failures = ref 0

let check cond fmt =
  Printf.ksprintf
    (fun msg ->
      if not cond then begin
        incr failures;
        Printf.printf "FAIL %s\n%!" msg
      end)
    fmt

let str = function Some (Json.Str s) -> s | _ -> ""
let num = function Some (Json.Float f) -> f | Some (Json.Int i) -> float_of_int i | _ -> nan
let list = function Some (Json.List l) -> l | _ -> []

let benchmark =
  match Json.parse (In_channel.with_open_bin "../../BENCHMARK.json" In_channel.input_all) with
  | Ok j -> j
  | Error e -> failwith ("BENCHMARK.json: " ^ e)

let () =
  let field k = Json.member k benchmark in
  check (List.map (fun p -> str (Some p)) (list (field "paths")) = [ "bench/e2e" ]) "paths";
  check
    (List.map (fun w -> str (Json.member "name" w)) (list (field "workloads")) = Workload.names)
    "BENCHMARK.json workloads differ from Workload.names";
  let e2e = list (field "end_to_end") in
  check (List.length e2e = List.length Catalog.end_to_end) "end_to_end count";
  List.iter2
    (fun j (m : Catalog.e2e) ->
      check
        (str (Json.member "name" j) = m.name
        && str (Json.member "unit" j) = m.unit
        && str (Json.member "better" j) = Catalog.better_name m.better
        && num (Json.member "bound" j) = m.bound)
        "end_to_end %s differs from the catalog" m.name)
    e2e Catalog.end_to_end;
  let layers = list (field "per_layer") in
  check (List.length layers = List.length Catalog.per_layer) "per_layer count";
  List.iter2
    (fun j (m : Catalog.layer) ->
      check
        (str (Json.member "name" j) = m.lname
        && str (Json.member "unit" j) = m.lunit
        && str (Json.member "better" j) = Catalog.better_name m.lbetter)
        "per_layer %s differs from the catalog" m.lname)
    layers Catalog.per_layer

let emits names kvs what =
  List.iter
    (fun j ->
      let name = str (Json.member "name" j) in
      match List.assoc_opt name kvs with
      | Some v -> check (Float.is_finite v) "%s: %s is not finite" what name
      | None -> check false "%s: %s not emitted" what name)
    names

let () =
  List.iter
    (fun w ->
      match Workload.load ~tiny:true ~dir:"workloads" ~seed:42 w with
      | Error e -> check false "%s" e
      | Ok spec ->
          let plain = Trial.run ~traced:false spec in
          let traced = Trial.run ~traced:true spec in
          check (plain.errors = []) "%s: %s" w (String.concat "; " plain.errors);
          check (traced.errors = []) "%s traced: %s" w (String.concat "; " traced.errors);
          check (plain.digest = traced.digest) "%s: traced digest %s <> %s" w
            traced.digest plain.digest;
          emits (list (Json.member "end_to_end" benchmark)) plain.e2e w;
          let layers =
            Trial.with_overhead traced.layers
              ~run_s:(List.assoc "run_s" traced.e2e)
              ~untraced_run_s:(List.assoc "run_s" plain.e2e)
          in
          emits (list (Json.member "per_layer" benchmark)) layers (w ^ " traced");
          Printf.printf "%-18s %s\n%!" w plain.digest)
    Workload.names;
  if !failures > 0 then begin
    Printf.printf "%d failures\n" !failures;
    exit 1
  end
