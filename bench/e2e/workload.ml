(* The benchmark's workloads: committed scenario files, one scheme each,
   always single-shard. *)

module Spec = Netsim.Scenario

let names = [ "hadoop-sv2p"; "hadoop-direct"; "hadoop-churn-sv2p"; "ft16-paper-sv2p" ]

(* [load ~dir ~seed name] parses [dir/name.scn] and replaces its
   workload seed with [seed]. [tiny] swaps the topology preset for the
   tiny one of the same family (the smoke test's size). *)
let load ?(tiny = false) ~dir ~seed name =
  let path = Filename.concat dir (name ^ ".scn") in
  match Spec.of_file path with
  | exception Sys_error msg -> Error msg
  | Error e -> Error (path ^ ": " ^ Spec.error_to_string e)
  | Ok spec -> (
      match (spec.Spec.schemes, spec.Spec.shards) with
      | [ _ ], Spec.Shards 1 ->
          let arm =
            match spec.Spec.topo.Spec.arm with
            | Spec.Preset { family; scale = _ } when tiny ->
                Spec.Preset { family; scale = `Tiny }
            | arm -> arm
          in
          Ok { spec with Spec.topo = { Spec.arm; topo_seed = seed } }
      | _ ->
          Error (path ^ ": a workload needs exactly one scheme and shards=1"))
