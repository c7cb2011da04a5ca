module Spec = Netsim.Scenario

type t = {
  topo : Topo.Topology.t;
  num_vms : int;
  agg_bps : float;
  seed : int;
}

let realize (spec : Spec.topo_spec) =
  let params = Spec.topo_params spec in
  let topo = Topo.Topology.build params in
  {
    topo;
    num_vms = Topo.Params.num_vms params;
    agg_bps =
      float_of_int (Array.length (Topo.Topology.hosts topo))
      *. params.Topo.Params.host_link_bps;
    seed = spec.Spec.topo_seed;
  }

(* One realized setup per (domain, spec): topologies carry per-run
   mutable link state (reset by [Network.create]), so they may be
   reused by consecutive runs on one domain — exactly the sequential
   execution model — but must never cross domains. [Domain.DLS] gives
   every worker its own pool; specs are tiny, so a small assoc list
   keyed by structural equality suffices. *)
let pool_key : (Spec.topo_spec * t) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let pooled spec =
  let pool = Domain.DLS.get pool_key in
  match List.assoc_opt spec !pool with
  | Some setup -> setup
  | None ->
      let setup = realize spec in
      pool := (spec, setup) :: !pool;
      setup
