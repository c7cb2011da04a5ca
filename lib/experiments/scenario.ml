(* The run side of scenarios-as-data: realize a [Netsim.Scenario.t]
   against the scheme library and drive [Runner]/[Runner.run_sharded].
   The data layer (parsing, validation, flows, fault plans) lives in
   [Netsim.Scenario]; this module owns only what needs the scheme
   constructors, which would be a dependency cycle one library down. *)

module Spec = Netsim.Scenario
module Time_ns = Dessim.Time_ns
module Vip = Netcore.Addr.Vip

let realize (spec : Spec.t) = Setup.pooled spec.Spec.topo

let build_scheme (spec : Spec.t) (setup : Setup.t) (s : Spec.scheme_spec) =
  let topo = setup.Setup.topo in
  let slots sl = Spec.cache_slots spec sl in
  match s.Spec.kind with
  | Spec.Nocache -> Schemes.Baselines.nocache ()
  | Spec.Direct -> Schemes.Baselines.direct ()
  | Spec.Ondemand -> Schemes.Baselines.ondemand ()
  | Spec.Hoverboard -> Schemes.Baselines.hoverboard ()
  | Spec.Dht -> Schemes.Dht_store.make topo
  | Spec.Locallearning sl ->
      Schemes.Baselines.locallearning ~topo ~total_slots:(slots sl)
  | Spec.Gwcache sl -> Schemes.Baselines.gwcache ~topo ~total_slots:(slots sl)
  | Spec.Bluebird sl ->
      Schemes.Baselines.bluebird ~topo ~total_slots:(slots sl) ()
  | Spec.Controller { slots = sl; interval } ->
      Schemes.Controller.make ~topo ~total_slots:(slots sl) ~interval ()
  | Spec.Switchv2p { slots = sl; config; shares } ->
      let partition =
        Option.map
          (fun shares ->
            (* Tenancy is VIP parity, matching [classify = Vip_parity]. *)
            Switchv2p.Partition.create_fn ~num_tenants:(Array.length shares)
              ~shares (fun vip -> Vip.to_int vip land 1))
          shares
      in
      Schemes.Switchv2p_scheme.make ~config ?partition topo
        ~total_cache_slots:(slots sl)

let label = Spec.scheme_label

let shards_of (spec : Spec.t) =
  let (Spec.Shards n) = spec.Spec.shards in
  n

type prepared = {
  spec : Spec.t;
  setup : Setup.t;
  flows : Netcore.Flow.t list;
  until : Time_ns.t;
  faults : Dessim.Fault.plan option;
}

let prepare (spec : Spec.t) =
  let setup = realize spec in
  let flows = Spec.flows spec in
  let until = Spec.horizon spec ~flows in
  { spec; setup; flows; until; faults = Spec.fault_plan spec setup.Setup.topo ~until }

let run_prepared ?report_name p (s : Spec.scheme_spec) =
  let { spec; setup; flows; until; faults } = p in
  let net_config = Spec.net_config spec in
  let shards = shards_of spec in
  if shards <= 1 then
    Runner.run ?report_name ~net_config ?faults setup
      ~scheme:(build_scheme spec setup s) ~flows ~migrations:[] ~until
  else
    snd
      (Runner.run_sharded ~net_config ?faults ~shards setup
         ~fresh_scheme:(fun ~shard:_ -> build_scheme spec setup s)
         ~flows ~migrations:[] ~until)

let run_scheme ?report_name spec s = run_prepared ?report_name (prepare spec) s

let task_name (spec : Spec.t) s = spec.Spec.name ^ "/" ^ label spec s

(* One task per scheme alternative — the [Parallel.map] granularity
   every sweep uses. Flows are deterministic in the spec, so each task
   regenerates them domain-locally (topologies are mutable and must
   not cross domains; see [Setup.pooled]). *)
let tasks (spec : Spec.t) =
  List.map
    (fun s ->
      let name = task_name spec s in
      (name, fun () -> run_scheme ~report_name:name spec s))
    spec.Spec.schemes

(* Each sharded run occupies [shards] domains, so the pool gets the
   cores left over: sweeps keep the total domain count near the core
   count. *)
let run spec =
  let jobs = max 1 (Domain.recommended_domain_count () / shards_of spec) in
  Parallel.map_named ~jobs (tasks spec)

let run_file path =
  match Spec.of_file path with
  | Error e -> Error e
  | Ok spec -> Ok (spec, run spec)
