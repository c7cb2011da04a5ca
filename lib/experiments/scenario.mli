(** Run entry points for {!Netsim.Scenario} specs.

    [Netsim.Scenario] is the pure data layer (spec type, textual form,
    validation, flow/fault realization); this module closes the loop
    with the scheme library: it turns a spec's {!Netsim.Scenario.scheme_spec}
    alternatives into {!Netsim.Scheme.t} values and drives
    {!Runner.run} (or {!Runner.run_sharded}, when the spec asks for
    more than one shard).

    A spec's [schemes] list is a sweep axis: {!tasks} yields one named
    thunk per scheme over the shared topology/workload, at exactly the
    {!Parallel.map} granularity the experiment sweeps use, and {!run}
    executes them. Results are byte-identical to hand-written
    [Runner] calls with the same inputs — that is the point. *)

(** The calling domain's realization of the spec's topology
    ({!Setup.pooled}). *)
val realize : Netsim.Scenario.t -> Setup.t

(** Construct one scheme alternative against the realized topology.
    [Switchv2p] share vectors become VIP-parity cache partitions. *)
val build_scheme :
  Netsim.Scenario.t -> Setup.t -> Netsim.Scenario.scheme_spec -> Netsim.Scheme.t

val label : Netsim.Scenario.t -> Netsim.Scenario.scheme_spec -> string

(** ["<scenario name>/<scheme label>"] — the task and telemetry report
    name. *)
val task_name : Netsim.Scenario.t -> Netsim.Scenario.scheme_spec -> string

(** The spec's shard count: domains per run. *)
val shards_of : Netsim.Scenario.t -> int

(** A spec's run inputs, realized on the calling domain: topology,
    flows, horizon, and the fault plan with any container-churn
    episode compiled in. *)
type prepared = private {
  spec : Netsim.Scenario.t;
  setup : Setup.t;
  flows : Netcore.Flow.t list;
  until : Dessim.Time_ns.t;
  faults : Dessim.Fault.plan option;
}

val prepare : Netsim.Scenario.t -> prepared

(** [run_prepared ?report_name p s] runs one scheme alternative over
    [p]'s inputs, unsharded or sharded per the spec. *)
val run_prepared :
  ?report_name:string -> prepared -> Netsim.Scenario.scheme_spec -> Runner.result

(** [run_scheme ?report_name spec s] is [run_prepared (prepare spec) s]:
    one scheme alternative, end to end. *)
val run_scheme :
  ?report_name:string ->
  Netsim.Scenario.t ->
  Netsim.Scenario.scheme_spec ->
  Runner.result

(** One named thunk per scheme alternative, for {!Parallel.map}. *)
val tasks : Netsim.Scenario.t -> (string * (unit -> Runner.result)) list

(** Execute every alternative via the worker pool, sized to the cores
    divided by {!shards_of}; results in scheme order, named
    {!task_name}. *)
val run : Netsim.Scenario.t -> (string * Runner.result) list

(** Parse, validate and run a committed scenario file. *)
val run_file :
  string ->
  ( Netsim.Scenario.t * (string * Runner.result) list,
    Netsim.Scenario.error )
  result
