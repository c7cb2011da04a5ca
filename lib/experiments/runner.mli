(** One simulation run → one row of results. *)

type result = {
  scheme : string;
  hit_rate : float;
  mean_fct : float;  (** seconds; 0 when no flow completed *)
  mean_fpl : float;  (** mean first-packet latency, seconds *)
  mean_pkt_latency : float;
  gw_packets : int;
  packets_sent : int;
  packets_dropped : int;  (** all kinds, all sites *)
  drops_by_kind : (string * int) list;
      (** data / ack / learning / invalidation *)
  drops_by_site : (string * int) list;
      (** link_buffer / failed_switch / gateway_miss / host_miss *)
  misdelivered : int;
  flows : int;  (** flows in the workload the run was given *)
  flows_started : int;
  flows_completed : int;
  stretch : float;
  layer_hits : int * int * int * int * int;  (** core/spine/tor/gw/host *)
  fp_layer_hits : int * int * int * int * int;
  last_misdelivered_arrival : Dessim.Time_ns.t option;
  reordering_events : int;
      (** data packets that arrived behind a higher sequence number
          (§4: SwitchV2P can reorder when caches are small) *)
  extra : (string * float) list;  (** scheme-specific counters *)
  class_hit_rates : (int * float) list;
      (** per-class (e.g. per-tenant) hit rates, ascending class id;
          empty unless the network config installed a classifier *)
  bytes_by_pod : (int * int) array;  (** (pod, bytes) *)
  bytes_by_switch : (int * int) array;  (** (switch node id, bytes) *)
}

(** [run ?net_config ?report_name ?faults setup ~scheme ~flows
    ~migrations ~until] builds a fresh network and executes the trace.
    [faults] is installed with {!Netsim.Network.install_faults} before
    the run, so any experiment can execute under a declarative fault
    plan. When
    [report_name] is given {e and} a telemetry directory is set (see
    {!Report.set_telemetry_dir}), the run is instrumented with a fresh
    {!Dessim.Telemetry} collector and the full report — manifest,
    histograms, per-tier cache series, drops by kind and site — is
    written to [<dir>/<slug report_name>.json]. Without both, no
    collector is created and the run is unobserved (and
    bit-identical). *)
val run :
  ?net_config:Netsim.Network.config ->
  ?report_name:string ->
  ?faults:Dessim.Fault.plan ->
  Setup.t ->
  scheme:Netsim.Scheme.t ->
  flows:Netcore.Flow.t list ->
  migrations:Netsim.Network.migration list ->
  until:Dessim.Time_ns.t ->
  result

(** [run_sharded ~shards setup ~fresh_scheme ...] executes the same
    kind of trace as {!run} but as one domain-sharded simulation
    ({!Netsim.Parnet}); [fresh_scheme ~shard] must build a fresh scheme
    per shard. Returns the Parnet handle (per-shard inspection,
    window/handoff counters) alongside the result row. Telemetry
    reports are not supported; the result's [extra] scheme stats are
    empty (per-shard stats are not generically mergeable). *)
val run_sharded :
  ?net_config:Netsim.Network.config ->
  ?faults:Dessim.Fault.plan ->
  shards:int ->
  Setup.t ->
  fresh_scheme:(shard:int -> Netsim.Scheme.t) ->
  flows:Netcore.Flow.t list ->
  migrations:Netsim.Network.migration list ->
  until:Dessim.Time_ns.t ->
  Netsim.Parnet.t * result

(** [improvement ~baseline ~v] is [baseline /. v] guarded against
    division by zero (returns 1.0 when either side is degenerate) —
    the paper's "improvement factor normalized by NoCache". *)
val improvement : baseline:float -> v:float -> float
