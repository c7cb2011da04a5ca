(** The packet-level network simulation: topology + scheme + transport
    + gateways, wired to a discrete-event engine.

    A [Network.t] owns the VM placement (VIP [i] lives on host
    [hosts.(i / vms_per_host)]), the ground-truth mapping store, the
    metric collectors, and the packet forwarding loop. Schemes plug in
    via {!Scheme.t}. *)

type migration = {
  at : Dessim.Time_ns.t;
  vip : Netcore.Addr.Vip.t;
  to_host : int;  (** destination host node id *)
}

type config = {
  seed : int;
  gw_proc_delay : Dessim.Time_ns.t;  (** gateway translation latency *)
  host_fwd_delay : Dessim.Time_ns.t;
      (** old-host processing of a misdelivered packet *)
  window : int;  (** transport window, packets *)
  rto : Dessim.Time_ns.t;
  gateways_used : int option;
      (** restrict load balancing to the first [k] gateways (Figure 9);
          [None] uses all *)
  loopback_delay : Dessim.Time_ns.t;
      (** hypervisor-local delivery for co-located VM pairs *)
  classify : (Netcore.Packet.t -> int) option;
      (** per-class (e.g. per-tenant) metric counters; see
          {!Metrics.class_hit_rate} *)
  transport_mode : Transport.mode;
      (** congestion behavior of reliable flows; DCTCP reacts to the
          fabric's ECN marks *)
  telemetry : Dessim.Telemetry.t;
      (** structured-telemetry collector; {!Dessim.Telemetry.disabled}
          (the default) makes every hook a no-op. When enabled, the
          network records latency/FCT histograms, samples scheme and
          network counters every
          {!Dessim.Telemetry.sample_interval}, and hands the collector
          to the scheme's {!Scheme.telemetry_hooks}. Instrumented runs
          are bit-identical to uninstrumented ones. *)
}

val default_config : config

type t

(** [create ?config topo ~scheme] builds the network, places VMs and
    installs the ground-truth mappings. *)
val create : ?config:config -> Topo.Topology.t -> scheme:Scheme.t -> t

(** [load t flows ~migrations] hands [t] a workload: it sizes the
    transport's flow tables from [flows] (flow count, summed packet
    counts, largest id), then queues every flow start and every
    migration as a typed engine event, in list order. On a shard (see
    {!set_shard}) a flow's receiver starts on its receiver-home shard
    and its sender on its sender-home shard, receiver first when both
    are here. *)
val load :
  t -> Netcore.Flow.t list -> migrations:migration list -> unit

(** [run t flows ~migrations ~until] is {!load} followed by the event
    loop up to [until] (simulation time). *)
val run :
  t -> Netcore.Flow.t list -> migrations:migration list -> until:Dessim.Time_ns.t -> unit

val metrics : t -> Metrics.t
val transport : t -> Transport.t
val topo : t -> Topo.Topology.t
val mapping : t -> Netcore.Mapping.t
val engine : t -> Dessim.Engine.t
val env : t -> Scheme.env

(** [vm_host t vip] is the node id currently hosting [vip]. *)
val vm_host : t -> Netcore.Addr.Vip.t -> int

(** [num_vms t] is the size of the VIP space. *)
val num_vms : t -> int

(** [host_of_vm_index t i] is the host for dense VIP index [i]
    (placement helper for workload generators). *)
val host_of_vm_index : t -> int -> int

(** [gateway_for_flow t flow_id] — the gateway replica serving a flow
    (per-flow load balancing). *)
val gateway_for_flow : t -> int -> int

(** {2 Fault injection}

    A {!Dessim.Fault.plan} installed before {!run} schedules every
    fault as a typed engine event. With no plan installed the fault
    layer is dead branches: no RNG draws, no behavior change, and
    byte-identical event transcripts. *)

(** [install_faults t plan] validates the plan against the topology
    (link endpoints must be adjacent, switch/gateway ids must name
    switches/gateways) and schedules its specs. The runtime fault RNG
    (per-packet loss draws, churn victim selection) is re-seeded from
    [plan.seed], so equal plans replay byte-identically. Raises
    [Invalid_argument] on an invalid plan or if a plan is already
    installed. *)
val install_faults : t -> Dessim.Fault.plan -> unit

(** [faults_installed t] — whether a plan has been installed. *)
val faults_installed : t -> bool

(** [fault_counts t] — fault firings so far, per
    {!Dessim.Fault.kind_name}, in kind order. *)
val fault_counts : t -> (string * int) list

(** [migrate_now t ~vip ~to_host] performs a migration immediately
    (ground truth + scheme notification); churn faults and scheduled
    migrations both land here. *)
val migrate_now : t -> vip:Netcore.Addr.Vip.t -> to_host:int -> unit

(** [gateway_is_down t node] — whether gateway [node] is inside an
    outage window. *)
val gateway_is_down : t -> int -> bool

(** {2 Conservation accounting}

    Every packet entering the network ([injected_packets]: tenant
    sends including hypervisor loopbacks, plus scheme-emitted control
    packets) ends in exactly one of: delivered
    ({!Metrics.delivered_packets}), dropped ({!Metrics.packets_dropped},
    any site), consumed by a switch ([consumed_at_switch]), or still
    in flight ([live_packets]). The DST harness checks the sum. *)

val injected_packets : t -> int

(** [consumed_at_switch t] — packets that terminated at a switch: a
    pipeline [consume] verdict or a control packet reaching the switch
    it was addressed to. *)
val consumed_at_switch : t -> int

(** [live_packets t] — pool slots currently held by in-flight
    packets. *)
val live_packets : t -> int

(** {2 Domain sharding}

    Hooks used by {!Parnet} to run one logical simulation as [n]
    per-domain networks under the conservative window protocol of
    {!Dessim.Shard}. Each shard owns the state of its nodes; packets
    cross the partition as fixed-stride int records over
    {!Dessim.Spsc} mailboxes. A network with no shard context behaves
    exactly as before — the sharded branches are dead. *)

(** Ints per serialized handoff record. *)
val handoff_stride : int

(** [handoff_encode buf off pkt] writes [pkt]'s flight state into the
    packet half of the record at [off] (ints [off+3] to
    [off+handoff_stride-1]; the first three hold mode, arrival time and
    edge). [handoff_decode buf off pkt] reads it back, overwriting
    every field of [pkt] but [pool_slot]. Riders travel as their raw
    ints, [-1] when absent. *)
val handoff_encode : int array -> int -> Netcore.Packet.t -> unit

val handoff_decode : int array -> int -> Netcore.Packet.t -> unit

(** [set_shard t ~my ~owner ~out ~lookahead ~send_home ~recv_home]
    turns [t] into shard [my]: [owner] maps node id to owning shard,
    [out.(s)] is the outbound mailbox to shard [s] (stride
    {!handoff_stride}), [lookahead] is the minimum cross-shard link
    latency, and [send_home]/[recv_home] map flow ids to the shards
    holding the flow's transport sender/receiver. Must run before
    {!install_faults} (fault events are partitioned by ownership). *)
val set_shard :
  t ->
  my:int ->
  owner:int array ->
  out:Dessim.Spsc.t array ->
  lookahead:Dessim.Time_ns.t ->
  send_home:int array ->
  recv_home:int array ->
  unit

(** [receive_handoff t buf off] injects one serialized record (at
    [off] of [buf]) into this shard's engine — the [drain] callback of
    {!Dessim.Shard.run} feeds every inbound mailbox through this, in
    fixed source-shard order. *)
val receive_handoff : t -> int array -> int -> unit

(** Conservation counters for sharded runs: records pushed to /
    injected from mailboxes. Summed across shards,
    [sent - received] is the number of packets in flight between
    shards; both are 0 on an unsharded network. *)
val handoffs_sent : t -> int

val handoffs_received : t -> int
