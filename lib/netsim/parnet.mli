(** Domain-sharded execution of one logical simulation.

    Partitions the topology's nodes across [n] OCaml domains — by pod
    by default, or via a pluggable [assign] — and runs one
    {!Network.t} per shard under the conservative-lookahead window
    protocol of {!Dessim.Shard}. Cross-shard packet hops travel as
    timestamped records over {!Dessim.Spsc} mailboxes; the lookahead
    is the minimum cross-shard link propagation delay, so no message
    can land inside the window that produced it.

    Deterministic for a fixed shard count: per-shard engines keep
    their (key, seq) dispatch order and mailboxes are drained in fixed
    source-shard order, so equal seeds replay byte-identically
    regardless of wall-clock interleaving. Different shard counts are
    different (equally valid) interleavings of the same workload.

    Telemetry is not supported in sharded runs: {!run} raises
    [Invalid_argument] if [config]'s collector is enabled. *)

type t

(** [run ~shards topo ~fresh_scheme ~flows ~migrations ~until] builds
    one network per shard ([fresh_scheme ~shard] must return a fresh
    scheme instance per call — shards must not share scheme state),
    schedules every flow on the shards owning its endpoints and every
    migration on all shards, and drives the whole system to [until].

    [assign] overrides the default pod-based partition (core switches
    round-robin); it must map every node to [0..shards-1].
    [faults] installs the same plan on every shard, partitioned by
    ownership inside {!Network.install_faults}. *)
val run :
  ?config:Network.config ->
  ?faults:Dessim.Fault.plan ->
  ?assign:(int -> int) ->
  shards:int ->
  Topo.Topology.t ->
  fresh_scheme:(shard:int -> Scheme.t) ->
  flows:Netcore.Flow.t list ->
  migrations:Network.migration list ->
  until:Dessim.Time_ns.t ->
  t

(** [metrics t] — the per-shard collectors combined with
    {!Metrics.merge}. *)
val metrics : t -> Metrics.t

(** [nets t] — the per-shard networks (for per-shard inspection). *)
val nets : t -> Network.t array

val shards : t -> int

(** [owner t node] — the shard owning [node]. *)
val owner : t -> int -> int

val lookahead : t -> Dessim.Time_ns.t

(** [windows t] — conservative windows executed. *)
val windows : t -> int

(** {2 Aggregates across shards} *)

(** Conservation sides, summed: injected = delivered + dropped +
    consumed + live + {!handoffs_in_flight} (messages pushed but not
    yet injected at their destination shard). *)
val injected_packets : t -> int

val consumed_at_switch : t -> int
val live_packets : t -> int
val handoffs_in_flight : t -> int

(** [transport_flows_completed t] — {!Transport.flows_completed}
    summed over shards (each flow completes on exactly one shard). *)
val transport_flows_completed : t -> int

val reordering_events : t -> int

(** [fault_counts t] — per-kind firings summed across shards (churn,
    which replays everywhere, is counted once). *)
val fault_counts : t -> (string * int) list
