(** The SwitchV2P data plane: per-switch caches plus the full §3
    pipeline — lookup/rewrite, role-dependent learning (Table 1),
    learning packets, spillover, promotion, misdelivery tagging and
    the invalidation protocol.

    This module is engine-agnostic: the host simulator supplies an
    {!env} with a clock, a packet injector and an id allocator, and
    calls {!process} for every packet a switch receives. *)

(** Capabilities the surrounding simulator provides. *)
type env = {
  now : unit -> Dessim.Time_ns.t;
  emit : src_switch:int -> Netcore.Packet.t -> unit;
      (** inject a freshly generated control packet at a switch *)
  fresh_packet_id : unit -> int;
  pooled_packet : unit -> Netcore.Packet.t;
      (** a packet to fill with {!Netcore.Packet.reset_control} for a
          control message; the simulator may recycle it from a pool *)
  rng : Dessim.Rng.t;
}

type t

(** What {!process} tells the simulator to do with the packet. *)
type verdict =
  | Forward  (** keep routing toward [dst_pip] (possibly rewritten) *)
  | Consume  (** the packet terminated at this switch *)

(** [create ?partition config topo ~total_cache_slots] builds
    per-switch caches. [total_cache_slots] is the aggregate cache size
    over all switches, divided according to [config.allocation]
    (uniform by default, remainder round-robin). Each switch's share
    is further split into private per-tenant partitions when
    [partition] is given (§4 multitenancy); the default is a single
    tenant owning the whole VIP space. *)
val create :
  ?partition:Partition.t ->
  Config.t ->
  Topo.Topology.t ->
  total_cache_slots:int ->
  t

val config : t -> Config.t

(** {1 Pipeline stages}

    The §3 per-switch program, split along the paper's match-action
    boundaries. Each stage takes the packet arriving at [switch] from
    neighbor [from], mutates it in place, and returns an int
    {!Verdict}: a final verdict ends processing; {!Verdict.next}
    hands the packet to the following stage.

    - {!classify} — control-packet handling (learning/invalidation
      delivery) and ToR misdelivery tagging + invalidation emission;
    - {!lookup} — cache lookup/rewrite (tagged packets use the
      conservative variant) and spine promotion marking;
    - {!admit} — spillover absorption and role-dependent learning
      (Table 1 admission policies);
    - {!emit} — gateway-ToR learning-packet generation.

    Stage order is part of the simulation contract: it fixes the RNG
    draw sequence and therefore the golden transcripts. *)

val classify : t -> env -> switch:int -> from:int -> Netcore.Packet.t -> int
val lookup : t -> env -> switch:int -> from:int -> Netcore.Packet.t -> int
val admit : t -> env -> switch:int -> from:int -> Netcore.Packet.t -> int
val emit : t -> env -> switch:int -> from:int -> Netcore.Packet.t -> int

(** [process_packed t env ~switch ~from pkt] runs all four stages in
    order and returns the final int verdict (allocation-free). *)
val process_packed :
  t -> env -> switch:int -> from:int -> Netcore.Packet.t -> int

(** [process t env ~switch ~from pkt] is {!process_packed} with the
    result decoded into a {!verdict} (data/ack traffic never delays or
    drops, so the two-constructor variant is lossless here). *)
val process : t -> env -> switch:int -> from:int -> Netcore.Packet.t -> verdict

(** [geo_cache t ~switch] is the switch's tenant-0 cache, with its
    TinyLFU filter when [config.tinylfu] is set. Raises
    [Invalid_argument] if [switch] is not a switch node. *)
val geo_cache : t -> switch:int -> Geo_cache.t

(** [cache t ~switch] is the switch's tenant-0 table — the whole cache
    in the default single-tenant configuration (tests, metrics), at
    any way count. Raises [Invalid_argument] if [switch] is not a
    switch node. *)
val cache : t -> switch:int -> Cache.t

(** [cache_of_tenant t ~switch ~tenant] is one tenant's private
    partition. Raises [Invalid_argument] on bad indices. *)
val cache_of_tenant : t -> switch:int -> tenant:int -> Cache.t

(** [slots_of t ~switch] is that switch's total cache capacity across
    tenants. *)
val slots_of : t -> switch:int -> int

(** [role_of t ~switch] is the switch's current protocol role. *)
val role_of : t -> switch:int -> Topo.Node.role

(** [reassign_role t ~switch role] implements the §4 gateway-migration
    control-plane operation: a ToR may switch between gateway-ToR and
    regular-ToR behavior (and spines likewise) without touching cache
    state. Cross-tier reassignment raises [Invalid_argument]. *)
val reassign_role : t -> switch:int -> Topo.Node.role -> unit

(** [fail_switch t ~switch] models a switch reboot losing its
    data-plane state: every cache partition is wiped. Forwarding
    correctness is unaffected — subsequent packets just miss to the
    gateways (the paper's §2 resilience argument). *)
val fail_switch : t -> switch:int -> unit

(** Aggregate protocol counters. *)

val learning_packets_sent : t -> int
val invalidation_packets_sent : t -> int
val invalidations_suppressed : t -> int

(** [promotions t] counts promotions attached by spines. *)
val promotions : t -> int

(** [spills_attached t] / [spills_absorbed t] track the spillover
    mechanism. *)
val spills_attached : t -> int

val spills_absorbed : t -> int

(** [entries_invalidated t] counts cache lines removed by the
    invalidation machinery (tagged packets and invalidation packets). *)
val entries_invalidated : t -> int

(** [misdelivery_tags t] counts tags assigned by ToRs. *)
val misdelivery_tags : t -> int

(** [set_telemetry t tel] attaches a collector; the pipeline then feeds
    its flight recorder (tag / invalidate / promote / spill events on
    sampled packet ids). Defaults to {!Dessim.Telemetry.disabled}. *)
val set_telemetry : t -> Dessim.Telemetry.t -> unit

(** [probe_telemetry t tel ~now_sec] samples per-role-tier cache
    statistics (occupancy, hits, misses, evictions, admission
    rejections, insertions) into [tel]'s time series. *)
val probe_telemetry : t -> Dessim.Telemetry.t -> now_sec:float -> unit
