(** Measurement collection for a simulation run.

    Gathers exactly the quantities the paper reports: cache hit rate
    (fraction of tenant packets that never reach a gateway), flow
    completion times, first-packet latencies, per-packet latency,
    hit-location distribution across switch layers (Table 5),
    per-switch and per-pod processed bytes (Figures 7/8), packet
    stretch, drops, and the migration counters of Table 4. *)

type t

(** Where a packet was lost. [Link_buffer] — the egress queue was
    full; [Failed_switch] — a failed/rebooting switch blackholed it;
    [Gateway_miss] — the gateway had no mapping for the destination
    VIP; [Host_miss] — a host could not re-resolve a moved VM.
    The [Fault_*] sites are injected-fault losses: [Fault_blackhole] —
    every candidate next hop was behind a downed link;
    [Fault_loss] — a per-link loss channel (Bernoulli or
    Gilbert-Elliott) discarded the packet; [Fault_gateway] — the
    packet arrived at a gateway inside an outage window. *)
type drop_site =
  | Link_buffer
  | Failed_switch
  | Gateway_miss
  | Host_miss
  | Fault_blackhole
  | Fault_loss
  | Fault_gateway

(** [create ?classify topo rng] — when [classify] is given, tenant-level
    sent/gateway counters are kept per class (e.g. per VPC), queryable
    with {!class_hit_rate}. *)
val create :
  ?classify:(Netcore.Packet.t -> int) -> Topo.Topology.t -> Dessim.Rng.t -> t

(** [merge a b] is a fresh collector equivalent to having recorded
    both event streams into one: counters and the drop matrix add,
    per-class tables add keywise, latency/stretch summaries and the
    FCT reservoir merge exactly, [last_misdelivered_arrival] takes the
    later time. Commutative; [a] and [b] are left untouched. Both must
    come from the same topology ([Invalid_argument] otherwise); the
    result keeps [a]'s classifier. Used by the sharded runtime to
    combine per-shard collectors after a run. *)
val merge : t -> t -> t

(** Recording hooks (called by the engine). *)

val packet_sent : t -> Netcore.Packet.t -> unit

(** [packet_dropped t ~site pkt] records a loss. Every packet kind is
    counted (data, ack, learning, invalidation) — not just tenant
    traffic. *)
val packet_dropped : t -> site:drop_site -> Netcore.Packet.t -> unit

val gateway_arrival : t -> Netcore.Packet.t -> unit

(** [switch_processed t ~switch pkt] accounts bytes and stretch. *)
val switch_processed : t -> switch:int -> Netcore.Packet.t -> unit

(** [delivered t pkt ~now ~first_of_flow] classifies the hit layer on
    final delivery to the correct host. *)
val delivered : t -> Netcore.Packet.t -> now:Dessim.Time_ns.t -> first_of_flow:bool -> unit

val misdelivered : t -> Netcore.Packet.t -> unit
val flow_started : t -> unit
val flow_completed : t -> fct:Dessim.Time_ns.t -> unit

(** [reserve_flows t n] makes room for [n] more {!flow_completed}
    samples, so recording them grows nothing mid-run. *)
val reserve_flows : t -> int -> unit

val first_packet_latency : t -> Dessim.Time_ns.t -> unit

(** Report accessors. *)

val flows_started : t -> int
val flows_completed : t -> int

(** [hit_rate t] is [1 - gateway tenant-packet arrivals / tenant
    packets sent]; clamped to [0, 1]. *)
val hit_rate : t -> float

(** [class_hit_rate t cls] is the same, restricted to packets whose
    classifier value is [cls]; 0 when the class sent nothing or no
    classifier was installed. *)
val class_hit_rate : t -> int -> float

(** [class_packets_sent t cls] — sent tenant packets in class [cls]. *)
val class_packets_sent : t -> int -> int

(** [classes t] — the classifier values observed so far, ascending;
    empty when no classifier was installed or nothing was sent. *)
val classes : t -> int list

val gateway_packets : t -> int
val packets_sent : t -> int

(** [retransmits_sent t] — tenant packets sent with the retransmit
    flag set (RTO-driven resends under loss/failure). *)
val retransmits_sent : t -> int

(** [delivered_packets t] — packets of every kind delivered to their
    final destination host (one side of the conservation invariant). *)
val delivered_packets : t -> int

(** [packets_dropped t] — total losses across all kinds and sites. *)
val packets_dropped : t -> int

(** [drops_by_kind t] / [drops_by_site t] break the total down, in a
    fixed order (data, ack, learning, invalidation / link_buffer,
    failed_switch, gateway_miss, host_miss, fault_blackhole,
    fault_loss, fault_gateway). *)
val drops_by_kind : t -> (string * int) list

val drops_by_site : t -> (string * int) list
val mean_fct : t -> float

(** [fct_percentile t p] — seconds; raises [Not_found] if no flow
    completed. *)
val fct_percentile : t -> float -> float

val mean_first_packet_latency : t -> float
val mean_packet_latency : t -> float

(** [layer_hits t] is [(core, spine, tor, gateway_resolved, host_resolved)]
    over all delivered data packets; [first_packet_layer_hits] the
    same over first packets only. *)
val layer_hits : t -> int * int * int * int * int

val first_packet_layer_hits : t -> int * int * int * int * int

(** [bytes_of_switch t switch] / [bytes_of_pod t pod] are processed
    bytes (a packet transiting a switch is counted once there). *)
val bytes_of_switch : t -> int -> int

val bytes_of_pod : t -> int -> int
val total_switch_bytes : t -> int

(** [mean_stretch t] is the average number of switches a delivered
    data packet traversed. *)
val mean_stretch : t -> float

val misdelivered_packets : t -> int

(** [last_misdelivered_arrival t] is the delivery time of the last
    packet that had been misdelivered, or [None]. *)
val last_misdelivered_arrival : t -> Dessim.Time_ns.t option
