(** End-host transport: a windowed reliable protocol and constant-rate
    UDP.

    The reliable protocol is deliberately simple — fixed window,
    per-packet ACKs, go-back-N retransmission on timeout — because the
    paper's metrics (FCT, first-packet latency) depend on delivery
    times, not on congestion-control dynamics; the paper itself notes
    that modern TCP absorbs the reordering SwitchV2P can introduce.
    Reordering events are counted so tests can observe them. *)

type callbacks = {
  now : unit -> Dessim.Time_ns.t;
  timeout : Dessim.Time_ns.t -> flow_id:int -> gen:int -> unit;
      (** [timeout delay ~flow_id ~gen] must call
          {!timed_out}[ t ~flow_id ~gen] [delay] from now: the
          retransmission timer of a reliable flow. [gen] names the
          start of the flow that armed it, so a timer left over from an
          earlier start of the same id does nothing. Two ints, so the
          host can queue it as a typed engine event rather than a
          closure. *)
  pace : Dessim.Time_ns.t -> flow_id:int -> seq:int -> unit;
      (** [pace delay ~flow_id ~seq] must call {!paced}[ t ~flow_id ~seq]
          [delay] from now: the next send of a UDP flow, shaped like
          [timeout]. *)
  send_data :
    Netcore.Flow.t -> seq:int -> size:int -> retransmit:bool -> unit;
  send_ack : Netcore.Flow.t -> seq:int -> ecn_echo:bool -> unit;
      (** [ecn_echo] carries the data packet's CE mark back to the
          sender (the ECE bit) *)
  flow_done : Netcore.Flow.t -> fct:Dessim.Time_ns.t -> unit;
      (** all payload bytes arrived at the receiver *)
  first_packet : Netcore.Flow.t -> latency:Dessim.Time_ns.t -> unit;
}

(** Congestion behavior of reliable flows. [Windowed] grows the
    congestion window by one per ACK up to the cap and ignores ECN;
    [Dctcp] additionally runs the DCTCP control law — the fraction of
    CE-marked ACKs per window drives the EWMA [alpha], and each marked
    window multiplicatively cuts cwnd by [alpha/2]. *)
type mode = Windowed | Dctcp

type t

(** [create ~mode ~window ~rto callbacks] — [window] caps the in-flight
    packet budget; [rto] is the retransmission timeout.

    Flow state lives in flat tables indexed by flow: one row of ints
    per flow id, a float array for the congestion windows, and two
    shared byte arenas for the per-packet ACK and receive maps. They
    start empty and grow by doubling unless {!reserve} sized them
    first. *)
val create :
  ?mode:mode -> ?window:int -> ?rto:Dessim.Time_ns.t -> callbacks -> t

(** [reserve t ~flows ~ack_packets ~recv_packets ~max_id] sizes the
    tables for [flows] more flow ids (none above [max_id]) whose
    reliable senders total [ack_packets] packets and whose receivers
    total [recv_packets]: starting, completing and timing out those
    flows once each then allocates nothing (a restart takes fresh
    ACK and receive maps beyond the reservation). A sparse [max_id],
    at least 4 x (the ids stored so far plus [flows]), leaves the id
    map to its usual growth. *)
val reserve :
  t -> flows:int -> ack_packets:int -> recv_packets:int -> max_id:int -> unit

(** [start t flow] begins transmission at the current time — equivalent
    to [start_receiver] then [start_sender] on the same instance. *)
val start : t -> Netcore.Flow.t -> unit

(** [start_receiver t flow] registers only the receiver-side state.
    The sharded runtime calls this on the instance owning the flow's
    receiving host while [start_sender] runs on the instance owning the
    sending host; in a single-shard run both live in one instance and
    plain [start] is used. *)
val start_receiver : t -> Netcore.Flow.t -> unit

(** [start_sender t flow] begins transmission without touching the
    receiver side. *)
val start_sender : t -> Netcore.Flow.t -> unit

(** [on_data t pkt] — a data packet arrived at the correct receiving
    host. Generates ACKs for reliable flows; records latency hooks. *)
val on_data : t -> Netcore.Packet.t -> unit

(** [on_ack t pkt] — an ACK arrived back at the sender. *)
val on_ack : t -> Netcore.Packet.t -> unit

(** [timed_out t ~flow_id ~gen] runs the retransmission timer armed
    through {!callbacks.timeout}: if the flow's current start is [gen]
    and it is not done, a full RTO without progress resends the unacked
    packets (go-back-N, at most a window of them), and the timer
    re-arms. A timer from an earlier start, or of an unknown flow, does
    nothing. *)
val timed_out : t -> flow_id:int -> gen:int -> unit

(** [paced t ~flow_id ~seq] sends packet [seq] of the UDP flow
    [flow_id] started on [t] (if [seq] is still inside the flow) and
    asks {!callbacks.pace} for the next one. Raises [Invalid_argument]
    unless the current start of [flow_id] on [t] is a UDP sender. *)
val paced : t -> flow_id:int -> seq:int -> unit

val flows_completed : t -> int

(** [has_received_any t ~flow_id] — whether the receiver already saw a
    data packet of the flow (used to classify "first packet" hits). *)
val has_received_any : t -> flow_id:int -> bool

(** [receiver_done t ~flow_id] — whether the receiver has accepted
    every distinct sequence number of the flow. Exposed for the DST
    harness's stale-delivery invariant. *)
val receiver_done : t -> flow_id:int -> bool

(** [received_distinct t ~flow_id] — distinct sequence numbers the
    receiver has accepted so far (duplicates from retransmission are
    not double-counted). *)
val received_distinct : t -> flow_id:int -> int

(** [reordering_events t] counts data arrivals with a sequence number
    lower than one already received (per flow, first-arrival only). *)
val reordering_events : t -> int

(** [dense_capacities t] is the current dense capacity of the flow-id
    map, once for the sender side and once for the receiver side (both
    share one map). Exposed so tests can pin the population-gated
    growth policy: a single sparse flow id must spill to the hashtable
    instead of committing up to 2^20 slots. *)
val dense_capacities : t -> int * int

(** [cwnd t ~flow_id] is the sender's current congestion window in
    packets, or [None] for unknown/UDP flows (tests, debugging). *)
val cwnd : t -> flow_id:int -> int option

(** [alpha t ~flow_id] is the DCTCP congestion estimate for the flow;
    meaningful only in [Dctcp] mode. *)
val alpha : t -> flow_id:int -> float option
