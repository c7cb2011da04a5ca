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
  schedule : Dessim.Time_ns.t -> (unit -> unit) -> unit;  (** relative delay *)
  pace : Dessim.Time_ns.t -> flow_id:int -> seq:int -> unit;
      (** [pace delay ~flow_id ~seq] must call {!paced}[ t ~flow_id ~seq]
          [delay] from now: the next send of a UDP flow. Two ints, so
          the host can queue it as a typed engine event rather than a
          closure. *)
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
    packet budget; [rto] is the retransmission timeout. *)
val create :
  ?mode:mode -> ?window:int -> ?rto:Dessim.Time_ns.t -> callbacks -> t

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

(** [paced t ~flow_id ~seq] sends packet [seq] of the UDP flow
    [flow_id] started on [t] (if [seq] is still inside the flow) and
    asks {!callbacks.pace} for the next one. Raises [Invalid_argument]
    if no UDP sender for [flow_id] was started on [t]. *)
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

(** [dense_capacities t] is the current dense-lane capacity of the
    (sender, receiver) flow stores, in option slots. Exposed so tests
    can pin the population-gated growth policy: a single sparse flow id
    must spill to the hashtable instead of committing up to 2^20 boxed
    slots (~8 MB) per lane. *)
val dense_capacities : t -> int * int

(** [cwnd t ~flow_id] is the sender's current congestion window in
    packets, or [None] for unknown/UDP flows (tests, debugging). *)
val cwnd : t -> flow_id:int -> int option

(** [alpha t ~flow_id] is the DCTCP congestion estimate for the flow;
    meaningful only in [Dctcp] mode. *)
val alpha : t -> flow_id:int -> float option
