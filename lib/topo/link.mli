(** Directed point-to-point link with a drop-tail queue.

    The transmission model is a single-server FIFO: a packet entering
    at time [t] begins serialization at [max t busy_until], occupies
    the queue until it is delivered, and arrives at the far end after
    serialization plus propagation. Packets that would overflow the
    buffer are dropped (drop-tail). *)

type t = {
  src : int;
  dst : int;
  rate_bps : float;
  prop_delay : Dessim.Time_ns.t;
  buffer_bytes : int;
  ecn_threshold : int option;
      (** queue depth (bytes) above which enqueued packets are
          CE-marked, as DCTCP's step marking does; [None] disables *)
  mutable busy_until : Dessim.Time_ns.t;
  mutable queued_bytes : int;
  mutable drops : int;
  mutable marked : int;  (** CE marks applied *)
  mutable ser_bytes : int;
      (** serialization-time memo key (last packet size); -1 = empty *)
  mutable ser_ns : Dessim.Time_ns.t;  (** memoized result for [ser_bytes] *)
  mutable up : bool;
      (** fault injection: [false] while a [Link_down] fault is active;
          routing avoids dead links and transmissions on them black-hole *)
  mutable loss : Dessim.Fault.loss_model;
      (** fault injection: per-packet loss channel (default [No_loss]) *)
  mutable loss_state : int;  (** packed channel state for {!loss_step} *)
  mutable corrupt_next : int;
      (** fault injection: number of upcoming packets to corrupt *)
}

val make :
  ecn_threshold:int option ->
  src:int ->
  dst:int ->
  rate_bps:float ->
  prop_delay:Dessim.Time_ns.t ->
  buffer_bytes:int ->
  t

(** The outcome of a transmission attempt: when and whether the packet
    was CE-marked on enqueue. *)
type tx = { arrival : Dessim.Time_ns.t; ce_marked : bool }

(** [transmit t ~now ~bytes] attempts to enqueue a packet of [bytes].
    Returns [Some tx] on success, or [None] if the packet was dropped.
    Caller must invoke {!delivered} when the arrival event fires. *)
val transmit : t -> now:Dessim.Time_ns.t -> bytes:int -> tx option

(** [transmit_packed] is {!transmit} without the option/record
    allocation: the result is {!dropped} on a buffer overflow,
    otherwise [(arrival lsl 1) lor ce_bit] — unpack with
    {!packed_arrival} and {!packed_ce}. Arrival timestamps fit in 62
    bits (2^62 ns is about 146 simulated years), so the packing is
    lossless. *)
val transmit_packed : t -> now:Dessim.Time_ns.t -> bytes:int -> int

(** Sentinel result of {!transmit_packed} for a dropped packet. *)
val dropped : int

val packed_arrival : int -> Dessim.Time_ns.t
val packed_ce : int -> bool

(** [delivered t ~bytes] releases queue occupancy for a packet whose
    arrival event has fired. *)
val delivered : t -> bytes:int -> unit

(** [queueing_delay t ~now] is the time a packet arriving now would
    wait before starting serialization. *)
val queueing_delay : t -> now:Dessim.Time_ns.t -> Dessim.Time_ns.t

(** [reset t] clears all dynamic state (queue, counters, fault state)
    so the link can serve a fresh simulation run. *)
val reset : t -> unit

(** [loss_step t rng] advances the link's loss channel by one packet
    and reports whether that packet is lost. Draws nothing from [rng]
    when the model is [No_loss], so fault-free runs are byte-identical
    with or without the fault layer. *)
val loss_step : t -> Dessim.Rng.t -> bool

(** [take_corrupt t] consumes one pending one-shot corruption, if any. *)
val take_corrupt : t -> bool
