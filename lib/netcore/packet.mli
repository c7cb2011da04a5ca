(** Tunneled packets.

    Packets carry an inner (virtual) header and an outer (physical,
    IP-in-IP) header. Until a packet is {e resolved}, its outer
    destination is a translation gateway; a cache hit in the network
    rewrites the outer destination to the true physical address and
    marks the packet resolved.

    The tunnel option fields model the Geneve option space the paper
    uses for protocol metadata: spilled cache entries, promotions,
    the misdelivery tag, and the identifier of the switch that served
    a cache hit (used to target invalidations). *)

type kind =
  | Data  (** tenant payload *)
  | Ack  (** transport acknowledgment *)
  | Learning  (** gateway-ToR-generated learning packet (§3.2.2) *)
  | Invalidation  (** ToR-generated invalidation packet (§3.3) *)

type t = {
  mutable id : int;  (** unique per simulation *)
  mutable flow_id : int;
  mutable seq : int;  (** data/ack sequence number within the flow *)
  mutable src_vip : Addr.Vip.t;
  mutable dst_vip : Addr.Vip.t;
  mutable src_pip : Addr.Pip.t;
  mutable dst_pip : Addr.Pip.t;
  mutable flags : int;
      (** the kind, the size in bytes, the five flags and the hop count
          below, packed into one word so a pooled packet stays small;
          read and write them with the accessors after this type, not
          through this field *)
  mutable misdelivery : int;
      (** misdelivery tag (§3.3); carries the stale physical address
          (as a raw PIP int) the packet was wrongly delivered to, so
          switches can tell their cached entry is the stale one.
          [-1] = untagged — an int field rather than a [Pip.t option]
          so setting and clearing the tag on the per-hop path never
          allocates *)
  mutable hit_switch : int;  (** node id of the switch that served the hit; -1 if none *)
  mutable spill : int;
      (** spilled entry riding along, as one {!Addr.Pair} word;
          {!Addr.Pair.none} = no rider. Riders are unboxed ints, like
          [misdelivery], so attaching or absorbing one on the per-hop
          path never allocates (and a store into a pooled, long-lived
          packet runs no write barrier). Read and write the three
          riders with the {{!riders} accessors} below. *)
  mutable promo : int;  (** promotion riding along, the same way *)
  mutable mapping : int;
      (** payload of [Learning]/[Invalidation] packets, the same way *)
  mutable sent_at : Dessim.Time_ns.t;
  mutable pool_slot : int;
      (** index in the owning simulator's packet pool; -1 if the packet
          is not pool-managed. Maintained by the pool, not by
          {!reset}. *)
}
(** Fifteen fields: with its header a packet is 16 words, OCaml's
    16-word major-heap size class, so a pooled packet carries no
    slack. *)

val kind : t -> kind

val size : t -> int
(** bytes on the wire, below 2{^24}; {!reset} and the [make_*]
    functions raise [Invalid_argument] outside that range *)

(** {2 Flags}

    Accessors for the bits of [flags]. All are cleared by {!reset}. *)

val resolved : t -> bool
(** the outer destination is the true physical address *)

val gw_pinned : t -> bool
(** set when a tagged packet is misdelivered a second time (the VIP
    moved more than once and some switch "trusted" a cached value that
    was itself stale): a pinned packet may no longer be translated from
    any cache, only by the gateway, which breaks ping-pong loops between
    two stale entries *)

val ecn : t -> bool
(** congestion-experienced mark (set by links past their ECN
    threshold); on ACKs this is the echo bit the DCTCP sender reads *)

val gw_visited : t -> bool
val retransmit : t -> bool

val hops : t -> int
(** switches traversed so far (packet stretch) *)

val set_resolved : t -> bool -> unit
val set_gw_pinned : t -> bool -> unit
val set_ecn : t -> bool -> unit
val set_gw_visited : t -> bool -> unit
val set_retransmit : t -> bool -> unit
val set_hops : t -> int -> unit

(** {2:riders Riders}

    The spill, promotion and mapping riders each hold one (VIP, PIP)
    fact as an {!Addr.Pair} word. The readers return the raw VIP or
    PIP int, [-1] when the rider is absent. The setters raise
    [Invalid_argument] outside the {!Addr.Pair} ranges ([vip < 2{^32}],
    [pip < 2{^29}]). *)

val spill_vip : t -> int
val spill_pip : t -> int
val set_spill : t -> Addr.Vip.t -> Addr.Pip.t -> unit
val clear_spill : t -> unit
val promo_vip : t -> int
val promo_pip : t -> int
val set_promo : t -> Addr.Vip.t -> Addr.Pip.t -> unit
val clear_promo : t -> unit
val mapping_vip : t -> int
val mapping_pip : t -> int
val set_mapping : t -> Addr.Vip.t -> Addr.Pip.t -> unit
val clear_mapping : t -> unit

(** [make_data ~id ~flow_id ~seq ~size ~src_vip ~dst_vip ~src_pip
    ~dst_pip ~now] is a fresh unresolved data packet addressed (outer)
    to [dst_pip] — normally a gateway. *)
val make_data :
  id:int ->
  flow_id:int ->
  seq:int ->
  size:int ->
  src_vip:Addr.Vip.t ->
  dst_vip:Addr.Vip.t ->
  src_pip:Addr.Pip.t ->
  dst_pip:Addr.Pip.t ->
  now:Dessim.Time_ns.t ->
  t

(** [make_ack ~id ~flow_id ~seq ~src_vip ~dst_vip ~src_pip ~dst_pip
    ~now] is an unresolved transport ACK (ACKs are tunneled and
    translated like any other packet). *)
val make_ack :
  id:int ->
  flow_id:int ->
  seq:int ->
  src_vip:Addr.Vip.t ->
  dst_vip:Addr.Vip.t ->
  src_pip:Addr.Pip.t ->
  dst_pip:Addr.Pip.t ->
  now:Dessim.Time_ns.t ->
  t

(** [blank ()] is a packet to be filled by {!reset} or
    {!reset_control}: the form in which a packet pool creates one. Its
    fields are those of {!make_data} with [id] and [flow_id] [-1], size,
    sequence number, VIPs and time 0, and both PIPs {!Addr.Pip.none}.

    A pooled packet lives for the whole run, so [blank] allocates it
    directly in the major heap (a C copy of a fixed template): it costs
    no minor-heap words, and no minor collection copies it there. Build
    short-lived packets with the [make_*] functions instead. *)
val blank : unit -> t

(** [make_control ~id ~kind ~mapping ~src_pip ~dst_pip ~now] is a
    switch-to-switch control packet ([Learning] or [Invalidation])
    carrying [mapping], addressed to the target switch's PIP.
    Raises [Invalid_argument] if [kind] is [Data] or [Ack]. *)
val make_control :
  id:int ->
  kind:kind ->
  mapping:Addr.Vip.t * Addr.Pip.t ->
  src_pip:Addr.Pip.t ->
  dst_pip:Addr.Pip.t ->
  now:Dessim.Time_ns.t ->
  t

(** [reset t ~id ...] re-initializes a recycled packet in place to the
    state [make_data]/[make_ack] would produce for the same arguments
    (unresolved, no tags, zero hops). [pool_slot] is untouched — it
    belongs to the pool, not the flight. *)
val reset :
  t ->
  id:int ->
  flow_id:int ->
  kind:kind ->
  size:int ->
  seq:int ->
  src_vip:Addr.Vip.t ->
  dst_vip:Addr.Vip.t ->
  src_pip:Addr.Pip.t ->
  dst_pip:Addr.Pip.t ->
  now:Dessim.Time_ns.t ->
  unit

(** [reset_control t ~id ~kind ~mapping_vip ~mapping_pip ~src_pip
    ~dst_pip ~now] re-initializes a recycled packet in place to the
    state {!make_control} would produce, without building the mapping
    pair. [pool_slot] is untouched. Raises [Invalid_argument] if
    [kind] is [Data] or [Ack]. *)
val reset_control :
  t ->
  id:int ->
  kind:kind ->
  mapping_vip:Addr.Vip.t ->
  mapping_pip:Addr.Pip.t ->
  src_pip:Addr.Pip.t ->
  dst_pip:Addr.Pip.t ->
  now:Dessim.Time_ns.t ->
  unit

(** Wire sizes (bytes), matching the simulator's MTU conventions. *)
val mtu : int

val ack_size : int
val control_size : int

val is_data : t -> bool
val pp : Format.formatter -> t -> unit
