(** Pluggable V2P translation schemes.

    The network engine is scheme-agnostic: every baseline from §5 of
    the paper (and SwitchV2P itself) is a value of type {!t} — host
    hooks plus a staged per-switch {!Pipeline.t} run for every packet
    a switch receives. *)

(** Capabilities handed to scheme callbacks (an alias of
    {!Pipeline.env}: host hooks and pipeline stages see the same
    record, built once per {!Network.create}). *)
type env = Pipeline.env = {
  engine : Dessim.Engine.t;
  rng : Dessim.Rng.t;
  topo : Topo.Topology.t;
  mapping : Netcore.Mapping.t;  (** gateway ground truth *)
  base_rtt : Dessim.Time_ns.t;
  fresh_packet_id : unit -> int;
  pooled_packet : unit -> Netcore.Packet.t;
      (** a packet for a scheme-generated control message, to be
          filled by {!Netcore.Packet.reset_control}: the network
          recycles it from its packet pool, so emitting control
          packets allocates nothing *)
  emit_at_switch : src_switch:int -> Netcore.Packet.t -> unit;
      (** inject a scheme-generated packet into the fabric at a switch *)
}

(** How the sending hypervisor addresses the outer header: an
    int-coded answer, packed like {!Switchv2p.Verdict}, so that host
    resolution allocates nothing per send.

    {v
      resolved pip     = pip lsl 2                     pip < 2^60
      via_gateway      = 1
      after d pip      = ((d lsl 30) lor pip) lsl 2 lor 2
                                                  pip < 2^30, 0 <= d < 2^30
    v} *)
module Resolution : sig
  val resolved : Netcore.Addr.Pip.t -> int
  (** the host knows the mapping; send directly. Raises
      [Invalid_argument] if the PIP does not fit. *)

  val via_gateway : int
  (** tunnel to the flow's translation gateway *)

  val after : Dessim.Time_ns.t -> Netcore.Addr.Pip.t -> int
  (** [after d pip]: resolve after a fixed penalty [d] (OnDemand's miss
      cost), then send directly to [pip]. Raises [Invalid_argument]
      when [d] or [pip] is out of range. *)

  (** Decoding. [tag r] is one of the [tag_*] constants; [pip] is
      meaningful for [tag_resolved] and [tag_after], [delay] only for
      [tag_after]. *)

  val tag : int -> int
  val tag_resolved : int
  val tag_via_gateway : int
  val tag_after : int
  val pip : int -> Netcore.Addr.Pip.t
  val delay : int -> Dessim.Time_ns.t
end

(** Hypervisor reaction to receiving a packet for a VM it no longer
    hosts. *)
type misdelivery_action =
  | Reforward_to_gateway
      (** re-tunnel toward the gateway, keeping the original outer
          source so ToRs can tag the packet (SwitchV2P, §3.3) *)
  | Follow_me
      (** forward straight to the VM's new location using the
          follow-me rule installed before migration (Andromeda) *)

type t = {
  name : string;
  resolve_at_host :
    env ->
    host:int ->
    flow_id:int ->
    dst_vip:Netcore.Addr.Vip.t ->
    int;
      (** called once per packet send at the source hypervisor (data
          and ACK directions alike; [flow_id] keeps the gateway choice
          stable per flow); the answer is {!Resolution}-coded *)
  pipeline : Pipeline.t;
      (** the per-switch program, run for every packet arriving at a
          switch; stages may mutate the packet (resolution, tags,
          riders) and return int-coded {!Switchv2p.Verdict}s *)
  on_misdelivery : env -> host:int -> Netcore.Packet.t -> misdelivery_action;
  on_mapping_update :
    env ->
    Netcore.Addr.Vip.t ->
    old_pip:Netcore.Addr.Pip.t ->
    new_pip:Netcore.Addr.Pip.t ->
    unit;
      (** control-plane hook fired when a mapping changes (migration);
          e.g. Direct refreshes host tables instantly, OnDemand leaves
          them stale *)
  host_tags_misdelivery : bool;
      (** if set, the engine stamps the misdelivery tag when the old
          host re-forwards a packet (hypervisor tagging); SwitchV2P
          leaves this to its ToRs *)
  stats : unit -> (string * float) list;
      (** scheme-specific counters for reports *)
}

(** [no_stats] is an empty stats thunk for simple schemes. *)
val no_stats : unit -> (string * float) list
