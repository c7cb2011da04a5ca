type env = Pipeline.env = {
  engine : Dessim.Engine.t;
  rng : Dessim.Rng.t;
  topo : Topo.Topology.t;
  mapping : Netcore.Mapping.t;
  base_rtt : Dessim.Time_ns.t;
  fresh_packet_id : unit -> int;
  pooled_packet : unit -> Netcore.Packet.t;
  emit_at_switch : src_switch:int -> Netcore.Packet.t -> unit;
}

(* Packed like [Switchv2p.Verdict]: the action in the low two bits,
   the payload above, so a resolution is a non-negative immediate int
   and a per-send answer never allocates a constructor block. *)
module Resolution = struct
  let pip_bits = 30
  let pip_mask = (1 lsl pip_bits) - 1
  let tag_resolved = 0
  let tag_via_gateway = 1
  let tag_after = 2
  let via_gateway = tag_via_gateway

  let resolved pip =
    let p = Netcore.Addr.Pip.to_int pip in
    if p lsr 60 <> 0 then invalid_arg "Scheme.Resolution.resolved: pip too large";
    p lsl 2

  let after delay pip =
    let p = Netcore.Addr.Pip.to_int pip and d = Dessim.Time_ns.to_ns delay in
    if p > pip_mask then invalid_arg "Scheme.Resolution.after: pip too large";
    if d < 0 || d lsr (60 - pip_bits) <> 0 then
      invalid_arg "Scheme.Resolution.after: delay out of range";
    (((d lsl pip_bits) lor p) lsl 2) lor tag_after

  let tag r = r land 3

  let pip r =
    Netcore.Addr.Pip.of_int
      (if tag r = tag_after then (r lsr 2) land pip_mask else r lsr 2)

  let delay r = Dessim.Time_ns.of_ns (r lsr (2 + pip_bits))
end

type misdelivery_action = Reforward_to_gateway | Follow_me

type t = {
  name : string;
  resolve_at_host :
    env ->
    host:int ->
    flow_id:int ->
    dst_vip:Netcore.Addr.Vip.t ->
    int;
  pipeline : Pipeline.t;
  on_misdelivery : env -> host:int -> Netcore.Packet.t -> misdelivery_action;
  on_mapping_update :
    env ->
    Netcore.Addr.Vip.t ->
    old_pip:Netcore.Addr.Pip.t ->
    new_pip:Netcore.Addr.Pip.t ->
    unit;
  host_tags_misdelivery : bool;
  stats : unit -> (string * float) list;
}

let no_stats () = []
