(** The §2.4 design alternative the paper dismissed: store the {e
    whole} V2P database across the switches as a one-hop DHT (SEATTLE
    style). Every mapping has a {e home switch} — [hash(vip) mod
    #switches] — holding it authoritatively; a sender's ToR redirects
    unresolved packets to the destination's home switch, which rewrites
    and forwards them (triangle routing).

    We build it to reproduce the paper's argument for dismissing it:

    - {b switch failures are critical}: losing a switch loses its
      partition of the database, and traffic must fall back to the
      gateways until the control plane repopulates it ({!fail_switch});
    - {b path stretch}: the detour through the home switch lengthens
      paths that SwitchV2P serves en route;
    - {b hotspots}: popular destinations concentrate load on one home
      switch. *)

(** [make topo] builds the scheme; partitions materialize lazily from
    the ground-truth store on first use and follow mapping updates
    instantly (the alternative's update path is not the paper's
    concern). *)
val make : Topo.Topology.t -> Netsim.Scheme.t

(** [make_with_control topo] also returns a control handle. *)
type control

val make_with_control : Topo.Topology.t -> Netsim.Scheme.t * control

(** [fail_switch c ~switch] drops the switch's partition; packets
    homed there fall back to the gateways until {!repopulate}. The
    scheme's pipeline calls it on a {!Dessim.Fault.Switch_fail}. *)
val fail_switch : control -> switch:int -> unit

(** [repopulate c ~switch] — the control plane reinstalls the lost
    partition (idempotent). *)
val repopulate : control -> switch:int -> unit

(** [home_of c vip] — the home switch node id (tests). *)
val home_of : control -> Netcore.Addr.Vip.t -> int

(** [fallbacks c] counts packets sent to the gateways because their
    home switch had lost its partition. *)
val fallbacks : control -> int
