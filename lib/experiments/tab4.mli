(** Table 4: VM migration under an incast UDP load.

    Senders on distinct servers blast one destination VM; mid-trace
    the VM migrates to a different rack. We compare NoCache, OnDemand
    and three SwitchV2P variants (no invalidations / invalidations
    without the timestamp vector / full protocol), reporting the same
    five columns the paper does, normalized by NoCache. *)

type row = {
  variant : string;
  gateway_pkt_share : float;  (** fraction of packets via gateways *)
  latency_x : float;  (** mean packet latency relative to NoCache *)
  last_misdelivery_us : float;  (** arrival of last misdelivered packet *)
  misdelivered_x : float;  (** misdeliveries relative to NoCache *)
  invalidation_packets : int;
}

type t = { rows : row list }

val run : ?scale:Netsim.Scenario.scale -> ?cache_pct:int -> ?senders:int -> unit -> t
val print : t -> unit
