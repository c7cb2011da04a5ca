(** The §2.4 design-space comparison: SwitchV2P's opportunistic caching
    versus storing the whole V2P database in the switches as a one-hop
    DHT ({!Schemes.Dht_store}). Reproduces the paper's reasons for
    dismissing the DHT: triangle-routing stretch, and criticality of
    switch failures (a failed partition sends traffic back to the
    gateways, while SwitchV2P merely re-learns). *)

type row = {
  scheme : string;
  fct_x : float;  (** improvement over NoCache *)
  stretch : float;
  gw_packets : int;
  extra : (string * float) list;
}

type t = { healthy : row list; under_failure : row list }

val run : ?scale:Netsim.Scenario.scale -> ?cache_pct:int -> unit -> t
val print : t -> unit
