(** Figure 9: application performance with a shrinking gateway fleet
    (Hadoop, 50% cache). SwitchV2P should hold its FCT and first-packet
    latency with an order of magnitude fewer gateways, while NoCache
    and LocalLearning degrade. *)

type point = {
  gateways : int;
  fct_x : float;  (** improvement over NoCache-with-all-gateways *)
  fpl_x : float;
  drops : int;
}

type t = {
  gateway_counts : int list;
  series : (string * point array) list;
}

(** One gateway-count point of the figure as a {!Netsim.Scenario} spec
    ([gateways] restricts the fleet via the net config); {!run} sweeps
    these specs over the fleet-size axis. *)
val scenario :
  ?scale:Netsim.Scenario.scale ->
  ?cache_pct:int ->
  gateways:int ->
  unit ->
  Netsim.Scenario.t

val run : ?scale:Netsim.Scenario.scale -> ?cache_pct:int -> unit -> t
val print : t -> unit
