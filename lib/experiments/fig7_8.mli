(** Figures 7 and 8: processed bytes per pod (network heatmap) and per
    switch inside a gateway pod, plus the §5.3 bandwidth-overhead and
    packet-stretch summary. Hadoop trace, 50% cache. *)

type t = {
  setup : Setup.t;
  results : (string * Runner.result) list;  (** per scheme *)
  gateway_pod : int;  (** the pod detailed in Figure 8 *)
}

(** The whole figure as one {!Netsim.Scenario} spec (five scheme
    alternatives over the Hadoop FT8 workload); {!run} executes it. *)
val scenario :
  ?scale:Netsim.Scenario.scale -> ?cache_pct:int -> unit -> Netsim.Scenario.t

val run : ?scale:Netsim.Scenario.scale -> ?cache_pct:int -> unit -> t

val print : t -> unit
