(** Ablation of SwitchV2P's design features (DESIGN.md §4): learning
    packets, spillover, promotion, source learning, and the ToR-only
    memory allocation mentioned in §4 of the paper. Hadoop trace. *)

type row = {
  variant : string;
  hit : float;
  fct_x : float;
  fpl_x : float;
}

type t = { rows : row list }

(** The ablation as one {!Netsim.Scenario} spec: the NoCache baseline
    plus each feature-toggled SwitchV2P config as a labeled scheme
    alternative; {!run} executes it. *)
val scenario : ?scale:Netsim.Scenario.scale -> ?cache_pct:int -> unit -> Netsim.Scenario.t

val run : ?scale:Netsim.Scenario.scale -> ?cache_pct:int -> unit -> t
val print : t -> unit
