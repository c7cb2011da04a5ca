(** Appendix A.2: the centralized Controller versus SwitchV2P on
    WebSearch. The Controller gets the full traffic matrix and solves
    the Appendix A.1 allocation every 150 or 300 us; it should win at
    small cache sizes and lose its edge as the cache grows (stale
    placements). *)

type cell = { hit : float; fct_x : float }

type t = {
  cache_pcts : int list;
  series : (string * cell array) list;
}

val run : ?scale:Netsim.Scenario.scale -> ?cache_pcts:int list -> unit -> t
val print : t -> unit
