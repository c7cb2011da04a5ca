(** Table 5: where in the topology SwitchV2P cache hits happen, for
    every trace, at 50% cache — split into all packets and first
    packets of flows. Percentages are of in-network hits (core + spine
    + ToR = 100%), as in the paper. *)

type dist = { core : float; spine : float; tor : float }

type row = { trace : string; total : dist; first : dist }

type t = { rows : row list }

val run : ?scale:Netsim.Scenario.scale -> ?cache_pct:int -> unit -> t
val print : t -> unit

(** [dist_of ~core ~spine ~tor] normalizes raw hit counts; all zeros
    yield zeros. *)
val dist_of : core:int -> spine:int -> tor:int -> dist
