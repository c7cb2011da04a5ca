(** Cache-geometry frontier: how do alternative cache organizations —
    d-left hashing, set-associative LRU, a TinyLFU admission front end
    — trade hit rate against {e actual} SRAM bits as workload locality
    varies?

    A per-ToR destination reference stream is derived from the
    Jain-style tunable-locality trace ({!Workloads.Locality_gen}; each
    flow contributes one reference per data packet at its sender's
    ToR) and replayed through each geometry at each cache size. Every
    point is costed through the {!P4model.Resources} per-stage bit
    decomposition, so the frontier's x-axis is tags + values +
    replacement/sketch metadata in bits, not slot counts. *)

type point = {
  geometry : string;
      (** "direct", "dleft2", "dleft4", "2way-lru", "4way-lru",
          "direct+tinylfu", "dleft4+tinylfu" *)
  locality : float;  (** the generator knob, in [0,1] *)
  cache_pct : int;  (** cache size as % of the VIP space *)
  slots : int;
      (** per-ToR lines actually used (rounded down to a multiple of
          the way count) *)
  sram_bits : int;  (** {!P4model.Resources.geometry_bits} at [slots] *)
  refs : int;
  hits : int;
  hit_rate : float;
}

type t = {
  geometries : string list;
  localities : float list;
  cache_pcts : int list;
  points : point list;
      (** organizations that do not fit a per-ToR budget (e.g. 4 ways
          in 2 lines) are omitted *)
}

val default_geometries : string list
val default_localities : float list
val default_cache_pcts : int list

val run :
  ?scale:Netsim.Scenario.scale ->
  ?geometries:string list ->
  ?localities:float list ->
  ?cache_pcts:int list ->
  unit ->
  t

val print : t -> unit
