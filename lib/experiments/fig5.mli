(** Figures 5a-5d and 6: hit rate, FCT improvement and first-packet
    latency improvement versus cache size, per trace.

    Each point runs the full packet simulation for every scheme; the
    NoCache baseline normalizes the improvement factors, exactly as in
    the paper. *)

type cell = {
  hit : float;  (** fraction of tenant packets that avoid the gateways *)
  fct_x : float;  (** mean-FCT improvement over NoCache *)
  fpl_x : float;  (** first-packet-latency improvement over NoCache *)
}

type t = {
  kind : Netsim.Scenario.trace;
  cache_pcts : int list;
  nocache : Runner.result;
  (* (scheme, per-cache-size cells); cache-independent schemes carry
     the same cell at every size *)
  series : (string * cell array) list;
}

(** [scenario ?scale ?cache_pcts kind] — the whole sweep as one
    declarative {!Netsim.Scenario} spec: the trace's topology and
    workload, with one scheme alternative per (scheme, cache size)
    point in task order. {!run} is exactly this spec executed. *)
val scenario :
  ?scale:Netsim.Scenario.scale ->
  ?cache_pcts:int list ->
  Netsim.Scenario.trace ->
  Netsim.Scenario.t

(** [run ?scale ?cache_pcts kind] executes the paper's sweep for
    [kind]. WebSearch (Figure 5c) adds the (expensive) Controller
    baseline and defaults to 1-200% of the VIP space, as the paper
    does; every other trace defaults to 1-1500%. Alibaba uses the
    FT16 topology. *)
val run :
  ?scale:Netsim.Scenario.scale ->
  ?cache_pcts:int list ->
  Netsim.Scenario.trace ->
  t

(** The trace's printed title ("WebSearch", ...). *)
val trace_name : Netsim.Scenario.trace -> string

(** The paper's five traces, in Table 5 order. *)
val traces : Netsim.Scenario.trace list

(** [preset ?seed scale trace] — the paper's topology for [trace]:
    FT16 for Alibaba, FT8 for every other trace. *)
val preset :
  ?seed:int -> Netsim.Scenario.scale -> Netsim.Scenario.trace ->
  Netsim.Scenario.topo_spec

(** [print t] renders one table per metric (hit rate / FCT x / FPL x). *)
val print : t -> unit
