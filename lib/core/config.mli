(** SwitchV2P protocol configuration and ablation toggles. *)

(** How the aggregate cache budget is divided among switches (§4,
    "Heterogeneous memory allocation"). *)
type allocation =
  | Uniform  (** equal share per switch — the paper's default *)
  | Tor_only  (** all memory in ToRs (the §4 Hadoop observation) *)
  | Weighted of {
      tor : float;
      spine : float;
      core : float;
      gw_tor : float;
      gw_spine : float;
    }
      (** per-role weights; a switch's share is its role weight
          normalized over all switches. Negative weights are invalid. *)

type t = {
  p_learn : float;
      (** probability of emitting a learning packet per resolved packet
          processed at a gateway ToR; the paper's default is 0.5% *)
  learning_packets : bool;  (** §3.2.2 learning packets *)
  spillover : bool;  (** §3.2.2 cache spillover *)
  promotion : bool;  (** §3.2.2 promotion of popular entries to cores *)
  source_learning : bool;  (** ToR source learning *)
  invalidations : bool;  (** §3.3 invalidation packets *)
  ts_vector : bool;  (** §3.3 timestamp vector rate limiting *)
  allocation : allocation;
  ways : int;
      (** ways of every switch's {!Cache} table: 1 is the paper's
          direct-mapped design, more is a d-left table. Each switch's
          slot share is rounded down to a multiple of [ways]. *)
  tinylfu : bool;
      (** wrap each cache in a {!Tinylfu} frequency-admission front
          end (4-bit count-min sketch, admit-on-higher-estimate) *)
}

(** The paper's default configuration: everything on, P_learn = 0.005,
    uniform allocation. *)
val default : t

(** [make ()] is [default] with optional overrides. [tor_only] is a
    shorthand for [~allocation:Tor_only]. Raises [Invalid_argument] if
    [ways <= 0]. *)
val make :
  ?p_learn:float ->
  ?learning_packets:bool ->
  ?spillover:bool ->
  ?promotion:bool ->
  ?source_learning:bool ->
  ?invalidations:bool ->
  ?ts_vector:bool ->
  ?tor_only:bool ->
  ?allocation:allocation ->
  ?ways:int ->
  ?tinylfu:bool ->
  unit ->
  t
