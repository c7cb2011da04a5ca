(** Multitenancy experiment (§4 "Multitenancy support", implemented as
    the paper sketches it: per-VPC private cache partitions).

    Two tenants are colocated on every server (VIP parity decides the
    VPC): tenant A runs a steady Hadoop-like workload, tenant B floods
    one-off destinations (cache-hostile churn). For direct-mapped
    caches an equal split is statistically close to sharing — the
    interesting operator policy is a weighted partition that caps the
    noisy tenant's footprint (the per-VPC policy knob §4 sketches). *)

type row = {
  config : string;
  tenant_a_hit : float;
  tenant_b_hit : float;
  tenant_a_fct : float;  (** global mean FCT, for context *)
  overall_hit : float;
}

type t = { rows : row list }

(** One partition policy as a {!Netsim.Scenario} spec: two VIP-parity
    tenant streams, [classify = Vip_parity], and a SwitchV2P scheme
    carrying the optional share vector; {!run} executes the shared /
    50-50 / 90-10 policies. *)
val scenario :
  ?scale:Netsim.Scenario.scale ->
  ?cache_pct:int ->
  ?shares:float array ->
  string ->
  Netsim.Scenario.t

val run : ?scale:Netsim.Scenario.scale -> ?cache_pct:int -> unit -> t
val print : t -> unit
