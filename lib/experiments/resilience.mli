(** Switch-failure resilience (the §2 claim: SwitchV2P's caching is
    opportunistic, so losing a switch's cache state never affects
    forwarding correctness — it only costs hit rate until the traffic
    re-teaches the fabric).

    A steady Hadoop workload runs while a declarative
    {!Dessim.Fault.plan} of [Switch_fail] actions wipes every spine
    and core cache mid-trace; we report hit rates before/after the
    failure, the time the fabric needs to re-teach itself, and verify
    every flow still completes. *)

type t = {
  flows_started : int;
  flows_completed : int;
  hit_before : float;  (** hit rate of the first (pre-failure) run *)
  hit_with_failure : float;  (** whole-run hit rate with the mid-trace wipe *)
  recovered_occupancy : int;
      (** cache entries relearned by the end of the disturbed run *)
  recovery_time_s : float option;
      (** time from the wipe to the first probe window whose hit rate
          is back within 0.05 of the undisturbed run's; [None] if that
          never happens before the horizon *)
}

(** The undisturbed reference as a {!Netsim.Scenario} spec. *)
val reference_scenario :
  ?scale:Netsim.Scenario.scale -> ?cache_pct:int -> unit -> Netsim.Scenario.t

(** The disturbed variant: same spec plus a literal fault plan wiping
    every spine and core cache at mid-trace, committed as data so a
    scenario file replays the exact same wipe. *)
val disturbed_scenario :
  ?scale:Netsim.Scenario.scale -> ?cache_pct:int -> unit -> Netsim.Scenario.t

val run : ?scale:Netsim.Scenario.scale -> ?cache_pct:int -> unit -> t
val print : t -> unit
