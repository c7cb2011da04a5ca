(** A realized topology with the quantities runs read off it, built
    once per domain from a {!Netsim.Scenario.topo_spec}.

    Everything else a run needs — the trace, the horizon, cache slot
    counts — comes from the {!Netsim.Scenario} spec itself. *)

type t = {
  topo : Topo.Topology.t;
  num_vms : int;
  agg_bps : float;  (** aggregate host bandwidth, for load accounting *)
  seed : int;
}

(** {2 Per-domain topology factory}

    Parallel sweeps ({!Parallel.map}) run tasks on several domains, but
    a topology holds per-run mutable link state and must not be shared
    across domains. A {!Netsim.Scenario.topo_spec} is an immutable
    recipe for a setup; tasks carry the spec and call {!pooled} from
    whichever domain executes them, obtaining a domain-local
    realization (built on first use, then reused by later tasks on the
    same domain — the same reuse-after-reset model sequential runs
    always had). *)

(** [pooled topo] is the calling domain's realization of [topo]. *)
val pooled : Netsim.Scenario.topo_spec -> t
