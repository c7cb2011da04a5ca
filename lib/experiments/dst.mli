(** Deterministic simulation testing (DST) for failure/churn scenarios.

    [run_one ~seed ~scheme ()] generates a random fault plan from the
    seed ({!Netsim.Faultplan.generate}), runs a fixed small FatTree
    workload of reliable flows under it, and checks four invariants:

    + {b packet conservation} — every injected packet is delivered,
      dropped (by kind/site), consumed at a switch, or still in flight
      at the horizon;
    + {b no stale completion} — after quiescence, a flow's receiver is
      done iff it accepted exactly the flow's packet count of distinct
      sequence numbers (never more);
    + {b liveness} — all faults heal before the horizon, so every flow
      completes;
    + {b bounded occupancy} — no switch cache ever holds more entries
      than its slot budget.

    Everything is derived from the single seed (fault plan, runtime
    fault RNG, flow workload), so a failing seed replays
    byte-identically: [transcript] of two runs with equal (seed,
    scheme) are equal strings, and {!replay_command} prints the CLI
    incantation to reproduce one outside the test suite. *)

type outcome = {
  seed : int;
  scheme : string;
  plan : string;  (** the generated plan, {!Dessim.Fault.to_string} form *)
  transcript : string;  (** deterministic run summary (byte-identical replay) *)
  failures : (string * string) list;
      (** (invariant, detail) for every violated invariant; [] = pass *)
}

(** The schemes the harness knows how to build (and, where the scheme
    caches, how to inspect occupancy):
    ["switchv2p"; "nocache"; "direct"; "locallearning"; "gwcache"]. *)
val all_schemes : string list

(** Subset exercised by [dune runtest] (3 schemes for speed). *)
val default_schemes : string list

(** [run_one ~seed ~scheme ()] runs one DST seed and checks its
    invariants. [shards > 1] executes the same seed as a
    domain-sharded run ({!Netsim.Parnet}) and checks the same
    invariants — conservation
    gains the cross-shard mailbox term, per-flow transport state is
    read from the flow's home shard. Sharded transcripts are
    deterministic for a fixed shard count but differ from single-shard
    transcripts (a different, equally valid, event interleaving). *)
val run_one :
  ?shards:int ->
  seed:int ->
  scheme:string ->
  unit ->
  outcome

(** Churn DST: a {!Workloads.Container_churn} episode (kind, rate and
    batch size derived from the seed) replaces the random fault plan.
    Conservation, stale-delivery and cache-occupancy invariants apply
    unchanged; every scheduled churn batch must fire
    ([churn-accounting]); completion-by-horizon is {e not} required
    (a remap can leave a retransmission tail past the horizon), but
    every flow must start and transport/metrics completion counters
    must agree. *)
val run_churn :
  ?scheme:string -> seed:int -> unit -> outcome

(** [run_seeds ~schemes ~seeds ()] — the cartesian product, in order. *)
val run_seeds :
  ?shards:int ->
  schemes:string list ->
  seeds:int list ->
  unit ->
  outcome list

(** [failed outcomes] — outcomes with at least one violated invariant. *)
val failed : outcome list -> outcome list

(** [replay_command ~seed ~scheme] — a shell command that reruns this
    exact (seed, scheme) run and prints its transcript. *)
val replay_command : seed:int -> scheme:string -> string

(** [pp_failure ppf outcome] — human-readable failure report: seed,
    scheme, violated invariants, and the replay command. *)
val pp_failure : Format.formatter -> outcome -> unit
