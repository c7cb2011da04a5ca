(** The staged per-switch dataplane pipeline.

    The paper's data plane is a fixed match-action program: parse /
    classify, cache lookup, admission + learning, control-packet
    emission. A scheme is a sequence of {!stage}s run in order for
    every packet a switch receives; each stage returns an int-coded
    {!Switchv2p.Verdict} and {!Verdict.next} falls through to the
    following stage. A pipeline whose stages all fall through forwards
    the packet — so the common case (data packet, nothing to say)
    finishes without any final-verdict bookkeeping and without
    allocating.

    Stage order is part of the simulation contract: it fixes the RNG
    draw sequence (learning-packet coin flips) and therefore the
    golden event transcripts. *)

module Verdict = Switchv2p.Verdict

(** Capabilities handed to the stages (what used to be
    [Scheme.env]; {!Scheme.env} re-exports this record). *)
type env = {
  engine : Dessim.Engine.t;
  rng : Dessim.Rng.t;
  topo : Topo.Topology.t;
  mapping : Netcore.Mapping.t;  (** gateway ground truth *)
  base_rtt : Dessim.Time_ns.t;
  fresh_packet_id : unit -> int;
  pooled_packet : unit -> Netcore.Packet.t;
      (** a packet for a scheme-generated control message, to be
          filled by {!Netcore.Packet.reset_control}: the network
          recycles it from its packet pool, so emitting control
          packets allocates nothing *)
  emit_at_switch : src_switch:int -> Netcore.Packet.t -> unit;
      (** inject a scheme-generated packet into the fabric at a switch *)
}

(** Which of the four hardware stages a {!stage} occupies; the
    {!resources} accounting maps each to its share of the Tofino
    budget ({!P4model.Resources.stage_kind}). *)
type kind = Classify | Lookup | Learn | Emit

type stage = {
  name : string;
  kind : kind;
  exec : env -> switch:int -> from:int -> Netcore.Packet.t -> int;
      (** run the stage; returns a {!Verdict} int, {!Verdict.next} to
          fall through *)
  probe : Dessim.Telemetry.t -> now_sec:float -> unit;
      (** sample stage-owned counters into per-tier telemetry series;
          must be a pure observer (no RNG, no simulation state) *)
}

type t

(** [stage ?probe ~kind name exec] is a stage with no telemetry probe
    by default. *)
val stage :
  ?probe:(Dessim.Telemetry.t -> now_sec:float -> unit) ->
  kind:kind ->
  string ->
  (env -> switch:int -> from:int -> Netcore.Packet.t -> int) ->
  stage

(** [make ?attach ?prepare ?reset stages] builds a pipeline. [prepare]
    runs once per {!Network.create} with the network's [env] — the
    place to bind per-run state (SwitchV2P binds its [Dataplane.env]
    there) instead of on the per-hop path; a harness that calls {!run}
    without a network must call {!prepare} first. [attach] hands the
    run's telemetry collector to the scheme (flight recorder).
    [reset ~switch] models a switch failure/reboot: the scheme must
    discard all soft state it holds for [switch] (cached mappings,
    installed table entries); defaults to a no-op for stateless
    schemes. *)
val make :
  ?attach:(Dessim.Telemetry.t -> unit) ->
  ?prepare:(env -> unit) ->
  ?reset:(switch:int -> unit) ->
  stage list ->
  t

(** [passthrough] has no stages: every packet forwards untouched. *)
val passthrough : t

(** [run t env ~switch ~from pkt] executes the stages in order and
    returns the first final verdict, or {!Verdict.forward} when every
    stage falls through. Allocation-free. *)
val run : t -> env -> switch:int -> from:int -> Netcore.Packet.t -> int

val prepare : t -> env -> unit
val attach : t -> Dessim.Telemetry.t -> unit

(** [reset_switch t ~switch] invokes the scheme's switch-failure hook:
    all soft state held for [switch] is wiped (the switch "reboots
    empty"). Used by the fault-injection layer's [Switch_fail]. *)
val reset_switch : t -> switch:int -> unit

(** [probe t tel ~now_sec] runs every stage's telemetry probe. *)
val probe : t -> Dessim.Telemetry.t -> now_sec:float -> unit

(** [stages t] lists (name, kind) in execution order. *)
val stages : t -> (string * kind) list

(** [p4_kind k] is the resource model's name for stage kind [k]. *)
val p4_kind : kind -> P4model.Resources.stage_kind

(** [resources t ~entries_per_switch] is the per-stage Tofino resource
    decomposition: each stage named with its share of the switch
    budget. The shares over a full classify/lookup/learn/emit pipeline
    sum to {!P4model.Resources.estimate} exactly. *)
val resources :
  t -> entries_per_switch:int -> (string * P4model.Resources.usage) list
