(** Scenarios as data: one simulation run — topology preset x workload
    x fault plan x scheme(s) x engine config — as a declarative,
    committable spec with a lossless line-oriented textual form.

    Design goals, in order:

    - {b Replayable}: [of_string (to_string t) = Ok t], bit-exact.
      Floats print as [%h] (the {!Dessim.Fault} convention), times in
      integer nanoseconds, and the canonical printer emits every field
      explicitly, so a committed [.scn] file replays byte-identically
      forever even if defaults drift.
    - {b Diagnosable}: parsing and validation report {!error}s carrying
      the offending line number and, where possible, the field name.
    - {b Complete}: every experiment in [lib/experiments] (paper
      figures, ablations, multitenant, resilience) is expressible as a
      spec; sweeps are lists of specs.

    The spec is pure data. Everything it can realize without the
    scheme library lives here: topology parameters ({!params_of}),
    flows ({!flows}), the horizon ({!horizon}), the fault plan with
    container-churn episodes compiled in ({!fault_plan}), and the
    network config ({!net_config}). Scheme construction and the run
    entry points live in [Experiments.Scenario], one library up.

    {2 Textual form}

    Line-oriented; blank lines and [#] comment lines are ignored; one
    directive per line:

    {v
scenario NAME
topo preset family=ft8 scale=small seed=42
engine seed=42 shards=1 horizon=auto
net gateways=all classify=none
workload trace=hadoop rate=0x1p+3 load=0x1.3333333333333p-2 ...
churn kind=migration_storm rate=0x1.f4p+9 start_ns=0 duration_ns=10000000 batch=8
faults plan seed=7
fault @2000000:switchfail=12
scheme switchv2p slots=pct:50 ... label=SwitchV2P
    v}

    [scenario] and [topo] are required, as is at least one [scheme].
    A [scheme]'s [label=] field consumes the rest of its line (labels
    may contain spaces), so the canonical printer emits it last. *)

type scale = [ `Tiny | `Small | `Paper ]
type family = [ `FT8 | `FT16 ]

type topo_arm = Preset of { family : family; scale : scale } | Custom of Topo.Params.t

type topo_spec = {
  arm : topo_arm;
  topo_seed : int;  (** seeds workload generation *)
}

(** [Locality] is the Jain-style tunable-locality stream
    ({!Workloads.Locality_gen}): Hadoop-shaped flows whose destination
    reuse follows an LRU-stack model steered by a single knob carried
    in the stream's [zipf_alpha] field (default 0.5; validated to
    [0,1]). *)
type trace = Hadoop | Websearch | Alibaba | Microbursts | Video | Locality

(** Which VIPs a stream runs over. [Parity p] generates over half the
    VIP space and remaps VIP [v] to [2v + p] — the multitenant
    colocated-tenant pattern. *)
type vips = All | Parity of int

type stream = {
  trace : trace;
  rate : float;
      (** flows (alibaba: rpcs, video: senders) per VM of the
          stream's VIP set *)
  load : float;
  zipf_alpha : float option;
      (** alibaba / microbursts skew override; locality knob for the
          [Locality] trace *)
  window : Dessim.Time_ns.t;
      (** microbursts arrival window / video duration *)
  vips : vips;
  seed_delta : int;  (** stream RNG seed = topo_seed + seed_delta *)
  id_base : int;  (** flow-id offset, to keep multi-stream ids unique *)
}

(** Cache sizing: percent of the VIP space, or an absolute slot
    count. *)
type slots = Pct of int | Abs of int

type scheme_kind =
  | Nocache
  | Direct
  | Ondemand
  | Hoverboard
  | Dht
  | Locallearning of slots
  | Gwcache of slots
  | Bluebird of slots
  | Controller of { slots : slots; interval : Dessim.Time_ns.t }
  | Switchv2p of {
      slots : slots;
      config : Switchv2p.Config.t;
      shares : float array option;
          (** per-class cache partition weights; needs
              [classify = Vip_parity] *)
    }

type scheme_spec = { label : string option; kind : scheme_kind }

type faults_arm =
  | No_faults
  | Random of int  (** {!Faultplan.generate} with this seed *)
  | Literal of Dessim.Fault.plan

type shards_arm = Shards of int
type horizon_arm = Horizon_auto | Horizon of Dessim.Time_ns.t
type classify_arm = No_classify | Vip_parity

type t = {
  name : string;
  topo : topo_spec;
  streams : stream list;
  churn : Workloads.Container_churn.t option;
  faults : faults_arm;
  schemes : scheme_spec list;
      (** alternatives sharing one topology/workload — a sweep axis,
          not a composition *)
  seed : int;  (** engine/network seed ({!Network.config.seed}) *)
  shards : shards_arm;  (** domains per run; 1 when omitted *)
  horizon : horizon_arm;
  gateways_used : int option;
  classify : classify_arm;
}

(** {2 Constructors} *)

(** [stream trace] with the paper's per-trace defaults: rate 8.0 (hadoop, microbursts), 0.5
    (websearch), 4.0 (alibaba), 64.0 (video senders); load 0.3;
    window 2 ms (microbursts) / 5 ms (video). *)
val stream :
  ?rate:float ->
  ?load:float ->
  ?zipf_alpha:float ->
  ?window:Dessim.Time_ns.t ->
  ?vips:vips ->
  ?seed_delta:int ->
  ?id_base:int ->
  trace ->
  stream

val preset : ?seed:int -> family -> scale -> topo_spec
val custom : ?seed:int -> Topo.Params.t -> topo_spec
val scheme : ?label:string -> scheme_kind -> scheme_spec

val switchv2p :
  ?config:Switchv2p.Config.t -> ?shares:float array -> slots -> scheme_kind

val make :
  name:string ->
  topo:topo_spec ->
  ?streams:stream list ->
  ?churn:Workloads.Container_churn.t ->
  ?faults:faults_arm ->
  ?seed:int ->
  ?shards:shards_arm ->
  ?horizon:horizon_arm ->
  ?gateways_used:int ->
  ?classify:classify_arm ->
  scheme_spec list ->
  t

(** {2 Names} *)

val scale_name : scale -> string
val scale_of_string : string -> scale option
val family_name : family -> string
val family_of_string : string -> family option
val trace_name : trace -> string
val trace_of_string : string -> trace option
val scheme_kind_name : scheme_kind -> string

(** {2 Printing and parsing} *)

(** Canonical textual form: every field explicit, floats as [%h].
    [of_string (to_string t) = Ok t]. *)
val to_string : t -> string

type error = {
  line : int;  (** 1-based; 0 for errors on programmatic specs *)
  field : string option;
  msg : string;
}

val error_to_string : error -> string
val pp_error : Format.formatter -> error -> unit

(** Parse + validate; first error wins. *)
val of_string : string -> (t, error) result

val of_file : string -> (t, error) result

(** Parse + validate, reporting {e all} semantic errors (a parse
    error still short-circuits: nothing to validate). *)
val validate_string : string -> (t, error list) result

val validate_file : string -> (t, error list) result

(** Semantic validation of an in-memory spec (errors as messages,
    no line numbers). Checks: non-empty name and scheme list; params
    validity; stream rates/loads/parities/windows; share vectors vs
    [classify]; shard/horizon/seed ranges; and — building the
    topology, only when a gateway count or a literal fault plan is set
    — gateway counts and fault-plan targets (link endpoints
    adjacent, switch/gateway ids well-kinded), mirroring
    {!Network.install_faults}. *)
val validate : t -> (unit, string list) result

(** [fault_plan_of_string s] parses a one-line [--faults] plan
    ([seed=N;@T:ACTION;...]) with per-segment blame: the {!error}'s
    [field] carries the offending segment. *)
val fault_plan_of_string : string -> (Dessim.Fault.plan, error) result

(** {2 Realization} *)

(** The canonical preset tables. *)
val preset_params : family -> scale -> Topo.Params.t

val topo_params : topo_spec -> Topo.Params.t
val params_of : t -> Topo.Params.t
val num_vms : t -> int

(** Aggregate host bandwidth, the workload generators' [agg_bps]. *)
val agg_bps : t -> float

(** Realize every stream and merge. A single stream keeps generator
    order; multiple streams are stably sorted by start time (the
    multitenant interleave). Deterministic in the spec. *)
val flows : t -> Netcore.Flow.t list

(** The run horizon: explicit, or last flow start / churn end + 40 ms. *)
val horizon : t -> flows:Netcore.Flow.t list -> Dessim.Time_ns.t

(** The fault plan to install, if any: the faults arm realized and the
    churn episode's specs merged in (stable time sort). [until] is the
    run's {!horizon}. [Random] is {!Faultplan.generate} over the
    traffic span, so every fault heals by 6/10 of the last flow start
    (or churn end): an automatic horizon less its 40 ms drain, or an
    explicit horizon whole. *)
val fault_plan :
  t -> Topo.Topology.t -> until:Dessim.Time_ns.t -> Dessim.Fault.plan option

(** {!Network.default_config} with the spec's seed, gateway restriction,
    and classifier applied. *)
val net_config : t -> Network.config

(** Resolve a {!slots} against the VIP-space size. *)
val cache_slots : t -> slots -> int

(** The display label: explicit [label], else the kind name. *)
val scheme_label : t -> scheme_spec -> string
