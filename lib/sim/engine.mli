(** Discrete-event simulation engine.

    Events execute in timestamp order (FIFO among ties, across both
    event forms). The engine is single-threaded and deterministic: its
    binary heap dispatches in exact (timestamp, sequence) order, so a
    run's transcript depends only on what was scheduled.

    Two event forms share one queue:

    - {b Typed events}: a non-negative event [code] plus two integer
      operands [a]/[b], dispatched to the installed {!handler}.
      Scheduling one writes into the engine's unboxed int-array queue
      and allocates nothing — this is the hot path for per-packet
      simulation events.
    - {b Thunks}: [(unit -> unit)] closures, for rare or irregular
      events where packing state into two ints isn't worth it.

    Every per-packet, per-flow and per-message event of the packet
    simulator is typed. The paths in [lib/] that still queue thunks
    are cold, once per run or per interval rather than per flow:
    - the telemetry sampling tick in [Network.run] (telemetry on only);
    - the periodic solve of [Schemes.Controller];
    - the control-plane detour of the Bluebird baseline
      ([Schemes.Baselines.bluebird]), two per detoured packet: the
      miss path of a baseline, not of SwitchV2P;
    - the recovery probe of [Experiments.Resilience], which samples
      a running network.
    {!thunks_scheduled} counts them. *)

type t

(** Dispatch function for typed events. *)
type handler = code:int -> a:int -> b:int -> unit

(** Scheduler backend. There is one: a binary heap of stride-5
    unboxed int records — O(log n) per operation. *)
type sched = Heap

(** [sched_name s] is ["heap"]. *)
val sched_name : sched -> string

(** [create ()] is a fresh engine at time zero. [reserve] pre-sizes
    the event queue (default 4096 events) so steady-state simulations
    skip the initial doubling copies. *)
val create : ?reserve:int -> unit -> t

(** [sched t] is the backend this engine runs on. *)
val sched : t -> sched

(** [now t] is the current simulation time. *)
val now : t -> Time_ns.t

(** [set_handler t h] installs the typed-event dispatcher. Executing a
    typed event without a handler installed raises
    [Invalid_argument]. A handler installed mid-run dispatches the
    next typed event. *)
val set_handler : t -> handler -> unit

(** [schedule t ~at f] queues [f] to run at absolute time [at].
    Scheduling in the past raises [Invalid_argument]. *)
val schedule : t -> at:Time_ns.t -> (unit -> unit) -> unit

(** [schedule_after t ~delay f] queues [f] to run [delay] from now. *)
val schedule_after : t -> delay:Time_ns.t -> (unit -> unit) -> unit

(** [schedule_event t ~at ~code ~a ~b] queues a typed event for the
    installed handler at absolute time [at]. Allocation-free unless
    the queue must grow. Raises [Invalid_argument] if [code < 0] or
    [at] is in the past. *)
val schedule_event : t -> at:Time_ns.t -> code:int -> a:int -> b:int -> unit

(** [schedule_event_after t ~delay ~code ~a ~b] is
    {!schedule_event} at [delay] from now. *)
val schedule_event_after :
  t -> delay:Time_ns.t -> code:int -> a:int -> b:int -> unit

(** [run t] executes events until the queue is empty. *)
val run : t -> unit

(** [run_until t ~limit] executes events with timestamp [<= limit];
    stops (leaving later events queued) once the next event would
    exceed [limit], and advances the clock to [limit]. *)
val run_until : t -> limit:Time_ns.t -> unit

(** [pending t] is the number of queued events. *)
val pending : t -> int

(** [executed t] is the total number of events executed so far. *)
val executed : t -> int

(** [thunks_scheduled t] is the number of closures queued by
    {!schedule}/{!schedule_after} so far (typed events excluded). *)
val thunks_scheduled : t -> int

(** [next_at t] is the timestamp of the earliest pending event, or
    [max_int] when the queue is empty. Read-only (never advances the
    clock); used by the domain-sharded runtime
    ({!Shard.run}) to agree on the next conservative window. *)
val next_at : t -> Time_ns.t
