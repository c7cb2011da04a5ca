(** Domain-based worker pool for experiment sweeps.

    The paper's evaluation is a large grid of independent simulation
    runs; this module executes a list of named run thunks across
    [Domain.spawn]ed workers and returns the results in submission
    order. With the per-domain topology discipline of {!Setup.pooled},
    the result list is byte-identical for any worker count.

    Worker count: the explicit [?jobs] argument, else
    [Domain.recommended_domain_count ()]. A count of 1 (or a
    single-task list) degrades gracefully to a plain sequential loop on
    the calling domain — no domains are spawned. *)

(** [map ?jobs tasks] runs every [(name, thunk)] task and returns the
    thunk results in submission order. Tasks are claimed from a shared
    atomic cursor, so scheduling is work-conserving; each task's
    wall-clock time is recorded in the process-wide {!counters}. If a
    task raises, the exception is re-raised on the calling domain
    (after all workers drain) with its original backtrace.

    Tasks MUST NOT share mutable state: obtain topologies via
    {!Setup.pooled} and treat everything else a task closes over as
    read-only. *)
val map : ?jobs:int -> (string * (unit -> 'a)) list -> 'a list

(** [map_named ?jobs tasks] is [map] zipped back with the task names. *)
val map_named : ?jobs:int -> (string * (unit -> 'a)) list -> (string * 'a) list

(** Cumulative per-process accounting across [map] calls, for the
    bench harness's sweep report. [busy_seconds] is the sum of
    per-task wall times — [busy_seconds /. elapsed] estimates the
    effective speedup over a sequential run. *)
type counters = { tasks : int; busy_seconds : float; max_jobs : int }

val reset_counters : unit -> unit
val counters : unit -> counters
