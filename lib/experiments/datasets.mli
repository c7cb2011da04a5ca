(** The §5 "Address reuse characteristics" table: characterize each of
    the five traces the way the paper does, to show the generators
    reproduce the published reuse profiles (Hadoop/Alibaba/Microbursts
    reuse-heavy; WebSearch/Video reuse-free). *)

type row = { trace : string; stats : Workloads.Trace_stats.t }

type t = { rows : row list }

val run : ?scale:Netsim.Scenario.scale -> unit -> t
val print : t -> unit
