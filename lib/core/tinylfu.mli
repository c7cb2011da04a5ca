(** TinyLFU-style frequency admission (Einziger et al., "TinyLFU: A
    Highly Efficient Cache Admission Policy"): the sketch and its
    admit/deny decision, run by {!Geo_cache}'s [Lfu] arm over its
    access-bit table.

    A 4-bit count-min sketch ({!P4model.Resources.sketch_of_slots}
    rows of saturating counters, two per byte) estimates each key's
    access frequency; after every [max 64 (10 * slots)] touches all
    counters halve, aging out stale history. An insert that would
    evict a resident entry is admitted only when the candidate's
    estimate strictly exceeds the victim's; updates and empty-line
    fills always pass. *)

type t

(** [create ~slots] — the sketch for a [slots]-line cache. Raises
    [Invalid_argument] on negative [slots]. *)
val create : slots:int -> t

(** [touch t vip] counts one access to [vip]. *)
val touch : t -> Netcore.Addr.Vip.t -> unit

(** [admit t vip ~victim] decides an insert of [vip], already
    touched: [victim] is the key it would evict, or [-1] when it
    evicts nothing (an update or an empty-line fill, which always
    pass). A denial is counted in {!denied}. *)
val admit : t -> Netcore.Addr.Vip.t -> victim:int -> bool

(** [clear t] zeroes every counter and restarts the sample period:
    the sketch is data-plane register state, lost on a reboot. *)
val clear : t -> unit

(** [estimate_vip t vip] — the sketch's current frequency estimate
    in [0, 15] (count-min: an upper bound biased by collisions). *)
val estimate_vip : t -> Netcore.Addr.Vip.t -> int

(** [denied t] counts inserts the filter turned away. *)
val denied : t -> int

(** [halvings t] counts sample-period counter halvings. *)
val halvings : t -> int
