(** TinyLFU-style frequency-admission front end (Einziger et al.,
    "TinyLFU: A Highly Efficient Cache Admission Policy"), composable
    over any of the repo's cache geometries.

    A 4-bit count-min sketch ([rows] register arrays of [width]
    saturating counters, two per byte) estimates each key's access
    frequency; after every [sample] touches all counters halve,
    aging out stale history. An insert that would evict a resident
    entry is admitted only when the candidate's estimate strictly
    exceeds the victim's; updates and empty-line fills always pass.

    With [always_admit = true] the sketch still counts but never
    vetoes: every operation delegates to the backing unchanged, so the
    wrapper is byte-for-byte its backing on hit/miss/eviction
    sequences and counters — the degenerate equivalence the QCheck
    suite pins. *)

(** The wrapped geometry. [Table] (the access-bit table at any way
    count) carries the full protocol semantics (packed access-bit
    lookups, admission policies, invalidation); [Assoc] is for the
    cache-geometry study only — its
    lookups return {!Assoc_cache.lookup}'s unshifted packing,
    [invalidate] is a no-op, and insert/eviction/rejection counters
    read 0. *)
type backing = Table of Cache.t | Assoc of Assoc_cache.t

type t

(** [create backing] — [rows] defaults to 4; [width] to the next power
    of two >= max 16 (4 * slots); [sample] to max 64 (10 * slots).
    Raises [Invalid_argument] on non-positive values. *)
val create :
  ?rows:int -> ?width:int -> ?sample:int -> ?always_admit:bool -> backing -> t

val rows : t -> int
val width : t -> int
val sample_period : t -> int
val always_admit : t -> bool

(** [lookup t vip] counts the access in the sketch, then delegates.
    The packed result follows the backing's convention. *)
val lookup : t -> Netcore.Addr.Vip.t -> int

val peek : t -> Netcore.Addr.Vip.t -> Netcore.Addr.Pip.t option

(** [insert t ~admission vip pip] — counts the candidate, probes the
    backing's would-be victim, and delegates unless the filter vetoes
    (victim exists, not [always_admit], candidate estimate <= victim
    estimate), in which case it returns {!Cache.ins_rejected} without
    touching the backing. [admission] is passed through to the
    backing; the result is {!Cache.insert}'s int code. An [Assoc]
    backing never reports an evicted VIP. *)
val insert :
  t -> admission:Cache.admission -> Netcore.Addr.Vip.t -> Netcore.Addr.Pip.t -> int

(** [evicted_pip t] is the backing's [evicted_pip]. *)
val evicted_pip : t -> Netcore.Addr.Pip.t

val victim_key : t -> Netcore.Addr.Vip.t -> int
val invalidate : t -> Netcore.Addr.Vip.t -> stale:Netcore.Addr.Pip.t -> bool

(** [clear t] wipes the backing (where supported) {e and} the sketch —
    both are data-plane register state lost on a reboot. *)
val clear : t -> unit

(** [estimate_vip t vip] — the sketch's current frequency estimate
    in [0, 15] (count-min: an upper bound biased by collisions). *)
val estimate_vip : t -> Netcore.Addr.Vip.t -> int

val slots : t -> int
val occupancy : t -> int
val hits : t -> int
val misses : t -> int
val insertions : t -> int
val evictions : t -> int

(** [rejections t] = sketch denials + the backing's own policy
    rejections. *)
val rejections : t -> int

(** [admitted t] / [denied t] split insert attempts at the filter. *)
val admitted : t -> int

val denied : t -> int

(** [halvings t] counts sample-period counter halvings. *)
val halvings : t -> int
