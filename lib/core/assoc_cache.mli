(** Set-associative LRU cache — the hardware-unfriendly alternative to
    the paper's direct-mapped design (§3.2 cites Hill's "case for
    direct-mapped caches").

    SwitchV2P's data plane deliberately uses {!Cache} (direct-mapped,
    one access bit); this module exists for the cache-geometry study:
    how much hit rate does the single-probe design actually give up
    against 2-way/4-way/fully-associative LRU at equal capacity?
    (Answer, reproduced by the [cachegeo] bench: little — which is the
    justification for choosing hardware simplicity.) *)

type t

(** [create ~ways ~slots] — total capacity [slots], organized as
    [slots/ways] sets of [ways] lines. [ways = slots] is fully
    associative. Raises [Invalid_argument] if [ways <= 0], [slots < 0]
    or [ways] does not divide [slots]. *)
val create : ways:int -> slots:int -> t

val slots : t -> int
val ways : t -> int

val miss : int
(** the (negative) sentinel {!lookup} returns on a miss *)

(** [lookup t vip] — on a hit, refreshes the line's LRU position and
    returns the mapped PIP as a non-negative int (decode with
    {!hit_pip}); {!miss} otherwise. Same sentinel convention as
    {!Cache.lookup} so geometry studies can swap the two. *)
val lookup : t -> Netcore.Addr.Vip.t -> int

val hit_pip : int -> Netcore.Addr.Pip.t

(** [insert t vip pip] — installs the mapping, evicting the set's
    least-recently-used line if full. Re-inserting an existing key
    refreshes value and recency. Returns {!Cache.insert}'s int code:
    {!Cache.ins_updated}, {!Cache.ins_fresh}, or the evicted VIP; a
    zero-slot cache returns {!Cache.ins_rejected}. *)
val insert : t -> Netcore.Addr.Vip.t -> Netcore.Addr.Pip.t -> int

val occupancy : t -> int
val hits : t -> int
val misses : t -> int
