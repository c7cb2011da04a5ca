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

(** [peek t vip] is a side-effect-free lookup: no LRU refresh, no
    counter updates (tests and the TinyLFU front end). *)
val peek : t -> Netcore.Addr.Vip.t -> Netcore.Addr.Pip.t option

(** [victim_key t vip] is the key (as an int) an {!insert} for [vip]
    would evict right now — the set's LRU occupant — or [-1] when the
    insert would be an update or the set has an empty line. *)
val victim_key : t -> Netcore.Addr.Vip.t -> int

(** [insert t vip pip] — installs the mapping, evicting the set's
    least-recently-used line if full. Re-inserting an existing key
    refreshes value and recency. Returns {!Cache.insert}'s int code:
    {!Cache.ins_updated}, {!Cache.ins_fresh}, or the evicted VIP with
    its PIP in {!evicted_pip}; a zero-slot cache returns
    {!Cache.ins_rejected}. *)
val insert : t -> Netcore.Addr.Vip.t -> Netcore.Addr.Pip.t -> int

(** [evicted_pip t] is the PIP of the line evicted by the most recent
    {!insert} that returned a VIP. *)
val evicted_pip : t -> Netcore.Addr.Pip.t

val occupancy : t -> int
val hits : t -> int
val misses : t -> int
