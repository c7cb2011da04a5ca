(** Geometry dispatcher for the per-switch V2P caches.

    The dataplane holds [Geo_cache.t] values and selects the concrete
    organization from {!Config.geometry} / [Config.tinylfu] at build
    time; every operation is a single branch-only variant match, so
    geometry selection costs no allocation on the per-hop path (the
    0.0 words/dispatch CI gate covers it).

    All arms share {!Cache}'s int-packed conventions: {!lookup}
    returns {!Cache.miss} or the packed [(pip lsl 1) lor was_set]
    form (decode with {!Cache.hit_pip} / {!Cache.hit_bit}), and
    {!insert} returns {!Cache.insert}'s int code: {!Cache.ins_rejected},
    {!Cache.ins_updated}, {!Cache.ins_fresh}, or the evicted VIP with
    its PIP in {!evicted_pip}. *)

type t = Direct of Cache.t | Dleft of Dleft.t | Lfu of Tinylfu.t

(** [create geometry ~tinylfu ~slots] — the concrete cache for one
    tenant partition. d-left shares are rounded down to a multiple of
    [d]; [tinylfu] wraps the result in a {!Tinylfu} front end with
    default sketch sizing. *)
val create : Config.geometry -> tinylfu:bool -> slots:int -> t

val lookup : t -> Netcore.Addr.Vip.t -> int

val insert :
  t -> admission:Cache.admission -> Netcore.Addr.Vip.t -> Netcore.Addr.Pip.t -> int

(** [evicted_pip t] is the PIP of the occupant evicted by the most
    recent {!insert} that returned a VIP. *)
val evicted_pip : t -> Netcore.Addr.Pip.t

val invalidate : t -> Netcore.Addr.Vip.t -> stale:Netcore.Addr.Pip.t -> bool
val peek : t -> Netcore.Addr.Vip.t -> Netcore.Addr.Pip.t option
val clear : t -> unit
val slots : t -> int
val occupancy : t -> int
val hits : t -> int
val misses : t -> int
val insertions : t -> int
val evictions : t -> int
val rejections : t -> int

(** [direct_exn t] is the underlying direct-mapped {!Cache} — the
    compatibility accessor behind [Dataplane.cache] for the default
    geometry. Raises [Invalid_argument] for d-left or assoc-backed
    caches. *)
val direct_exn : t -> Cache.t
