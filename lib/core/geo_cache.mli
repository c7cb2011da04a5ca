(** The per-switch V2P cache: the access-bit {!Cache} table, bare or
    behind a {!Tinylfu} frequency-admission filter that this module
    runs over the table.

    The dataplane holds [Geo_cache.t] values and builds them from
    {!Config.t}'s [ways] and [tinylfu] fields; every operation is a
    single branch-only variant match, so the choice costs no
    allocation on the per-hop path (the 0.0 words/dispatch CI gate
    covers it).

    Both arms share {!Cache}'s int-packed conventions: {!lookup}
    returns {!Cache.miss} or the packed [(pip lsl 1) lor was_set]
    form (decode with {!Cache.hit_pip} / {!Cache.hit_bit}), and
    {!insert} returns {!Cache.insert}'s int code: {!Cache.ins_rejected},
    {!Cache.ins_updated}, {!Cache.ins_fresh}, or the evicted VIP with
    its PIP in {!evicted_pip}. *)

(** [Lfu]'s [sketch] is sized for its [table]. Private: {!create} is
    the only constructor, so the two always agree. *)
type t = private
  | Plain of Cache.t
  | Lfu of { sketch : Tinylfu.t; table : Cache.t }

(** [create ~ways ~tinylfu ~slots] — the cache for one tenant
    partition: a [ways]-way table of [slots] lines rounded down to a
    multiple of [ways]; [tinylfu] puts a {!Tinylfu} filter sized for
    those lines in front of it. Raises [Invalid_argument] if
    [ways <= 0]. *)
val create : ways:int -> tinylfu:bool -> slots:int -> t

(** [table t] is the access-bit table under any filter: the cache's
    lines, occupancy and hit/miss/insertion/eviction counters. *)
val table : t -> Cache.t

(** [lookup t vip] — under TinyLFU, counts the access in the sketch
    first. *)
val lookup : t -> Netcore.Addr.Vip.t -> int

(** [insert t ~admission vip pip] — under TinyLFU, counts the
    candidate, then inserts only if {!Tinylfu.admit} passes it against
    {!Cache.victim_key}'s would-be victim; a denial returns
    {!Cache.ins_rejected} and leaves the table untouched. [admission]
    is the table's own policy. *)
val insert :
  t -> admission:Cache.admission -> Netcore.Addr.Vip.t -> Netcore.Addr.Pip.t -> int

(** [evicted_pip t] is the PIP of the occupant evicted by the most
    recent {!insert} that returned a VIP. *)
val evicted_pip : t -> Netcore.Addr.Pip.t

val invalidate : t -> Netcore.Addr.Vip.t -> stale:Netcore.Addr.Pip.t -> bool
val peek : t -> Netcore.Addr.Vip.t -> Netcore.Addr.Pip.t option

(** [clear t] wipes the table and, under TinyLFU, the sketch. *)
val clear : t -> unit

val slots : t -> int
val occupancy : t -> int
val hits : t -> int
val misses : t -> int
val insertions : t -> int
val evictions : t -> int

(** [rejections t] counts inserts turned away by the table's admission
    policy and, under TinyLFU, by the filter. *)
val rejections : t -> int
