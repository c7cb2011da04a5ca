(** d-left V2P cache: [d] subtables with independent hash functions,
    one access bit per line ("Limited Associativity Caching in the
    Data Plane" — associativity without LRU state, feasible as [d]
    parallel register-array reads).

    Lookup probes one line per way and returns on the first match;
    insert updates an existing key, else fills the first empty way,
    else applies the admission policy to pick a victim. With one line
    per bucket per subtable, d-left's "least-loaded" rule degenerates
    to "first subtable with a free line" (leftmost tie-break).

    Way 0 hashes with {!Cache.mix} unseeded, so a [d = 1] table is
    byte-for-byte the direct-mapped {!Cache} — lookup results, access
    bits, counters and admission outcomes all coincide. The QCheck
    equivalence suite pins this.

    Same int-packed conventions as {!Cache}: {!miss}, {!hit_pip} and
    {!hit_bit} for lookups, {!Cache.ins_rejected} /
    {!Cache.ins_updated} / {!Cache.ins_fresh} or an evicted VIP for
    inserts, so the dataplane can switch geometry without touching its
    branches. *)

type t

(** [create ~d ~slots] — [slots] total lines, split as [d] subtables
    of [slots/d]. Raises [Invalid_argument] if [d <= 0], [slots < 0],
    or [d] does not divide [slots]. [slots = 0] is the same legal
    degenerate cache as {!Cache}: every lookup misses, every insert is
    rejected. *)
val create : d:int -> slots:int -> t

val slots : t -> int

(** [ways t] is [d]. *)
val ways : t -> int

val miss : int

(** [lookup t vip] — probes ways in order; a hit sets the line's
    access bit and returns the same packed [(pip lsl 1) lor was_set]
    encoding as {!Cache.lookup}. Every probed occupant that was not
    the key loses its access bit (the per-way conflict-miss rule). *)
val lookup : t -> Netcore.Addr.Vip.t -> int

val hit_pip : int -> Netcore.Addr.Pip.t
val hit_bit : int -> bool

val peek : t -> Netcore.Addr.Vip.t -> Netcore.Addr.Pip.t option
val access_bit : t -> Netcore.Addr.Vip.t -> bool option

(** [insert t ~admission vip pip] — update, else first empty way, else
    evict per policy: [`A_bit_clear] replaces the first way whose
    access bit is clear (rejecting when all d are set); [`All] prefers
    a clear-bit way and falls back to way 0. Returns {!Cache.insert}'s
    int codes: a negative code, or the evicted VIP (its PIP via
    {!evicted_pip}). *)
val insert :
  t -> admission:Cache.admission -> Netcore.Addr.Vip.t -> Netcore.Addr.Pip.t -> int

(** [evicted_pip t] is the PIP of the occupant evicted by the most
    recent {!insert} that returned a VIP. *)
val evicted_pip : t -> Netcore.Addr.Pip.t

(** [victim_key t vip] — the key an [insert ~admission:`All] would
    evict right now, or [-1] (update, empty way available, or zero
    slots). Side-effect- and allocation-free; see {!Cache.victim_key}. *)
val victim_key : t -> Netcore.Addr.Vip.t -> int

val invalidate : t -> Netcore.Addr.Vip.t -> stale:Netcore.Addr.Pip.t -> bool

(** [clear t] drops every entry, preserving statistics counters. *)
val clear : t -> unit

val occupancy : t -> int
val hits : t -> int
val misses : t -> int
val insertions : t -> int
val evictions : t -> int
val rejections : t -> int
