(** V2P cache with per-line access bits (§3.2): a set-indexed table of
    [ways] subtables, one hash per subtable.

    Each line is one int, as each line of the paper's P4 cache is one
    register entry (a 32-bit VIP tag, the server index and the access
    bit): the {!Netcore.Addr.Pair} of (VIP, PIP) plus the access bit,
    so a probe reads one word. A VIP may occupy one line per way, chosen by a fixed hash of the key
    — no LRU, no chaining. One way is the paper's direct-mapped cache,
    where an insertion can only evict the current occupant of one
    line; more ways is a d-left table ("Limited Associativity Caching
    in the Data Plane": associativity without LRU state, feasible as
    [ways] parallel register-array reads).

    Access-bit semantics (paper §3.2, "Cache structure"):
    - a lookup that hits sets the line's access bit;
    - a lookup that probes a line holding a different key (a conflict
      miss) {e clears} that line's access bit, marking the entry as
      not-recently-useful so conservative admission can replace it.
      Lookups probe ways in order and stop at the first match, so
      every way probed before it has its occupant's bit cleared.

    Inserts update an existing key, else fill the first empty way,
    else evict per the admission policy. With one line per bucket per
    subtable, d-left's "least loaded" rule degenerates to "first
    subtable with a free line" (leftmost tie-break). *)

type t

(** Admission policies from Table 1, applied when every way's line
    is occupied. [`All] always admits, evicting the first way whose
    access bit is clear, else way 0's occupant; [`A_bit_clear] admits
    only into a way whose access bit is clear (an empty line always
    admits). *)
type admission = [ `All | `A_bit_clear ]

(** [create ~ways ~slots] is an empty cache of [slots] lines split as
    [ways] subtables of [slots / ways]; [~ways:1] is the paper's
    direct-mapped cache. [slots = 0] is a legal degenerate cache on
    which every lookup misses and every insert is rejected. Raises
    [Invalid_argument] if [ways <= 0], [slots < 0], or [ways] does not
    divide [slots]. *)
val create : ways:int -> slots:int -> t

val slots : t -> int
val ways : t -> int

(** [mix v] is the fixed 31-bit hash every cache geometry shares,
    standing in for the hardware CRC (bit-identical to a splitmix64
    finalizer step, computed in native int limbs so the per-hop path
    stays allocation-free). Way 0 indexes with [mix v] unseeded; way
    [w] with [mix (v lxor (w * 0x27220A95))]. Exposed so {!Tinylfu}'s
    sketch and {!Assoc_cache} hash with the same function. *)
val mix : int -> int

val miss : int
(** the (negative) sentinel {!lookup} returns on a miss *)

(** [lookup t vip] applies the access-bit side effects described
    above. Returns {!miss} on a miss; on a hit, a non-negative int
    packing the mapped PIP together with the value the access bit had
    {e before} this lookup — spine switches promote an entry to the
    core tier only when a hit finds the bit already set (§3.2.2).
    Decode with {!hit_pip} / {!hit_bit}. The packed form keeps the
    per-hop path allocation-free (the option/tuple result was the last
    per-lookup allocation). *)
val lookup : t -> Netcore.Addr.Vip.t -> int

(** [hit_pip h] / [hit_bit h] decode a non-[miss] {!lookup} result. *)
val hit_pip : int -> Netcore.Addr.Pip.t

val hit_bit : int -> bool

(** [peek t vip] is a side-effect-free lookup (for tests and metrics). *)
val peek : t -> Netcore.Addr.Vip.t -> Netcore.Addr.Pip.t option

(** [access_bit t vip] is the line's access bit if [vip] is cached. *)
val access_bit : t -> Netcore.Addr.Vip.t -> bool option

(** Negative {!insert} codes; every other result is an evicted VIP. *)

val ins_rejected : int
(** the admission policy (or a zero-slot cache) kept the occupant *)

val ins_updated : int
(** the key was already present; its value was refreshed *)

val ins_fresh : int
(** admitted into an empty line; nothing was evicted *)

(** [insert t ~admission vip pip] attempts to install the mapping.
    A freshly admitted entry has its access bit clear. Returns
    {!ins_rejected}, {!ins_updated} or {!ins_fresh}, or — when the
    insert evicted a valid occupant, the candidate for spillover — that
    occupant's VIP as a non-negative int, with its PIP readable via
    {!evicted_pip} until the next insert. Int-packed like {!lookup}, so
    an eviction on the per-hop learn stage allocates nothing. Raises
    [Invalid_argument] outside the {!Netcore.Addr.Pair} ranges
    ([vip < 2{^32}], [pip < 2{^29}]), before changing anything. *)
val insert : t -> admission:admission -> Netcore.Addr.Vip.t -> Netcore.Addr.Pip.t -> int

(** [evicted_pip t] is the PIP of the occupant evicted by the most
    recent {!insert} that returned a VIP. *)
val evicted_pip : t -> Netcore.Addr.Pip.t

(** [victim_key t vip] is the key (as an int) that
    [insert ~admission:`All t vip _] would evict right now, or [-1]
    when that insert would be an update or fill an empty line.
    Side-effect-free and allocation-free — the {!Tinylfu} admission
    filter probes the victim's frequency before every insert. *)
val victim_key : t -> Netcore.Addr.Vip.t -> int

(** [invalidate t vip ~stale] removes the entry for [vip] if its
    current value equals [stale]; returns whether an entry was
    removed. *)
val invalidate : t -> Netcore.Addr.Vip.t -> stale:Netcore.Addr.Pip.t -> bool

(** [clear t] drops every entry (a switch reboot / failure losing its
    data-plane state). Statistics counters are preserved. *)
val clear : t -> unit

(** [occupancy t] is the number of valid entries. *)
val occupancy : t -> int

(** Cumulative statistics since creation. *)
val hits : t -> int

val misses : t -> int
val insertions : t -> int
val evictions : t -> int

(** [rejections t] counts insert attempts the admission policy (or a
    zero-slot cache) turned away — the Table-1 admission behaviour the
    telemetry layer reports per tier. *)
val rejections : t -> int
