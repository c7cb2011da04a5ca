(** Direct-mapped V2P cache with per-line access bits (§3.2).

    The cache mirrors the paper's P4 register-array layout: one array
    of keys (VIPs), one of values (PIPs), and one of access bits. The
    slot for a VIP is a fixed hash of the key, so an insertion can only
    evict the current occupant of that one slot — no LRU, no chaining.

    Access-bit semantics (paper §3.2, "Cache structure"):
    - a lookup that hits sets the line's access bit;
    - a lookup that lands on the line but finds a different key (a
      conflict miss) {e clears} the access bit, marking the entry as
      not-recently-useful so conservative admission can replace it. *)

type t

(** Admission policies from Table 1. [`All] always admits (evicting
    the occupant if needed); [`A_bit_clear] admits only when the
    occupied slot's access bit is clear (an empty slot always
    admits). *)
type admission = [ `All | `A_bit_clear ]

(** [create ~slots] is an empty cache with [slots] lines. [slots = 0]
    is a legal degenerate cache on which every lookup misses and every
    insert is rejected. Raises [Invalid_argument] if [slots < 0]. *)
val create : slots:int -> t

val slots : t -> int

(** [mix v] is the fixed 31-bit hash every cache geometry shares,
    standing in for the hardware CRC (bit-identical to a splitmix64
    finalizer step, computed in native int limbs so the per-hop path
    stays allocation-free). Exposed so {!Dleft} and {!Tinylfu} index
    with the same function — way 0 of a d-left table must agree with
    the direct-mapped slot for the d=1 equivalence to hold. *)
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
    an eviction on the per-hop learn stage allocates nothing. *)
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
