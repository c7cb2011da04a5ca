(** Analytical model of the Tofino resource footprint of the SwitchV2P
    P4 program (§3.4, Table 6).

    We have no Tofino compiler in this environment, so per-stage
    utilization is computed from the program structure the paper
    describes: three register arrays (keys, values, access bits), the
    role/admission logic as if-else gateways, and the option-header
    parsing. Program-structure costs (crossbar, ALUs, gateways, VLIW,
    TCAM) are constants of the pipeline; SRAM and hash bits scale with
    the per-switch entry count. Constants are calibrated so that the
    paper's 50%-cache configuration (96K entries — half of the 192K a
    switch can hold [Bluebird]) reproduces Table 6. *)

type usage = {
  match_crossbar : float;  (** percent, average per stage *)
  meter_alu : float;
  gateway : float;
  sram : float;
  tcam : float;
  vliw : float;
  hash_bits : float;
}

(** Tofino-1 per-stage capacities used by the model. *)
val stages : int

val sram_bytes_per_stage : int
val hash_bits_per_stage : int

(** [estimate ~entries_per_switch] — per-stage average utilization for
    a direct-mapped cache of that many lines.
    Raises [Invalid_argument] if negative or beyond the 192K capacity
    the paper cites. *)
val estimate : entries_per_switch:int -> usage

(** [paper_config_entries] is 96K: the 50%-cache point of Table 6. *)
val paper_config_entries : int

(** [max_entries] is the 192K per-switch capacity from Bluebird. *)
val max_entries : int

(** The four stages of the dataplane pipeline, mirroring
    [Netsim.Pipeline.kind]; used to decompose the whole-switch
    estimate along the stage boundary. *)
type stage_kind = Classify | Lookup | Learn | Emit

(** [stage_estimate ~entries_per_switch kind] is [kind]'s share of
    {!estimate}: entry-scaled SRAM and the two register-read index
    hashes are charged to [Lookup], the register-write hash to
    [Learn], the constant SRAM floor and the fixed ECMP hash to
    [Classify], and the size-independent logic resources are split by
    fixed program-structure fractions. Summed over the four kinds the
    shares reproduce the whole-switch estimate. *)
val stage_estimate : entries_per_switch:int -> stage_kind -> usage

val stage_kind_name : stage_kind -> string

(** {2 Exact SRAM bit costing per cache geometry}

    The cache-geometry frontier plots hit rate against the {e actual}
    SRAM footprint of each geometry, in bits: 32-bit VIP tags and
    16-bit server indices per line, plus per-line replacement metadata
    (1 access bit for the access-bit table; [ceil(log2 ways)]
    recency-rank bits for a LRU set, floored at 1 so a 1-way set
    collapses to the 49-bit direct-mapped line) and, when a TinyLFU
    admission front end is attached, its count-min sketch
    ([rows * width] 4-bit counters). All integers — no rounding — so
    the per-stage shares re-sum exactly. *)

(** A cache geometry for bit costing. [G_table w] is a [w]-way
    access-bit table ([G_table 1] is the paper's
    direct-mapped cache); [G_assoc w] a [w]-way set-associative LRU.
    Line counts are passed separately ([~slots] is the total across
    ways/sets). *)
type geometry = G_table of int | G_assoc of int

(** TinyLFU sketch dimensions: [rows * width] 4-bit counters. *)
type sketch = { rows : int; width : int }

(** [sketch_of_slots slots] — the sketch a TinyLFU filter in front of
    a [slots]-line cache holds ([Switchv2p.Tinylfu.create] builds
    exactly this): 4 rows of the next power of two
    >= [max 16 (4 * slots)]. Raises [Invalid_argument] on negative
    [slots]. *)
val sketch_of_slots : int -> sketch

(** ["direct"] (one-way table), ["dleftW"], ["Wway-lru"] — frontier
    row labels. *)
val geometry_name : geometry -> string

(** [stage_bits ~slots ?sketch g kind] — [kind]'s share of the SRAM
    bits: tags + values ([slots * 48]) in [Lookup]; replacement
    metadata and the sketch in [Learn]; 0 in [Classify] and [Emit].
    Raises [Invalid_argument] on negative [slots] or non-positive
    ways/sketch dimensions. *)
val stage_bits : slots:int -> ?sketch:sketch -> geometry -> stage_kind -> int

(** [geometry_bits ~slots ?sketch g] — total SRAM bits; by
    construction the sum of {!stage_bits} over the four kinds. *)
val geometry_bits : slots:int -> ?sketch:sketch -> geometry -> int

val pp : Format.formatter -> usage -> unit

(** [rows u] renders the Table 6 layout as (resource, percent) rows. *)
val rows : usage -> (string * float) list
