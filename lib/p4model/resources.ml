type usage = {
  match_crossbar : float;
  meter_alu : float;
  gateway : float;
  sram : float;
  tcam : float;
  vliw : float;
  hash_bits : float;
}

let stages = 12
let sram_bytes_per_stage = 80 * 16 * 1024 (* 80 blocks x 16 KB *)
let hash_bits_per_stage = 104 (* calibrated: see module doc *)
let max_entries = 192 * 1024
let paper_config_entries = 96 * 1024

(* Program-structure constants (cache-size independent): the pipeline
   needs the same comparisons, branches and header rewrites no matter
   how many lines the register arrays hold. These values are Table 6's
   own numbers for the size-independent resources. *)
let const_match_crossbar = 7.2
let const_meter_alu = 17.5
let const_gateway = 25.0
let const_tcam = 1.7
let const_vliw = 10.0

(* SRAM floor for the non-register tables (role config, front-panel
   port map, ECMP groups). *)
let const_sram_bytes = 16 * 1024

(* Register line cost: 4B VIP key + 2B server index (the PIP is
   recovered from a small index table) + 1 bit access. *)
let bytes_per_entry = 6.125

let estimate ~entries_per_switch =
  if entries_per_switch < 0 then
    invalid_arg "Resources.estimate: negative entries";
  if entries_per_switch > max_entries then
    invalid_arg "Resources.estimate: exceeds per-switch capacity";
  let total_sram = float_of_int (stages * sram_bytes_per_stage) in
  let sram_bytes =
    (float_of_int entries_per_switch *. bytes_per_entry)
    +. float_of_int const_sram_bytes
  in
  let sram = 100.0 *. sram_bytes /. total_sram in
  (* Hash bits: each of the three register arrays needs an index hash
     of ceil(log2 n) bits, plus the fixed ECMP/selector hashes. *)
  let index_bits =
    if entries_per_switch <= 1 then 1
    else
      int_of_float
        (Float.ceil (Float.log (float_of_int entries_per_switch) /. Float.log 2.0))
  in
  let fixed_hash_bits = 14 (* ECMP selection *) in
  let used_hash = (3 * index_bits) + fixed_hash_bits in
  let hash_bits =
    Float.min 100.0
      (100.0 *. float_of_int used_hash
      /. float_of_int (stages * hash_bits_per_stage))
  in
  {
    match_crossbar = const_match_crossbar;
    meter_alu = const_meter_alu;
    gateway = const_gateway;
    sram = Float.min 100.0 sram;
    tcam = const_tcam;
    vliw = const_vliw;
    hash_bits;
  }

type stage_kind = Classify | Lookup | Learn | Emit

(* Per-stage split of the size-independent constants, following the
   program structure: option-header parsing, role gates and the
   misdelivery compare live in classify; the register-array reads in
   lookup; admission logic and register writes in learn; the
   clone/mirror path and outgoing header rewrites in emit. Fractions
   are dyadic so the four shares of each resource re-sum to the
   whole-switch figure without drift. *)
let frac kind =
  (* (crossbar, meter_alu, gateway, tcam, vliw) *)
  match kind with
  | Classify -> (0.25, 0.125, 0.375, 1.0, 0.25)
  | Lookup -> (0.375, 0.375, 0.25, 0.0, 0.25)
  | Learn -> (0.25, 0.375, 0.25, 0.0, 0.25)
  | Emit -> (0.125, 0.125, 0.125, 0.0, 0.25)

let stage_estimate ~entries_per_switch kind =
  let whole = estimate ~entries_per_switch in
  let fx, fa, fg, ft, fv = frac kind in
  let total_sram = float_of_int (stages * sram_bytes_per_stage) in
  (* SRAM: the register arrays (entry-scaled) are charged to lookup;
     the constant floor (role config, port map, ECMP groups) to
     classify. *)
  let sram =
    match kind with
    | Lookup ->
        100.0
        *. (float_of_int entries_per_switch *. bytes_per_entry)
        /. total_sram
    | Classify -> 100.0 *. float_of_int const_sram_bytes /. total_sram
    | Learn | Emit -> 0.0
  in
  (* Hash bits: two register-index hashes are consumed reading (keys,
     values) at lookup, one writing the access-bit array at learn, and
     the fixed ECMP/selector hash at classify. *)
  let index_bits =
    if entries_per_switch <= 1 then 1
    else
      int_of_float
        (Float.ceil
           (Float.log (float_of_int entries_per_switch) /. Float.log 2.0))
  in
  let used_hash =
    match kind with
    | Classify -> 14
    | Lookup -> 2 * index_bits
    | Learn -> index_bits
    | Emit -> 0
  in
  let hash_bits =
    100.0 *. float_of_int used_hash
    /. float_of_int (stages * hash_bits_per_stage)
  in
  {
    match_crossbar = fx *. whole.match_crossbar;
    meter_alu = fa *. whole.meter_alu;
    gateway = fg *. whole.gateway;
    sram;
    tcam = ft *. whole.tcam;
    vliw = fv *. whole.vliw;
    hash_bits;
  }

(* ---- Exact SRAM bit costing per cache geometry ----------------- *)

type geometry = G_table of int | G_assoc of int

type sketch = { rows : int; width : int }

let next_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

(* ~4 counters per cached line per row (the classic "sketch much
   larger than the cache" sizing), floor 16 so tiny caches still
   discriminate. *)
let sketch_of_slots slots =
  if slots < 0 then invalid_arg "Resources.sketch_of_slots: negative slots";
  { rows = 4; width = next_pow2 (max 16 (4 * slots)) }

let geometry_name = function
  | G_table 1 -> "direct"
  | G_table d -> Printf.sprintf "dleft%d" d
  | G_assoc w -> Printf.sprintf "%dway-lru" w

(* Register line layout (the [bytes_per_entry] float above, in exact
   bits): a 4B VIP tag and a 2B server index per line, plus per-line
   replacement metadata — 1 access bit for the access-bit table at any
   way count (the protocol's second-chance bit), ceil(log2 ways)
   recency-rank bits for a [ways]-associative LRU set (1 way still
   needs its access bit, so ways = 1 collapses to the 49-bit
   direct-mapped line). *)
let key_bits = 32
let value_bits = 16

let ceil_log2 n =
  let rec go b p = if p >= n then b else go (b + 1) (p * 2) in
  go 0 1

let metadata_bits_per_line = function
  | G_table w ->
      if w <= 0 then invalid_arg "Resources: table ways must be positive";
      1
  | G_assoc w ->
      if w <= 0 then invalid_arg "Resources: assoc ways must be positive";
      max 1 (ceil_log2 w)

(* Per-stage-kind share of a geometry's SRAM bits, integers with no
   rounding so the four shares re-sum to {!geometry_bits} exactly:
   tags and values are read in the lookup stages; replacement metadata
   and the admission sketch are written in the learn stages; classify
   and emit hold no per-line state. *)
let stage_bits ~slots ?sketch geometry kind =
  if slots < 0 then invalid_arg "Resources.stage_bits: negative slots";
  let meta = metadata_bits_per_line geometry in
  let sketch_bits =
    match sketch with
    | None -> 0
    | Some { rows; width } ->
        if rows <= 0 || width <= 0 then
          invalid_arg "Resources: sketch rows/width must be positive";
        rows * width * 4
  in
  match kind with
  | Classify | Emit -> 0
  | Lookup -> slots * (key_bits + value_bits)
  | Learn -> (slots * meta) + sketch_bits

let geometry_bits ~slots ?sketch geometry =
  List.fold_left
    (fun acc kind -> acc + stage_bits ~slots ?sketch geometry kind)
    0
    [ Classify; Lookup; Learn; Emit ]

let stage_kind_name = function
  | Classify -> "classify"
  | Lookup -> "lookup"
  | Learn -> "learn"
  | Emit -> "emit"

let rows u =
  [
    ("Match Crossbar", u.match_crossbar);
    ("Meter ALU", u.meter_alu);
    ("Gateway", u.gateway);
    ("SRAM", u.sram);
    ("TCAM", u.tcam);
    ("VLIW Instruction", u.vliw);
    ("Hash Bits", u.hash_bits);
  ]

let pp ppf u =
  List.iter
    (fun (name, pct) -> Format.fprintf ppf "%-18s %5.1f%%@." name pct)
    (rows u)
