module Vip = Netcore.Addr.Vip
module Pip = Netcore.Addr.Pip

(* Set-indexed access-bit table: [ways] subtables of [sub] lines each,
   one hash per subtable (d-left, "Limited Associativity Caching in
   the Data Plane"). A lookup probes one line per way; an insert goes
   to the first empty way — with one line per bucket, d-left's "least
   loaded" rule degenerates to "first subtable with a free line". One
   way is the paper's direct-mapped cache.

   Each line is one int, as each P4 line is one register entry: the
   [Addr.Pair] of (VIP tag, PIP) shifted up one bit, with the access
   bit in bit 0; -1 is an empty line. A probe reads one word, and
   [key] of an empty line is -1 ([Pair.vip Pair.none]), which no VIP
   equals. Layout is subtable-major: way [w] owns indices
   [w*sub, (w+1)*sub). *)

module Pair = Netcore.Addr.Pair

type t = {
  lines : int array; (* -1 = empty *)
  ways : int;
  sub : int; (* lines per way *)
  n : int; (* ways * sub *)
  mutable occupancy : int;
  mutable hits : int;
  mutable misses : int;
  mutable insertions : int;
  mutable evictions : int;
  mutable rejections : int;
  mutable evicted_pip : int; (* PIP of the last insert's victim *)
}

let empty = -1
let[@inline] key line = Pair.vip (line asr 1)
let[@inline] line_pip line = Pair.pip (line lsr 1)

type admission = [ `All | `A_bit_clear ]

let create ~ways ~slots =
  if ways <= 0 then invalid_arg "Cache.create: ways must be positive";
  if slots < 0 then invalid_arg "Cache.create: negative slots";
  if slots mod ways <> 0 then invalid_arg "Cache.create: ways must divide slots";
  {
    lines = Array.make slots empty;
    ways;
    sub = slots / ways;
    n = slots;
    occupancy = 0;
    hits = 0;
    misses = 0;
    insertions = 0;
    evictions = 0;
    rejections = 0;
    evicted_pip = -1;
  }

let slots t = t.n
let ways t = t.ways

(* Fixed hash shared by all switches, standing in for the hardware CRC.
   Bit-identical to the splitmix64 finalizer step
     z = of_int (v * 0x9E3779B9);
     to_int ((mul (logxor z (lsr z 30)) 0xBF58476D1CE4E5B9L) lsr 33)
   but computed in native int limbs: boxed Int64 temporaries would cost
   ~6 minor words per lookup, and this runs on the per-hop path. Only
   the high 31 bits of the 64-bit product are needed, so the multiply
   keeps just the carry into the high limb. *)
let mix v =
  let a = v * 0x9E3779B9 in
  let lo = a land 0xFFFFFFFF and hi = (a asr 32) land 0xFFFFFFFF in
  let lo1 = (lo lxor ((hi lsl 2) lor (lo lsr 30))) land 0xFFFFFFFF in
  let hi1 = hi lxor (hi lsr 30) in
  let cl = 0x1CE4E5B9 and ch = 0xBF58476D in
  let carry = (lo1 * cl) lsr 32 in
  let mid =
    ((((lo1 lsr 16) * ch) land 0xFFFF) lsl 16)
    + ((lo1 land 0xFFFF) * ch)
    + (hi1 * cl)
    + carry
  in
  (mid land 0xFFFFFFFF) lsr 1

(* Line index of key [v] in way [w]. Way 0 hashes [v] unseeded; later
   ways perturb the key with a fixed odd constant before mixing,
   standing in for independent hardware CRC polynomials. *)
let line t v w = (w * t.sub) + (mix (v lxor (w * 0x27220A95)) mod t.sub)

let miss = -1
let hit_pip h = Pip.of_int (h lsr 1)
let hit_bit h = h land 1 = 1

(* A hit's result is the line's low bits, (PIP lsl 1) lor the access
   bit as it was; then the bit is set. *)
let hit_mask = (1 lsl (Pair.pip_bits + 1)) - 1

let hit t i =
  t.hits <- t.hits + 1;
  let line = t.lines.(i) in
  t.lines.(i) <- line lor 1;
  line land hit_mask

(* A probed occupant that is not the key loses its access bit. *)
let[@inline] clear_bit t i line = if line >= 0 then t.lines.(i) <- line land lnot 1

(* Way 0 is peeled: at one way (the paper's cache) a lookup is one
   hash and one line, with no loop set-up. Every probed occupant that
   is not the key loses its access bit: it was consulted and was not
   useful (the conflict-miss rule, applied per way). *)
let lookup t vip =
  if t.n = 0 then begin
    t.misses <- t.misses + 1;
    miss
  end
  else begin
    let v = Vip.to_int vip in
    let i = mix v mod t.sub in
    let l = t.lines.(i) in
    if key l = v then hit t i
    else begin
      clear_bit t i l;
      let found = ref (-1) and w = ref 1 in
      while !w < t.ways do
        let i = line t v !w in
        let l = t.lines.(i) in
        if key l = v then begin
          found := i;
          w := t.ways
        end
        else begin
          clear_bit t i l;
          incr w
        end
      done;
      if !found >= 0 then hit t !found
      else begin
        t.misses <- t.misses + 1;
        miss
      end
    end
  end

(* The line holding [v], or -1. *)
let find t v =
  let r = ref (-1) and w = ref 0 in
  while !w < t.ways do
    let i = line t v !w in
    if key t.lines.(i) = v then begin
      r := i;
      w := t.ways
    end
    else incr w
  done;
  !r

let peek t vip =
  if t.n = 0 then None
  else
    let i = find t (Vip.to_int vip) in
    if i >= 0 then Some (Pip.of_int (line_pip t.lines.(i))) else None

let access_bit t vip =
  if t.n = 0 then None
  else
    let i = find t (Vip.to_int vip) in
    if i >= 0 then Some (t.lines.(i) land 1 = 1) else None

(* Insert outcomes, int-packed like [lookup]'s result: a negative code,
   or the evicted occupant's VIP with its PIP parked in [evicted_pip].
   A variant carrying [Some (vip, pip)] cost 7 minor words per eviction
   on the learn stage of the per-hop path. *)
let ins_rejected = -1
let ins_updated = -2
let ins_fresh = -3
let evicted_pip t = Pip.of_int t.evicted_pip

(* One pass over the ways decides an insert: the line already holding
   [v] (an update), else the first empty line (a fill), else the first
   occupied line with a clear access bit, else — under [`All] only —
   way 0's line. Returns that line, or -1 when [`A_bit_clear] finds
   every candidate's bit set. Way 0 is peeled as in [lookup]: at one
   way this is the direct-mapped rule (update, fill, or admit per the
   single line's bit) with no loop set-up. *)
let target t ~admission v =
  let i0 = mix v mod t.sub in
  let l0 = t.lines.(i0) in
  if key l0 = v then i0
  else begin
    let found = ref (-1) in
    let empty = ref (if l0 < 0 then i0 else -1) in
    let clear = ref (if l0 >= 0 && l0 land 1 = 0 then i0 else -1) in
    let w = ref 1 in
    while !w < t.ways do
      let i = line t v !w in
      let l = t.lines.(i) in
      if key l = v then begin
        found := i;
        w := t.ways
      end
      else begin
        if l < 0 then (if !empty < 0 then empty := i)
        else if !clear < 0 && l land 1 = 0 then clear := i;
        incr w
      end
    done;
    if !found >= 0 then !found
    else if !empty >= 0 then !empty
    else if !clear >= 0 then !clear
    else match admission with `All -> i0 | `A_bit_clear -> -1
  end

let insert t ~admission vip pip =
  let v = Vip.to_int vip in
  (* Packing first: an out-of-range pair raises before any change. *)
  let fresh = Pair.pack v (Pip.to_int pip) lsl 1 in
  let i = if t.n = 0 then -1 else target t ~admission v in
  if i < 0 then begin
    t.rejections <- t.rejections + 1;
    ins_rejected
  end
  else begin
    let l = t.lines.(i) in
    let k = key l in
    if k = v then begin
      t.lines.(i) <- fresh lor (l land 1);
      ins_updated
    end
    else begin
      t.lines.(i) <- fresh;
      t.insertions <- t.insertions + 1;
      if l < 0 then begin
        t.occupancy <- t.occupancy + 1;
        ins_fresh
      end
      else begin
        t.evicted_pip <- line_pip l;
        t.evictions <- t.evictions + 1;
        k
      end
    end
  end

(* The entry an [insert ~admission:`All] for [vip] would evict right
   now: the target line's occupant key, or -1 when the insert would be
   an update or land on an empty line. Int-packed (no option) — the
   TinyLFU admission front end calls this once per insert attempt. *)
let victim_key t vip =
  if t.n = 0 then -1
  else
    let v = Vip.to_int vip in
    let k = key t.lines.(target t ~admission:`All v) in
    if k = v then -1 else k

let invalidate t vip ~stale =
  if t.n = 0 then false
  else begin
    let i = find t (Vip.to_int vip) in
    if i >= 0 && line_pip t.lines.(i) = Pip.to_int stale then begin
      t.lines.(i) <- empty;
      t.occupancy <- t.occupancy - 1;
      true
    end
    else false
  end

let clear t =
  Array.fill t.lines 0 t.n empty;
  t.occupancy <- 0

let occupancy t = t.occupancy
let hits t = t.hits
let misses t = t.misses
let insertions t = t.insertions
let evictions t = t.evictions
let rejections t = t.rejections
