module Vip = Netcore.Addr.Vip
module Pip = Netcore.Addr.Pip

(* Set-indexed access-bit table: [ways] subtables of [sub] lines each,
   one hash per subtable (d-left, "Limited Associativity Caching in
   the Data Plane"). A lookup probes one line per way; an insert goes
   to the first empty way — with one line per bucket, d-left's "least
   loaded" rule degenerates to "first subtable with a free line". One
   way is the paper's direct-mapped cache.

   Layout is subtable-major over flat arrays, mirroring the P4
   three-register-array structure so the SRAM costing is line-exact:
   way [w] owns indices [w*sub, (w+1)*sub). *)

type t = {
  keys : int array; (* -1 = empty *)
  values : int array;
  access : Bytes.t;
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

type admission = [ `All | `A_bit_clear ]

let create ~ways ~slots =
  if ways <= 0 then invalid_arg "Cache.create: ways must be positive";
  if slots < 0 then invalid_arg "Cache.create: negative slots";
  if slots mod ways <> 0 then invalid_arg "Cache.create: ways must divide slots";
  {
    keys = Array.make slots (-1);
    values = Array.make slots (-1);
    access = Bytes.make slots '\000';
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

let hit t i =
  t.hits <- t.hits + 1;
  let was_set = if Bytes.get t.access i = '\001' then 1 else 0 in
  Bytes.set t.access i '\001';
  (t.values.(i) lsl 1) lor was_set

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
    let key = t.keys.(i) in
    if key = v then hit t i
    else begin
      if key >= 0 then Bytes.set t.access i '\000';
      let found = ref (-1) and w = ref 1 in
      while !w < t.ways do
        let i = line t v !w in
        let key = t.keys.(i) in
        if key = v then begin
          found := i;
          w := t.ways
        end
        else begin
          if key >= 0 then Bytes.set t.access i '\000';
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
    if t.keys.(i) = v then begin
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
    if i >= 0 then Some (Pip.of_int t.values.(i)) else None

let access_bit t vip =
  if t.n = 0 then None
  else
    let i = find t (Vip.to_int vip) in
    if i >= 0 then Some (Bytes.get t.access i = '\001') else None

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
  let key = t.keys.(i0) in
  if key = v then i0
  else begin
    let found = ref (-1) in
    let empty = ref (if key < 0 then i0 else -1) in
    let clear =
      ref (if key >= 0 && Bytes.get t.access i0 = '\000' then i0 else -1)
    in
    let w = ref 1 in
    while !w < t.ways do
      let i = line t v !w in
      let key = t.keys.(i) in
      if key = v then begin
        found := i;
        w := t.ways
      end
      else begin
        if key < 0 then (if !empty < 0 then empty := i)
        else if !clear < 0 && Bytes.get t.access i = '\000' then clear := i;
        incr w
      end
    done;
    if !found >= 0 then !found
    else if !empty >= 0 then !empty
    else if !clear >= 0 then !clear
    else match admission with `All -> i0 | `A_bit_clear -> -1
  end

let insert t ~admission vip pip =
  let i = if t.n = 0 then -1 else target t ~admission (Vip.to_int vip) in
  if i < 0 then begin
    t.rejections <- t.rejections + 1;
    ins_rejected
  end
  else begin
    let key = t.keys.(i) in
    if key = Vip.to_int vip then begin
      t.values.(i) <- Pip.to_int pip;
      ins_updated
    end
    else begin
      if key >= 0 then t.evicted_pip <- t.values.(i);
      t.keys.(i) <- Vip.to_int vip;
      t.values.(i) <- Pip.to_int pip;
      Bytes.set t.access i '\000';
      t.insertions <- t.insertions + 1;
      if key < 0 then begin
        t.occupancy <- t.occupancy + 1;
        ins_fresh
      end
      else begin
        t.evictions <- t.evictions + 1;
        key
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
    let key = t.keys.(target t ~admission:`All v) in
    if key = v then -1 else key

let invalidate t vip ~stale =
  if t.n = 0 then false
  else begin
    let i = find t (Vip.to_int vip) in
    if i >= 0 && t.values.(i) = Pip.to_int stale then begin
      t.keys.(i) <- -1;
      t.values.(i) <- -1;
      Bytes.set t.access i '\000';
      t.occupancy <- t.occupancy - 1;
      true
    end
    else false
  end

let clear t =
  Array.fill t.keys 0 t.n (-1);
  Array.fill t.values 0 t.n (-1);
  Bytes.fill t.access 0 t.n '\000';
  t.occupancy <- 0

let occupancy t = t.occupancy
let hits t = t.hits
let misses t = t.misses
let insertions t = t.insertions
let evictions t = t.evictions
let rejections t = t.rejections
