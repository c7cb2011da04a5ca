module Vip = Netcore.Addr.Vip
module Pip = Netcore.Addr.Pip

(* d-left hash table: [d] subtables of [sub] lines each, one
   independent hash per subtable. A lookup probes one line per way
   (single-cycle-per-way in hardware: d register-array reads with
   precomputed indices); an insert goes to the first empty way —
   with one line per bucket, "least loaded" degenerates to "first
   subtable with a free line", the standard d-left tie-break.

   Layout is subtable-major over flat arrays, mirroring [Cache]'s
   three-register-array structure so the SRAM costing is line-exact:
   way [i] owns indices [i*sub, (i+1)*sub). *)

type t = {
  keys : int array; (* -1 = empty *)
  values : int array;
  access : Bytes.t;
  d : int;
  sub : int; (* lines per subtable *)
  n : int; (* d * sub *)
  seeds : int array;
  mutable occupancy : int;
  mutable hits : int;
  mutable misses : int;
  mutable insertions : int;
  mutable evictions : int;
  mutable rejections : int;
  mutable evicted_pip : int; (* PIP of the last insert's victim *)
}

(* Way 0 hashes with seed 0, i.e. exactly [Cache.mix] — a d=1 table is
   byte-for-byte the direct-mapped cache (the equivalence the QCheck
   suite pins). Later ways perturb the key with fixed odd constants
   before mixing, standing in for independent hardware CRC polynomials. *)
let seed_of i = i * 0x27220A95

let create ~d ~slots =
  if d <= 0 then invalid_arg "Dleft.create: d must be positive";
  if slots < 0 then invalid_arg "Dleft.create: negative slots";
  if slots mod d <> 0 then invalid_arg "Dleft.create: d must divide slots";
  let sub = slots / d in
  {
    keys = Array.make slots (-1);
    values = Array.make slots (-1);
    access = Bytes.make slots '\000';
    d;
    sub;
    n = slots;
    seeds = Array.init d seed_of;
    occupancy = 0;
    hits = 0;
    misses = 0;
    insertions = 0;
    evictions = 0;
    rejections = 0;
    evicted_pip = -1;
  }

let slots t = t.n
let ways t = t.d

let miss = Cache.miss
let hit_pip = Cache.hit_pip
let hit_bit = Cache.hit_bit
let evicted_pip t = Pip.of_int t.evicted_pip

(* Line index of key [v] in way [i]. *)
let idx_of t v i = (i * t.sub) + (Cache.mix (v lxor t.seeds.(i)) mod t.sub)

let lookup t vip =
  if t.n = 0 then begin
    t.misses <- t.misses + 1;
    miss
  end
  else begin
    let v = Vip.to_int vip in
    let rec probe i =
      if i >= t.d then begin
        t.misses <- t.misses + 1;
        miss
      end
      else begin
        let idx = idx_of t v i in
        let key = t.keys.(idx) in
        if key = v then begin
          t.hits <- t.hits + 1;
          let was_set = if Bytes.get t.access idx = '\001' then 1 else 0 in
          Bytes.set t.access idx '\001';
          (t.values.(idx) lsl 1) lor was_set
        end
        else begin
          (* A probed occupant that was not the key loses its access
             bit — consulted and not useful, as in [Cache.lookup]'s
             conflict-miss rule, applied per way. *)
          if key >= 0 then Bytes.set t.access idx '\000';
          probe (i + 1)
        end
      end
    in
    probe 0
  end

let peek t vip =
  if t.n = 0 then None
  else
    let v = Vip.to_int vip in
    let rec probe i =
      if i >= t.d then None
      else
        let idx = idx_of t v i in
        if t.keys.(idx) = v then Some (Pip.of_int t.values.(idx))
        else probe (i + 1)
    in
    probe 0

let access_bit t vip =
  if t.n = 0 then None
  else
    let v = Vip.to_int vip in
    let rec probe i =
      if i >= t.d then None
      else
        let idx = idx_of t v i in
        if t.keys.(idx) = v then Some (Bytes.get t.access idx = '\001')
        else probe (i + 1)
    in
    probe 0

(* The three int-returning scans below are separate passes rather than
   one pass with a composite result: insert runs on the learn stage of
   the per-hop path, and a tuple/variant result would allocate (the
   same reason [insert] returns [Cache]'s int codes). d is
   small (2-4) and [Cache.mix] is a handful of int ops. *)

let rec find_key t v i =
  if i >= t.d then -1
  else
    let idx = idx_of t v i in
    if t.keys.(idx) = v then idx else find_key t v (i + 1)

let rec find_empty t v i =
  if i >= t.d then -1
  else
    let idx = idx_of t v i in
    if t.keys.(idx) < 0 then idx else find_empty t v (i + 1)

let rec find_clear t v i =
  if i >= t.d then -1
  else
    let idx = idx_of t v i in
    if t.keys.(idx) >= 0 && Bytes.get t.access idx = '\000' then idx
    else find_clear t v (i + 1)

let insert t ~admission vip pip =
  if t.n = 0 then begin
    t.rejections <- t.rejections + 1;
    Cache.ins_rejected
  end
  else begin
    let v = Vip.to_int vip in
    let found = find_key t v 0 in
    if found >= 0 then begin
      t.values.(found) <- Pip.to_int pip;
      Cache.ins_updated
    end
    else begin
      let empty = find_empty t v 0 in
      if empty >= 0 then begin
        t.keys.(empty) <- v;
        t.values.(empty) <- Pip.to_int pip;
        Bytes.set t.access empty '\000';
        t.occupancy <- t.occupancy + 1;
        t.insertions <- t.insertions + 1;
        Cache.ins_fresh
      end
      else begin
        (* All d candidate lines occupied. [`A_bit_clear] only replaces
           a not-recently-useful way; [`All] prefers one but falls back
           to way 0 — at d=1 both reduce to [Cache]'s behaviour. *)
        let clear = find_clear t v 0 in
        let victim =
          match admission with
          | `A_bit_clear -> clear
          | `All -> if clear >= 0 then clear else idx_of t v 0
        in
        if victim < 0 then begin
          t.rejections <- t.rejections + 1;
          Cache.ins_rejected
        end
        else begin
          let evicted = t.keys.(victim) in
          t.evicted_pip <- t.values.(victim);
          t.keys.(victim) <- v;
          t.values.(victim) <- Pip.to_int pip;
          Bytes.set t.access victim '\000';
          t.insertions <- t.insertions + 1;
          t.evictions <- t.evictions + 1;
          evicted
        end
      end
    end
  end

let victim_key t vip =
  if t.n = 0 then -1
  else
    let v = Vip.to_int vip in
    if find_key t v 0 >= 0 then -1
    else if find_empty t v 0 >= 0 then -1
    else
      let clear = find_clear t v 0 in
      let victim = if clear >= 0 then clear else idx_of t v 0 in
      t.keys.(victim)

let invalidate t vip ~stale =
  if t.n = 0 then false
  else begin
    let v = Vip.to_int vip in
    let idx = find_key t v 0 in
    if idx >= 0 && t.values.(idx) = Pip.to_int stale then begin
      t.keys.(idx) <- -1;
      t.values.(idx) <- -1;
      Bytes.set t.access idx '\000';
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
