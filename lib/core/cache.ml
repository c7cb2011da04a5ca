module Vip = Netcore.Addr.Vip
module Pip = Netcore.Addr.Pip

type t = {
  keys : int array; (* -1 = empty *)
  values : int array;
  access : Bytes.t;
  n : int;
  mutable occupancy : int;
  mutable hits : int;
  mutable misses : int;
  mutable insertions : int;
  mutable evictions : int;
  mutable rejections : int;
  mutable evicted_pip : int; (* PIP of the last insert's victim *)
}

type admission = [ `All | `A_bit_clear ]

let create ~slots =
  if slots < 0 then invalid_arg "Cache.create: negative slots";
  {
    keys = Array.make slots (-1);
    values = Array.make slots (-1);
    access = Bytes.make slots '\000';
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

let slot_of t vip = mix (Vip.to_int vip) mod t.n

let miss = -1
let hit_pip h = Pip.of_int (h lsr 1)
let hit_bit h = h land 1 = 1

let lookup t vip =
  if t.n = 0 then begin
    t.misses <- t.misses + 1;
    miss
  end
  else begin
    let i = slot_of t vip in
    let key = t.keys.(i) in
    if key = Vip.to_int vip then begin
      t.hits <- t.hits + 1;
      let was_set = if Bytes.get t.access i = '\001' then 1 else 0 in
      Bytes.set t.access i '\001';
      (t.values.(i) lsl 1) lor was_set
    end
    else begin
      t.misses <- t.misses + 1;
      (* A conflicting occupant loses its access bit: it was consulted
         and was not useful. *)
      if key >= 0 then Bytes.set t.access i '\000';
      miss
    end
  end

let peek t vip =
  if t.n = 0 then None
  else
    let i = slot_of t vip in
    if t.keys.(i) = Vip.to_int vip then Some (Pip.of_int t.values.(i)) else None

let access_bit t vip =
  if t.n = 0 then None
  else
    let i = slot_of t vip in
    if t.keys.(i) = Vip.to_int vip then Some (Bytes.get t.access i = '\001')
    else None

(* Insert outcomes, int-packed like [lookup]'s result: a negative code,
   or the evicted occupant's VIP with its PIP parked in [evicted_pip].
   A variant carrying [Some (vip, pip)] cost 7 minor words per eviction
   on the learn stage of the per-hop path. *)
let ins_rejected = -1
let ins_updated = -2
let ins_fresh = -3
let evicted_pip t = Pip.of_int t.evicted_pip

let insert t ~admission vip pip =
  if t.n = 0 then begin
    t.rejections <- t.rejections + 1;
    ins_rejected
  end
  else begin
    let i = slot_of t vip in
    let key = t.keys.(i) in
    if key = Vip.to_int vip then begin
      t.values.(i) <- Pip.to_int pip;
      ins_updated
    end
    else if key < 0 then begin
      t.keys.(i) <- Vip.to_int vip;
      t.values.(i) <- Pip.to_int pip;
      Bytes.set t.access i '\000';
      t.occupancy <- t.occupancy + 1;
      t.insertions <- t.insertions + 1;
      ins_fresh
    end
    else begin
      let admit =
        match admission with
        | `All -> true
        | `A_bit_clear -> Bytes.get t.access i = '\000'
      in
      if not admit then begin
        t.rejections <- t.rejections + 1;
        ins_rejected
      end
      else begin
        t.evicted_pip <- t.values.(i);
        t.keys.(i) <- Vip.to_int vip;
        t.values.(i) <- Pip.to_int pip;
        Bytes.set t.access i '\000';
        t.insertions <- t.insertions + 1;
        t.evictions <- t.evictions + 1;
        key
      end
    end
  end

(* The entry an [insert ~admission:`All] for [vip] would evict right
   now: the slot's occupant key, or -1 when the insert would be an
   update or land on an empty line. Int-packed (no option) — the
   TinyLFU admission front end calls this once per insert attempt. *)
let victim_key t vip =
  if t.n = 0 then -1
  else
    let i = slot_of t vip in
    let key = t.keys.(i) in
    if key = Vip.to_int vip then -1 else key

let invalidate t vip ~stale =
  if t.n = 0 then false
  else begin
    let i = slot_of t vip in
    if t.keys.(i) = Vip.to_int vip && t.values.(i) = Pip.to_int stale then begin
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
