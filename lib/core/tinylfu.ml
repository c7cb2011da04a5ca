module Vip = Netcore.Addr.Vip

(* TinyLFU-style frequency admission (Einziger et al.): a 4-bit
   count-min sketch tracks approximate access frequency; an insert
   that would evict a resident entry is admitted only when the
   candidate's estimated frequency exceeds the victim's. Counters
   halve after every [sample] touches, aging history so the sketch
   follows the working set.

   The sketch is dataplane-shaped: [rows] register arrays of [width]
   4-bit saturating counters (two per byte), indexed by per-row hashes
   of the key — exactly the structure a Tofino stage can host, sized
   by the same [P4model.Resources] rule its SRAM costing charges. *)

type t = {
  counters : Bytes.t; (* rows * width nibbles, two per byte *)
  rows : int;
  width : int;
  sample : int;
  mutable touches : int;
  mutable halvings : int;
  mutable denied : int;
}

let create ~slots =
  let { P4model.Resources.rows; width } = P4model.Resources.sketch_of_slots slots in
  {
    counters = Bytes.make ((rows * width + 1) / 2) '\000';
    rows;
    width;
    sample = max 64 (10 * slots);
    touches = 0;
    halvings = 0;
    denied = 0;
  }

(* Per-row index: the shared hardware hash over the key perturbed by a
   fixed per-row constant (row 0 unseeded; independence across rows is
   what count-min needs, not agreement with the cache's index). *)
let row_seed r = r * 0x1B873593

let col_of t r v = Cache.mix (v lxor row_seed r) mod t.width

let nibble t i =
  let b = Char.code (Bytes.get t.counters (i lsr 1)) in
  if i land 1 = 0 then b land 0xF else b lsr 4

let set_nibble t i x =
  let j = i lsr 1 in
  let b = Char.code (Bytes.get t.counters j) in
  let b' = if i land 1 = 0 then b land 0xF0 lor x else b land 0x0F lor (x lsl 4) in
  Bytes.set t.counters j (Char.chr b')

let halve t =
  for j = 0 to Bytes.length t.counters - 1 do
    let b = Char.code (Bytes.get t.counters j) in
    (* Both nibbles halved in one shift: clear the bit that crosses
       the nibble boundary and the top bit. *)
    Bytes.set t.counters j (Char.chr ((b lsr 1) land 0x77))
  done;
  t.halvings <- t.halvings + 1

(* Count one access to key [v]: bump every row's counter (saturating
   at 15); age the sketch when the sample period elapses. *)
let touch t vip =
  let v = Vip.to_int vip in
  for r = 0 to t.rows - 1 do
    let i = (r * t.width) + col_of t r v in
    let x = nibble t i in
    if x < 15 then set_nibble t i (x + 1)
  done;
  t.touches <- t.touches + 1;
  if t.touches >= t.sample then begin
    t.touches <- 0;
    halve t
  end

let estimate t v =
  let e = ref 15 in
  for r = 0 to t.rows - 1 do
    let x = nibble t ((r * t.width) + col_of t r v) in
    if x < !e then e := x
  done;
  !e

let estimate_vip t vip = estimate t (Vip.to_int vip)

(* Inserts that update or fill an empty line bypass the filter —
   admission only arbitrates evictions, as in TinyLFU. *)
let admit t vip ~victim =
  if victim < 0 || estimate t (Vip.to_int vip) > estimate t victim then true
  else begin
    t.denied <- t.denied + 1;
    false
  end

let clear t =
  Bytes.fill t.counters 0 (Bytes.length t.counters) '\000';
  t.touches <- 0

let denied t = t.denied
let halvings t = t.halvings
