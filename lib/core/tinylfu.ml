module Vip = Netcore.Addr.Vip

(* TinyLFU-style frequency admission (Einziger et al.): a 4-bit
   count-min sketch tracks approximate access frequency; an insert
   that would evict a resident entry is admitted only when the
   candidate's estimated frequency exceeds the victim's. Counters
   halve after every [sample] touches, aging history so the sketch
   follows the working set.

   The sketch is dataplane-shaped: [rows] register arrays of [width]
   4-bit saturating counters (two per byte), indexed by per-row hashes
   of the key — exactly the structure a Tofino stage can host, which
   is what the [P4model.Resources] sketch costing charges for. *)

type backing = Table of Cache.t | Assoc of Assoc_cache.t

type t = {
  backing : backing;
  counters : Bytes.t; (* rows * width nibbles, two per byte *)
  rows : int;
  width : int;
  sample : int;
  always_admit : bool;
  mutable touches : int;
  mutable halvings : int;
  mutable admitted : int;
  mutable denied : int;
}

let backing_slots = function
  | Table c -> Cache.slots c
  | Assoc c -> Assoc_cache.slots c

let next_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

let create ?(rows = 4) ?width ?sample ?(always_admit = false) backing =
  if rows <= 0 then invalid_arg "Tinylfu.create: rows must be positive";
  let slots = backing_slots backing in
  (* Default sketch: ~4 counters per cached line per row (the classic
     "sketch much larger than the cache" sizing), floor 16 so tiny
     caches still discriminate. *)
  let width =
    match width with
    | Some w ->
        if w <= 0 then invalid_arg "Tinylfu.create: width must be positive";
        w
    | None -> next_pow2 (max 16 (4 * slots))
  in
  let sample =
    match sample with
    | Some s ->
        if s <= 0 then invalid_arg "Tinylfu.create: sample must be positive";
        s
    | None -> max 64 (10 * slots)
  in
  {
    backing;
    counters = Bytes.make ((rows * width + 1) / 2) '\000';
    rows;
    width;
    sample;
    always_admit;
    touches = 0;
    halvings = 0;
    admitted = 0;
    denied = 0;
  }

let rows t = t.rows
let width t = t.width
let sample_period t = t.sample
let always_admit t = t.always_admit

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
let touch t v =
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

let lookup t vip =
  touch t (Vip.to_int vip);
  match t.backing with
  | Table c -> Cache.lookup c vip
  | Assoc c -> Assoc_cache.lookup c vip

let peek t vip =
  match t.backing with
  | Table c -> Cache.peek c vip
  | Assoc c -> Assoc_cache.peek c vip

let victim_key t vip =
  match t.backing with
  | Table c -> Cache.victim_key c vip
  | Assoc c -> Assoc_cache.victim_key c vip

let insert t ~admission vip pip =
  let v = Vip.to_int vip in
  touch t v;
  let victim = victim_key t vip in
  (* Inserts that update or fill an empty line bypass the filter —
     admission only arbitrates evictions, as in TinyLFU. *)
  let admit =
    t.always_admit || victim < 0 || estimate t v > estimate t victim
  in
  if not admit then begin
    t.denied <- t.denied + 1;
    Cache.ins_rejected
  end
  else begin
    t.admitted <- t.admitted + 1;
    match t.backing with
    | Table c -> Cache.insert c ~admission vip pip
    | Assoc c ->
        (* The LRU backing's evictions are not reported (no spillover
           rider from this geometry, and no eviction counters). *)
        let r = Assoc_cache.insert c vip pip in
        if r >= 0 then Cache.ins_fresh else r
  end

let evicted_pip t =
  match t.backing with
  | Table c -> Cache.evicted_pip c
  | Assoc c -> Assoc_cache.evicted_pip c

let invalidate t vip ~stale =
  match t.backing with
  | Table c -> Cache.invalidate c vip ~stale
  | Assoc _ -> false

let clear t =
  (match t.backing with
  | Table c -> Cache.clear c
  | Assoc _ -> ());
  (* The sketch is data-plane register state: a reboot loses it too. *)
  Bytes.fill t.counters 0 (Bytes.length t.counters) '\000';
  t.touches <- 0

let slots t = backing_slots t.backing

let occupancy t =
  match t.backing with
  | Table c -> Cache.occupancy c
  | Assoc c -> Assoc_cache.occupancy c

let hits t =
  match t.backing with
  | Table c -> Cache.hits c
  | Assoc c -> Assoc_cache.hits c

let misses t =
  match t.backing with
  | Table c -> Cache.misses c
  | Assoc c -> Assoc_cache.misses c

let insertions t =
  match t.backing with
  | Table c -> Cache.insertions c
  | Assoc _ -> 0

let evictions t =
  match t.backing with
  | Table c -> Cache.evictions c
  | Assoc _ -> 0

(* Admission rejections: the sketch's denials plus whatever the
   backing's own policy turned away after the filter admitted. *)
let rejections t =
  t.denied
  +
  match t.backing with
  | Table c -> Cache.rejections c
  | Assoc _ -> 0

let admitted t = t.admitted
let denied t = t.denied
let halvings t = t.halvings
