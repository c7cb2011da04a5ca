(* The dataplane's per-switch cache: the access-bit table, bare or
   behind a TinyLFU admission filter. One branch-only variant match
   per operation, so [Dataplane] selects the organization from
   [Config.ways] / [Config.tinylfu] without allocating on the per-hop
   path. Both arms share [Cache]'s int-packed conventions: [Cache.miss]
   / [hit_pip] / [hit_bit] for lookups, [Cache.ins_*] codes or an
   evicted VIP for inserts. *)

type t = Plain of Cache.t | Lfu of { sketch : Tinylfu.t; table : Cache.t }

let create ~ways ~tinylfu ~slots =
  (* Round the share down to a multiple of [ways], as the partitioner's
     slot counts carry no divisibility guarantee. *)
  let table = Cache.create ~ways ~slots:(slots - (slots mod ways)) in
  if tinylfu then Lfu { sketch = Tinylfu.create ~slots:(Cache.slots table); table }
  else Plain table

let table (Plain c | Lfu { table = c; _ }) = c

let lookup t vip =
  match t with
  | Plain c -> Cache.lookup c vip
  | Lfu l ->
      Tinylfu.touch l.sketch vip;
      Cache.lookup l.table vip

(* The filter counts the candidate, then weighs it against the line
   the insert would overwrite; a denial leaves the table untouched. *)
let insert t ~admission vip pip =
  match t with
  | Plain c -> Cache.insert c ~admission vip pip
  | Lfu l ->
      Tinylfu.touch l.sketch vip;
      if Tinylfu.admit l.sketch vip ~victim:(Cache.victim_key l.table vip) then
        Cache.insert l.table ~admission vip pip
      else Cache.ins_rejected

let invalidate t vip ~stale = Cache.invalidate (table t) vip ~stale

let clear t =
  match t with
  | Plain c -> Cache.clear c
  | Lfu l ->
      Cache.clear l.table;
      Tinylfu.clear l.sketch

let evicted_pip t = Cache.evicted_pip (table t)
let peek t vip = Cache.peek (table t) vip
let slots t = Cache.slots (table t)
let occupancy t = Cache.occupancy (table t)
let hits t = Cache.hits (table t)
let misses t = Cache.misses (table t)
let insertions t = Cache.insertions (table t)
let evictions t = Cache.evictions (table t)

(* The filter's denials count as rejections too. *)
let rejections t =
  match t with
  | Plain c -> Cache.rejections c
  | Lfu l -> Tinylfu.denied l.sketch + Cache.rejections l.table
