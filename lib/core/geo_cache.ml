(* The dataplane's per-switch cache: the access-bit table, bare or
   behind a TinyLFU admission filter. One branch-only variant match
   per operation, so [Dataplane] selects the organization from
   [Config.ways] / [Config.tinylfu] without allocating on the per-hop
   path. Both arms share [Cache]'s int-packed conventions: [Cache.miss]
   / [hit_pip] / [hit_bit] for lookups, [Cache.ins_*] codes or an
   evicted VIP for inserts. *)

type t = Plain of Cache.t | Lfu of { filter : Tinylfu.t; table : Cache.t }

let create ~ways ~tinylfu ~slots =
  (* Round the share down to a multiple of [ways], as the partitioner's
     slot counts carry no divisibility guarantee. *)
  let table = Cache.create ~ways ~slots:(slots - (slots mod ways)) in
  if tinylfu then Lfu { filter = Tinylfu.create (Tinylfu.Table table); table }
  else Plain table

let table (Plain c | Lfu { table = c; _ }) = c

let lookup t vip =
  match t with
  | Plain c -> Cache.lookup c vip
  | Lfu l -> Tinylfu.lookup l.filter vip

let insert t ~admission vip pip =
  match t with
  | Plain c -> Cache.insert c ~admission vip pip
  | Lfu l -> Tinylfu.insert l.filter ~admission vip pip

let invalidate t vip ~stale = Cache.invalidate (table t) vip ~stale

let clear t =
  match t with
  | Plain c -> Cache.clear c
  | Lfu l -> Tinylfu.clear l.filter

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
  | Lfu l -> Tinylfu.rejections l.filter
