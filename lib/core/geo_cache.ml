(* Geometry dispatcher for the dataplane's per-switch caches: one
   branch-only variant match in front of the concrete cache modules,
   so [Dataplane] selects an organization from [Config.geometry]
   without allocating on the per-hop path. All arms share [Cache]'s
   int-packed conventions: [Cache.miss] / [hit_pip] / [hit_bit] for
   lookups, [Cache.ins_*] codes or an evicted VIP for inserts. *)

type t = Direct of Cache.t | Dleft of Dleft.t | Lfu of Tinylfu.t

let create (geometry : Config.geometry) ~tinylfu ~slots =
  match geometry with
  | Config.Geo_direct ->
      let c = Cache.create ~slots in
      if tinylfu then Lfu (Tinylfu.create (Tinylfu.Direct c)) else Direct c
  | Config.Geo_dleft d ->
      (* Round the share down to a multiple of d, as the partitioner's
         slot counts carry no divisibility guarantee. *)
      let c = Dleft.create ~d ~slots:(slots - (slots mod d)) in
      if tinylfu then Lfu (Tinylfu.create (Tinylfu.Dleft c)) else Dleft c

let lookup t vip =
  match t with
  | Direct c -> Cache.lookup c vip
  | Dleft c -> Dleft.lookup c vip
  | Lfu c -> Tinylfu.lookup c vip

let insert t ~admission vip pip =
  match t with
  | Direct c -> Cache.insert c ~admission vip pip
  | Dleft c -> Dleft.insert c ~admission vip pip
  | Lfu c -> Tinylfu.insert c ~admission vip pip

let evicted_pip t =
  match t with
  | Direct c -> Cache.evicted_pip c
  | Dleft c -> Dleft.evicted_pip c
  | Lfu c -> Tinylfu.evicted_pip c

let invalidate t vip ~stale =
  match t with
  | Direct c -> Cache.invalidate c vip ~stale
  | Dleft c -> Dleft.invalidate c vip ~stale
  | Lfu c -> Tinylfu.invalidate c vip ~stale

let peek t vip =
  match t with
  | Direct c -> Cache.peek c vip
  | Dleft c -> Dleft.peek c vip
  | Lfu c -> Tinylfu.peek c vip

let clear t =
  match t with
  | Direct c -> Cache.clear c
  | Dleft c -> Dleft.clear c
  | Lfu c -> Tinylfu.clear c

let slots t =
  match t with
  | Direct c -> Cache.slots c
  | Dleft c -> Dleft.slots c
  | Lfu c -> Tinylfu.slots c

let occupancy t =
  match t with
  | Direct c -> Cache.occupancy c
  | Dleft c -> Dleft.occupancy c
  | Lfu c -> Tinylfu.occupancy c

let hits t =
  match t with
  | Direct c -> Cache.hits c
  | Dleft c -> Dleft.hits c
  | Lfu c -> Tinylfu.hits c

let misses t =
  match t with
  | Direct c -> Cache.misses c
  | Dleft c -> Dleft.misses c
  | Lfu c -> Tinylfu.misses c

let insertions t =
  match t with
  | Direct c -> Cache.insertions c
  | Dleft c -> Dleft.insertions c
  | Lfu c -> Tinylfu.insertions c

let evictions t =
  match t with
  | Direct c -> Cache.evictions c
  | Dleft c -> Dleft.evictions c
  | Lfu c -> Tinylfu.evictions c

let rejections t =
  match t with
  | Direct c -> Cache.rejections c
  | Dleft c -> Dleft.rejections c
  | Lfu c -> Tinylfu.rejections c

let direct_exn t =
  match t with
  | Direct c -> c
  | Lfu l -> (
      match Tinylfu.backing l with
      | Tinylfu.Direct c -> c
      | Tinylfu.Dleft _ | Tinylfu.Assoc _ ->
          invalid_arg "Geo_cache.direct_exn: d-left/assoc-backed cache")
  | Dleft _ -> invalid_arg "Geo_cache.direct_exn: d-left cache"
