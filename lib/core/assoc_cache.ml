module Vip = Netcore.Addr.Vip
module Pip = Netcore.Addr.Pip

type line = { mutable key : int; mutable value : int; mutable stamp : int }

type t = {
  sets : line array array;
  ways : int;
  n : int;
  mutable clock : int;
  mutable occupancy : int;
  mutable hits : int;
  mutable misses : int;
}

let create ~ways ~slots =
  if ways <= 0 then invalid_arg "Assoc_cache.create: ways must be positive";
  if slots < 0 then invalid_arg "Assoc_cache.create: negative slots";
  if slots mod ways <> 0 then
    invalid_arg "Assoc_cache.create: ways must divide slots";
  let num_sets = slots / ways in
  {
    sets =
      Array.init num_sets (fun _ ->
          Array.init ways (fun _ -> { key = -1; value = -1; stamp = 0 }));
    ways;
    n = slots;
    clock = 0;
    occupancy = 0;
    hits = 0;
    misses = 0;
  }

let slots t = t.n
let ways t = t.ways

(* Same hash as the direct-mapped cache, for comparability. *)
let set_of t vip = Cache.mix (Vip.to_int vip) mod Array.length t.sets

let tick t =
  t.clock <- t.clock + 1;
  t.clock

let miss = -1
let hit_pip h = Pip.of_int h

let lookup t vip =
  if t.n = 0 then begin
    t.misses <- t.misses + 1;
    miss
  end
  else begin
    let set = t.sets.(set_of t vip) in
    let k = Vip.to_int vip in
    let rec find i =
      if i >= t.ways then miss
      else if set.(i).key = k then begin
        let line = set.(i) in
        t.hits <- t.hits + 1;
        line.stamp <- tick t;
        line.value
      end
      else find (i + 1)
    in
    let r = find 0 in
    if r = miss then t.misses <- t.misses + 1;
    r
  end

let insert t vip pip =
  if t.n = 0 then Cache.ins_rejected
  else begin
    let set = t.sets.(set_of t vip) in
    let k = Vip.to_int vip in
    (* Existing key, else an empty line, else the LRU victim. *)
    let target = ref set.(0) in
    let found = ref false in
    Array.iter (fun l -> if l.key = k then begin target := l; found := true end) set;
    let result =
      if !found then Cache.ins_updated
      else
        let empty = Array.fold_left (fun acc l -> if acc = None && l.key < 0 then Some l else acc) None set in
        match empty with
        | Some l ->
            target := l;
            t.occupancy <- t.occupancy + 1;
            Cache.ins_fresh
        | None ->
            Array.iter (fun l -> if l.stamp < !target.stamp then target := l) set;
            !target.key
    in
    !target.key <- k;
    !target.value <- Pip.to_int pip;
    !target.stamp <- tick t;
    result
  end

let occupancy t = t.occupancy
let hits t = t.hits
let misses t = t.misses
