(* Tests for the cache-geometry frontier's organizations beyond the
   paper's one-way table: the multi-way (d-left) access-bit table, the
   TinyLFU admission filter and the Geo_cache wrapper that runs it.

   The load-bearing properties:
   - differential model checks: every geometry agrees with a reference
     model on randomized op sequences (insert codes and victims, cached
     values never stale, occupancy follows the insert/invalidate
     ledger, hit + miss counters account for every lookup);
   - count-min sketch invariants: estimates never undercount (within a
     sample period) and saturate at 15. *)

module Cache = Switchv2p.Cache
module Tinylfu = Switchv2p.Tinylfu
module Geo = Switchv2p.Geo_cache
module Config = Switchv2p.Config
module Vip = Netcore.Addr.Vip
module Pip = Netcore.Addr.Pip

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let vip = Vip.of_int
let pip = Pip.of_int

(* --- Multi-way (d-left) table unit tests --- *)

let test_dleft_create_validation () =
  Alcotest.check_raises "zero ways"
    (Invalid_argument "Cache.create: ways must be positive") (fun () ->
      ignore (Cache.create ~ways:0 ~slots:8));
  Alcotest.check_raises "ways must divide"
    (Invalid_argument "Cache.create: ways must divide slots") (fun () ->
      ignore (Cache.create ~ways:3 ~slots:8));
  Alcotest.check_raises "negative slots"
    (Invalid_argument "Cache.create: negative slots") (fun () ->
      ignore (Cache.create ~ways:2 ~slots:(-2)))

let test_dleft_lookup_after_insert () =
  let c = Cache.create ~ways:4 ~slots:64 in
  checki "expected clean insert" Cache.ins_fresh
    (Cache.insert c ~admission:`All (vip 1) (pip 10));
  let r = Cache.lookup c (vip 1) in
  checkb "hit" true (r <> Cache.miss);
  checki "value" 10 (Pip.to_int (Cache.hit_pip r));
  checkb "fresh entry bit clear" false (Cache.hit_bit r);
  let r2 = Cache.lookup c (vip 1) in
  checkb "second hit sees bit" true (Cache.hit_bit r2);
  checki "hits" 2 (Cache.hits c);
  checki "ways" 4 (Cache.ways c);
  checki "slots" 64 (Cache.slots c)

(* Every way fills before anything is evicted; once all are full and
   every access bit is set, `All still admits, evicting way 0's
   occupant. A lookup clears the bits of the ways it probes before its
   hit, so the keys are touched from the last way back to way 0. *)
let test_dleft_fills_ways_before_evicting () =
  let ways = 3 and sub = 8 in
  let c = Cache.create ~ways ~slots:(ways * sub) in
  let ks = Collide.keys ~ways ~sub ways in
  let fills = List.filteri (fun i _ -> i < ways - 1) ks in
  let v2 = List.nth ks (ways - 1) in
  ignore (Cache.insert c ~admission:`All (vip 0) (pip 10));
  List.iter
    (fun k ->
      checki "expected empty-way fill" Cache.ins_fresh
        (Cache.insert c ~admission:`All (vip k) (pip k)))
    fills;
  checki "all ways occupied" ways (Cache.occupancy c);
  List.iter
    (fun k -> checkb "resident" true (Cache.peek c (vip k) <> None))
    (0 :: fills);
  List.iter (fun k -> ignore (Cache.lookup c (vip k))) (List.rev (0 :: fills));
  checkb "every bit set" true
    (List.for_all (fun k -> Cache.access_bit c (vip k) = Some true) (0 :: fills));
  checki "evicted key" 0 (Cache.insert c ~admission:`All (vip v2) (pip 20));
  checki "evicted value" 10 (Pip.to_int (Cache.evicted_pip c));
  checkb "old gone" true (Cache.peek c (vip 0) = None);
  checkb "new present" true (Cache.peek c (vip v2) <> None)

let test_dleft_admission_and_victims () =
  let ways = 2 and sub = 8 in
  let c = Cache.create ~ways ~slots:(ways * sub) in
  let ks = Collide.keys ~ways ~sub 3 in
  let k0 = List.nth ks 0 and k1 = List.nth ks 1 and k2 = List.nth ks 2 in
  ignore (Cache.insert c ~admission:`All (vip k0) (pip 1));
  ignore (Cache.insert c ~admission:`All (vip k1) (pip 2));
  (* Both access bits set: conservative admission must reject. Order
     matters — k1's lookup probes (and conflict-clears) k0's way-0
     line on the way to way 1, so touch k1 first, then k0, whose
     lookup stops at way 0. *)
  ignore (Cache.lookup c (vip k1));
  ignore (Cache.lookup c (vip k0));
  checkb "A-bit-clear rejects when all set" true
    (Cache.insert c ~admission:`A_bit_clear (vip k2) (pip 3) = Cache.ins_rejected);
  checki "rejection counted" 1 (Cache.rejections c);
  (* `All falls back to way 0's occupant; victim_key agrees with the
     eviction the insert then reports. *)
  let victim = Cache.victim_key c (vip k2) in
  checkb "victim is a resident collider" true (victim = k0 || victim = k1);
  checki "victim_key predicted the eviction" victim
    (Cache.insert c ~admission:`All (vip k2) (pip 3));
  checki "evicted PIP is the victim's" (if victim = k0 then 1 else 2)
    (Pip.to_int (Cache.evicted_pip c));
  checkb "no victim for resident key" true (Cache.victim_key c (vip k2) = -1)

let test_dleft_invalidate_and_clear () =
  let c = Cache.create ~ways:2 ~slots:16 in
  ignore (Cache.insert c ~admission:`All (vip 1) (pip 10));
  checkb "wrong stale keeps entry" false
    (Cache.invalidate c (vip 1) ~stale:(pip 99));
  checkb "matching stale removes" true
    (Cache.invalidate c (vip 1) ~stale:(pip 10));
  checki "occupancy" 0 (Cache.occupancy c);
  ignore (Cache.insert c ~admission:`All (vip 2) (pip 20));
  Cache.clear c;
  checki "cleared" 0 (Cache.occupancy c);
  checki "counters preserved" 2 (Cache.insertions c)

let test_dleft_zero_slots () =
  let c = Cache.create ~ways:4 ~slots:0 in
  checkb "always miss" true (Cache.lookup c (vip 1) = Cache.miss);
  checkb "insert rejected" true
    (Cache.insert c ~admission:`All (vip 1) (pip 1) = Cache.ins_rejected);
  checkb "no victim" true (Cache.victim_key c (vip 1) = -1)

(* --- Differential model tests --- *)

(* Reference model: the ground-truth mapping table plus an explicit
   ledger of what each insert/invalidate result implies. For every
   geometry and any op sequence:
   - a cached value is never stale (peek agrees with the last insert
     for that key);
   - occupancy tracks the ledger (+1 clean insert, -1 eviction or
     invalidation) and never exceeds capacity;
   - every lookup lands in exactly one of hits/misses;
   - insertions/evictions/rejections count exactly the results that
     reported them. *)
(* The model is the ground-truth mapping table (a Hashtbl) plus an
   explicit ledger derived from each result; the check pins the exact
   occupancy/counter arithmetic alongside value freshness. *)
let differential_ledger geo_name make =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s ledger invariants" geo_name)
    ~count:200
    QCheck.(
      list
        (pair (int_bound 2) (pair bool (pair (int_bound 60) (int_bound 1000)))))
    (fun ops ->
      let c : Geo.t = make () in
      let truth : (int, int) Hashtbl.t = Hashtbl.create 64 in
      let occ = ref (Geo.occupancy c) in
      let ins = ref (Geo.insertions c)
      and evs = ref (Geo.evictions c)
      and rejs = ref (Geo.rejections c) in
      let lookups = ref 0 in
      let hits0 = Geo.hits c and misses0 = Geo.misses c in
      let ok = ref true in
      List.iter
        (fun (op, (flag, (k, v))) ->
          match op with
          | 0 -> begin
              Hashtbl.replace truth k v;
              let admission = if flag then `All else `A_bit_clear in
              let r = Geo.insert c ~admission (vip k) (pip v) in
              if r = Cache.ins_fresh then begin
                incr occ;
                incr ins
              end
              else if r >= 0 then begin
                incr ins;
                incr evs;
                (* the evicted key is gone *)
                if Geo.peek c (vip r) <> None then ok := r = k
              end
              else if r = Cache.ins_rejected then incr rejs
              else if r <> Cache.ins_updated then ok := false;
              if Geo.occupancy c <> !occ then ok := false
            end
          | 1 ->
              incr lookups;
              let r = Geo.lookup c (vip k) in
              if r <> Cache.miss then begin
                match Hashtbl.find_opt truth k with
                | Some tv -> if Pip.to_int (Cache.hit_pip r) <> tv then ok := false
                | None -> ok := false
              end
          | _ ->
              let removed = Geo.invalidate c (vip k) ~stale:(pip v) in
              if removed then begin
                decr occ;
                if Hashtbl.find_opt truth k <> Some v then ok := false
              end;
              if Geo.occupancy c <> !occ then ok := false)
        ops;
      !ok
      && Geo.occupancy c = !occ
      && Geo.occupancy c <= Geo.slots c
      && Geo.insertions c = !ins
      && Geo.evictions c = !evs
      && Geo.rejections c >= !rejs
      && Geo.hits c - hits0 + (Geo.misses c - misses0) = !lookups)

(* --- Int-packed insert against a reference model --- *)

(* Reference model of one cache geometry, written from the documented
   semantics rather than the implementations: [lines v] lists the lines
   key [v] may occupy, in probe order. [lru = false] is the
   access-bit table (direct-mapped = one way, d-left = d ways): a hit
   sets the line's bit, a probed non-matching occupant loses it, and a
   full bucket evicts the first clear-bit line ([`All] falls back to
   the first line, [`A_bit_clear] rejects). [lru = true] is the
   set-associative LRU table, which keeps no insertion/eviction
   counters. *)
type model = {
  lines : int -> int list;
  lru : bool;
  keys : int array;
  vals : int array;
  bits : bool array;
  stamps : int array;
  mutable clock : int;
  mutable occ : int;
  mutable ins : int;
  mutable evs : int;
  mutable rejs : int;
}

let model_create ~lru ~slots lines =
  {
    lines;
    lru;
    keys = Array.make slots (-1);
    vals = Array.make slots (-1);
    bits = Array.make slots false;
    stamps = Array.make slots 0;
    clock = 0;
    occ = 0;
    ins = 0;
    evs = 0;
    rejs = 0;
  }

let table_model ~ways ~slots =
  let sub = slots / ways in
  model_create ~lru:false ~slots (fun v ->
      List.init ways (fun w -> (w * sub) + (Cache.mix (v lxor (w * 0x27220A95)) mod sub)))

let lru_model ~ways ~slots =
  model_create ~lru:true ~slots (fun v ->
      let set = Cache.mix v mod (slots / ways) in
      List.init ways (fun i -> (set * ways) + i))

let tick m =
  m.clock <- m.clock + 1;
  m.clock

let model_lookup m v =
  let rec go = function
    | [] -> Cache.miss
    | l :: rest ->
        if m.keys.(l) = v then
          if m.lru then begin
            m.stamps.(l) <- tick m;
            m.vals.(l)
          end
          else begin
            let was = if m.bits.(l) then 1 else 0 in
            m.bits.(l) <- true;
            (m.vals.(l) lsl 1) lor was
          end
        else begin
          if (not m.lru) && m.keys.(l) >= 0 then m.bits.(l) <- false;
          go rest
        end
  in
  go (m.lines v)

(* The line an insert of [v] would overwrite under [admission], and
   whether it is an eviction; [None] = rejected. *)
let model_target m ~admission v =
  let ls = m.lines v in
  match List.find_opt (fun l -> m.keys.(l) = v) ls with
  | Some l -> Some (`Update l)
  | None -> (
      match List.find_opt (fun l -> m.keys.(l) < 0) ls with
      | Some l -> Some (`Fill l)
      | None ->
          if m.lru then
            Some
              (`Evict
                (List.fold_left
                   (fun a l -> if m.stamps.(l) < m.stamps.(a) then l else a)
                   (List.hd ls) ls))
          else
            match List.find_opt (fun l -> not m.bits.(l)) ls with
            | Some l -> Some (`Evict l)
            | None -> (
                match admission with
                | `All -> Some (`Evict (List.hd ls))
                | `A_bit_clear -> None))

let model_victim m v =
  match model_target m ~admission:`All v with
  | Some (`Evict l) -> m.keys.(l)
  | Some (`Update _ | `Fill _) | None -> -1

(* Returns the expected (code, evicted pip or -1). *)
let model_insert m ~admission v p =
  let write l =
    m.keys.(l) <- v;
    m.vals.(l) <- p;
    m.bits.(l) <- false;
    m.stamps.(l) <- tick m
  in
  match model_target m ~admission v with
  | None ->
      m.rejs <- m.rejs + 1;
      (Cache.ins_rejected, -1)
  | Some (`Update l) ->
      m.vals.(l) <- p;
      if m.lru then m.stamps.(l) <- tick m;
      (Cache.ins_updated, -1)
  | Some (`Fill l) ->
      write l;
      m.occ <- m.occ + 1;
      if not m.lru then m.ins <- m.ins + 1;
      (Cache.ins_fresh, -1)
  | Some (`Evict l) ->
      let ev = (m.keys.(l), m.vals.(l)) in
      write l;
      if not m.lru then begin
        m.ins <- m.ins + 1;
        m.evs <- m.evs + 1
      end;
      ev

let model_invalidate m v ~stale =
  (not m.lru)
  &&
  match List.find_opt (fun l -> m.keys.(l) = v) (m.lines v) with
  | Some l when m.vals.(l) = stale ->
      m.keys.(l) <- -1;
      m.vals.(l) <- -1;
      m.bits.(l) <- false;
      m.occ <- m.occ - 1;
      true
  | Some _ | None -> false

(* A cache under test, seen through the operations the model checks.
   [table] is the access-bit table (its victim probe and evicted PIP
   are checked too); [sketch] the TinyLFU filter in front of it. *)
type sut = {
  insert : admission:Cache.admission -> int -> int -> int;
  lookup : int -> int;
  invalidate : int -> stale:int -> bool;
  counters : unit -> int * int * int * int;
      (* occupancy, insertions, evictions, rejections *)
  table : Cache.t option;
  sketch : Tinylfu.t option;
}

let geo_sut (c : Geo.t) =
  {
    insert = (fun ~admission v p -> Geo.insert c ~admission (vip v) (pip p));
    lookup = (fun v -> Geo.lookup c (vip v));
    invalidate = (fun v ~stale -> Geo.invalidate c (vip v) ~stale:(pip stale));
    counters =
      (fun () ->
        (Geo.occupancy c, Geo.insertions c, Geo.evictions c, Geo.rejections c));
    table = Some (Geo.table c);
    sketch = (match c with Geo.Lfu { sketch; _ } -> Some sketch | Geo.Plain _ -> None);
  }

let assoc_sut (c : Switchv2p.Assoc_cache.t) =
  let module Assoc = Switchv2p.Assoc_cache in
  {
    insert = (fun ~admission:_ v p -> Assoc.insert c (vip v) (pip p));
    lookup = (fun v -> Assoc.lookup c (vip v));
    invalidate = (fun _ ~stale:_ -> false) (* no invalidation in LRU *);
    counters = (fun () -> (Assoc.occupancy c, 0, 0, 0));
    table = None;
    sketch = None;
  }

(* Every insert's code, its evicted (VIP, PIP) pair and the occupancy,
   insertion, eviction and rejection counters agree with the model on
   random op streams; lookups and invalidations keep the two in step.
   Under TinyLFU the model decides admission from the filter's own
   sketch estimates (read after the insert, which is when the filter
   compared them: the insert's only sketch update precedes the
   comparison) and its own victim. *)
let insert_model_qcheck name (make : unit -> sut * model) =
  QCheck.Test.make
    ~name:(Printf.sprintf "int-packed insert agrees with model: %s" name)
    ~count:300
    QCheck.(
      list
        (pair (int_bound 2) (pair bool (pair (int_bound 40) (int_bound 1000)))))
    (fun ops ->
      let c, m = make () in
      List.for_all
        (fun (op, (flag, (k, v))) ->
          let agree =
            match op with
            | 0 ->
                let admission = if flag then `All else `A_bit_clear in
                let victim = model_victim m k in
                let probed =
                  match c.table with
                  | Some t -> Cache.victim_key t (vip k) = victim
                  | None -> true
                in
                let code = c.insert ~admission k v in
                let admit =
                  match c.sketch with
                  | None -> true
                  | Some s ->
                      victim < 0
                      || Tinylfu.estimate_vip s (vip k) > Tinylfu.estimate_vip s (vip victim)
                in
                let want_code, want_pip =
                  if admit then model_insert m ~admission k v
                  else begin
                    m.rejs <- m.rejs + 1;
                    (Cache.ins_rejected, -1)
                  end
                in
                probed && code = want_code
                &&
                (match c.table with
                | Some t when code >= 0 -> Pip.to_int (Cache.evicted_pip t) = want_pip
                | _ -> true)
            | 1 -> c.lookup k = model_lookup m k
            | _ -> c.invalidate k ~stale:v = model_invalidate m k ~stale:v
          in
          agree && c.counters () = (m.occ, m.ins, m.evs, m.rejs))
        ops)

let model_cases =
  let slots = 16 in
  List.concat_map
    (fun ways ->
      List.map
        (fun tinylfu ->
          ( Printf.sprintf "%d-way%s" ways (if tinylfu then "+tinylfu" else ""),
            fun () ->
              ( geo_sut (Geo.create ~ways ~tinylfu ~slots),
                table_model ~ways ~slots ) ))
        [ false; true ])
    [ 1; 2; 4 ]
  @ [
      ( "assoc4",
        fun () ->
          ( assoc_sut (Switchv2p.Assoc_cache.create ~ways:4 ~slots),
            lru_model ~ways:4 ~slots ) );
    ]

let geo_direct () = Geo.create ~ways:1 ~tinylfu:false ~slots:16
let geo_dleft2 () = Geo.create ~ways:2 ~tinylfu:false ~slots:16
let geo_dleft4 () = Geo.create ~ways:4 ~tinylfu:false ~slots:16
let geo_direct_lfu () = Geo.create ~ways:1 ~tinylfu:true ~slots:16
let geo_dleft_lfu () = Geo.create ~ways:2 ~tinylfu:true ~slots:16

(* --- TinyLFU sketch invariants --- *)

(* A one-way, 8-line table behind the filter: the default sample
   period is then max 64 (10 * 8) = 80 touches. *)
let lfu8 () = Geo.create ~ways:1 ~tinylfu:true ~slots:8

let sketch_of = function
  | Geo.Lfu { sketch; _ } -> sketch
  | Geo.Plain _ -> Alcotest.fail "expected a TinyLFU cache"

let test_sketch_never_undercounts () =
  (* Within one sample period, count-min estimates are upper bounds:
     touching a key k times reads back at least min(k, 15). *)
  let c = lfu8 () in
  let t = sketch_of c in
  for k = 1 to 30 do
    ignore (Geo.lookup c (vip 7));
    let e = Tinylfu.estimate_vip t (vip 7) in
    checkb "estimate >= true count (sat 15)" true (e >= min k 15);
    checkb "estimate <= 15" true (e <= 15)
  done

let test_sketch_halving () =
  let c = lfu8 () in
  let t = sketch_of c in
  for _ = 1 to 79 do
    ignore (Geo.lookup c (vip 3))
  done;
  checki "no halving yet" 0 (Tinylfu.halvings t);
  let before = Tinylfu.estimate_vip t (vip 3) in
  ignore (Geo.lookup c (vip 3));
  (* 80th touch triggers the halving *)
  checki "one halving" 1 (Tinylfu.halvings t);
  checkb "estimate halved" true
    (Tinylfu.estimate_vip t (vip 3) <= (before + 1) / 2)

let test_lfu_admission_filters_cold_candidate () =
  (* 43 touches in all: well inside one sample period. *)
  let slots = 8 in
  let c = lfu8 () in
  (* Find two keys sharing a slot so the second insert needs eviction. *)
  let k0 = 0 in
  let rec collider v =
    if v > 100_000 then Alcotest.fail "no collision"
    else if
      Cache.mix v mod slots = Cache.mix k0 mod slots && v <> k0
    then v
    else collider (v + 1)
  in
  let k1 = collider 1 in
  ignore (Geo.insert c ~admission:`All (vip k0) (pip 1));
  (* Make k0 hot. *)
  for _ = 1 to 10 do
    ignore (Geo.lookup c (vip k0))
  done;
  (* Cold k1 must be denied: its estimate cannot exceed hot k0's. *)
  checkb "cold candidate denied" true
    (Geo.insert c ~admission:`All (vip k1) (pip 2) = Cache.ins_rejected);
  checki "denied counted" 1 (Tinylfu.denied (sketch_of c));
  checki "denial is a rejection" 1 (Geo.rejections c);
  checkb "occupant survives" true (Geo.peek c (vip k0) <> None);
  (* Now make k1 hotter than k0 and retry: admitted. *)
  for _ = 1 to 30 do
    ignore (Geo.lookup c (vip k1))
  done;
  checki "hot candidate admitted, evicting the cold key" k0
    (Geo.insert c ~admission:`All (vip k1) (pip 2));
  checki "evicted PIP" 1 (Pip.to_int (Geo.evicted_pip c));
  checkb "new entry resident" true (Geo.peek c (vip k1) <> None)

let test_lfu_update_and_empty_bypass_filter () =
  let c = lfu8 () in
  (* Empty-line fills never consult the filter... *)
  checki "expected fill" Cache.ins_fresh
    (Geo.insert c ~admission:`All (vip 1) (pip 1));
  (* ...nor do updates of a resident key. *)
  checki "expected update" Cache.ins_updated
    (Geo.insert c ~admission:`All (vip 1) (pip 2));
  checki "nothing denied" 0 (Tinylfu.denied (sketch_of c))

(* --- Geo_cache --- *)

let test_geo_dispatch_shapes () =
  let d = Geo.create ~ways:1 ~tinylfu:false ~slots:10 in
  checki "one way keeps slots" 10 (Geo.slots d);
  let l = Geo.create ~ways:4 ~tinylfu:false ~slots:10 in
  checki "4 ways round to a multiple of 4" 8 (Geo.slots l);
  let lfu = Geo.create ~ways:2 ~tinylfu:true ~slots:10 in
  checki "wrapped 2-way slots" 10 (Geo.slots lfu);
  (* The table under the filter is the one the filter fills. *)
  ignore (Geo.insert lfu ~admission:`All (vip 3) (pip 30));
  checki "filter's inserts land in the table" 1
    (Cache.occupancy (Geo.table lfu));
  checki "table has the rounded ways" 4 (Cache.ways (Geo.table l))

(* Dataplane.cache / cache_of_tenant return the table at every way
   count, so occupancy audits can inspect a d-left dataplane. *)
let test_dataplane_table_any_ways () =
  let topo =
    Topo.Topology.build
      (Topo.Params.scaled ~spines_per_pod:2 ~cores_per_group:1
         ~gateways_per_gateway_pod:1 ~pods:2 ~racks_per_pod:2 ~hosts_per_rack:2
         ~vms_per_host:2 ())
  in
  let switches = Topo.Topology.switches topo in
  let dp =
    Switchv2p.Dataplane.create (Config.make ~ways:4 ()) topo
      ~total_cache_slots:(16 * Array.length switches)
  in
  let sw = switches.(0) in
  List.iter
    (fun k ->
      ignore
        (Geo.insert (Switchv2p.Dataplane.geo_cache dp ~switch:sw) ~admission:`All
           (vip k) (pip k)))
    [ 1; 2; 3 ];
  let c = Switchv2p.Dataplane.cache dp ~switch:sw in
  checki "ways" 4 (Cache.ways c);
  checki "occupancy" 3 (Cache.occupancy c);
  checki "tenant 0 is the same table" 3
    (Cache.occupancy (Switchv2p.Dataplane.cache_of_tenant dp ~switch:sw ~tenant:0))

let test_geo_ops_roundtrip () =
  List.iter
    (fun make ->
      let c : Geo.t = make () in
      checki "expected clean insert" Cache.ins_fresh
        (Geo.insert c ~admission:`All (vip 5) (pip 50));
      let r = Geo.lookup c (vip 5) in
      checkb "hit" true (r <> Cache.miss);
      checki "value" 50 (Pip.to_int (Cache.hit_pip r));
      checkb "peek" true (Geo.peek c (vip 5) = Some (pip 50));
      Geo.clear c;
      checki "cleared" 0 (Geo.occupancy c))
    [ geo_direct; geo_dleft2; geo_dleft4; geo_direct_lfu; geo_dleft_lfu ]

let () =
  Alcotest.run "switchv2p-geometry"
    [
      ( "dleft",
        [
          Alcotest.test_case "create validation" `Quick
            test_dleft_create_validation;
          Alcotest.test_case "lookup after insert" `Quick
            test_dleft_lookup_after_insert;
          Alcotest.test_case "fills ways before evicting" `Quick
            test_dleft_fills_ways_before_evicting;
          Alcotest.test_case "admission and victims" `Quick
            test_dleft_admission_and_victims;
          Alcotest.test_case "invalidate and clear" `Quick
            test_dleft_invalidate_and_clear;
          Alcotest.test_case "zero slots" `Quick test_dleft_zero_slots;
        ] );
      ( "tinylfu",
        [
          Alcotest.test_case "sketch never undercounts" `Quick
            test_sketch_never_undercounts;
          Alcotest.test_case "sketch halving" `Quick test_sketch_halving;
          Alcotest.test_case "filters cold candidate" `Quick
            test_lfu_admission_filters_cold_candidate;
          Alcotest.test_case "update/empty bypass filter" `Quick
            test_lfu_update_and_empty_bypass_filter;
        ] );
      ( "differential",
        [
          QCheck_alcotest.to_alcotest (differential_ledger "direct" geo_direct);
          QCheck_alcotest.to_alcotest (differential_ledger "dleft2" geo_dleft2);
          QCheck_alcotest.to_alcotest (differential_ledger "dleft4" geo_dleft4);
          QCheck_alcotest.to_alcotest
            (differential_ledger "direct+tinylfu" geo_direct_lfu);
          QCheck_alcotest.to_alcotest
            (differential_ledger "dleft2+tinylfu" geo_dleft_lfu);
        ]
        @ List.map
            (fun (name, make) ->
              QCheck_alcotest.to_alcotest (insert_model_qcheck name make))
            model_cases );
      ( "geo_cache",
        [
          Alcotest.test_case "dispatch shapes" `Quick test_geo_dispatch_shapes;
          Alcotest.test_case "ops roundtrip" `Quick test_geo_ops_roundtrip;
          Alcotest.test_case "4-way dataplane exposes its tables" `Quick
            test_dataplane_table_any_ways;
        ] );
    ]
