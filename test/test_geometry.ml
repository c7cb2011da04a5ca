(* Tests for the cache-geometry frontier's organizations beyond the
   paper's one-way table: the multi-way (d-left) access-bit table, the
   TinyLFU admission front end and the Geo_cache wrapper.

   The load-bearing properties:
   - degenerate equivalence: an always-admit TinyLFU wrapper IS its
     backing — byte-for-byte on hit/miss/eviction sequences, packed
     lookup encodings and counters;
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

(* --- Degenerate equivalence: always-admit TinyLFU IS its backing --- *)

(* The sketch still counts, but never vetoes: every operation must
   delegate unchanged. Run the same ops through a bare cache and a
   wrapped twin and compare everything observable. *)
let lfu_always_admit_equiv_direct_qcheck =
  QCheck.Test.make ~name:"always-admit TinyLFU equals direct backing"
    ~count:300
    QCheck.(
      list
        (pair (int_bound 2) (pair bool (pair (int_bound 200) (int_bound 1000)))))
    (fun ops ->
      let slots = 16 in
      let bare = Cache.create ~ways:1 ~slots in
      let wrapped =
        Tinylfu.create ~always_admit:true (Tinylfu.Table (Cache.create ~ways:1 ~slots))
      in
      List.for_all
        (fun (op, (flag, (k, v))) ->
          let agree =
            match op with
            | 0 ->
                let admission = if flag then `All else `A_bit_clear in
                let a = Cache.insert bare ~admission (vip k) (pip v) in
                let b = Tinylfu.insert wrapped ~admission (vip k) (pip v) in
                a = b
                && (a < 0
                   || Pip.equal (Cache.evicted_pip bare)
                        (Tinylfu.evicted_pip wrapped))
            | 1 -> Cache.lookup bare (vip k) = Tinylfu.lookup wrapped (vip k)
            | _ ->
                Cache.invalidate bare (vip k) ~stale:(pip v)
                = Tinylfu.invalidate wrapped (vip k) ~stale:(pip v)
          in
          agree
          && Cache.hits bare = Tinylfu.hits wrapped
          && Cache.misses bare = Tinylfu.misses wrapped
          && Cache.occupancy bare = Tinylfu.occupancy wrapped
          && Cache.rejections bare = Tinylfu.rejections wrapped
          && Tinylfu.denied wrapped = 0)
        ops)

let lfu_always_admit_equiv_dleft_qcheck =
  QCheck.Test.make ~name:"always-admit TinyLFU equals d-left backing"
    ~count:300
    QCheck.(
      list
        (pair (int_bound 2) (pair bool (pair (int_bound 200) (int_bound 1000)))))
    (fun ops ->
      let ways = 2 and slots = 16 in
      let bare = Cache.create ~ways ~slots in
      let wrapped =
        Tinylfu.create ~always_admit:true
          (Tinylfu.Table (Cache.create ~ways ~slots))
      in
      List.for_all
        (fun (op, (flag, (k, v))) ->
          let agree =
            match op with
            | 0 ->
                let admission = if flag then `All else `A_bit_clear in
                let a = Cache.insert bare ~admission (vip k) (pip v) in
                let b = Tinylfu.insert wrapped ~admission (vip k) (pip v) in
                a = b
                && (a < 0
                   || Pip.equal (Cache.evicted_pip bare)
                        (Tinylfu.evicted_pip wrapped))
            | 1 -> Cache.lookup bare (vip k) = Tinylfu.lookup wrapped (vip k)
            | _ ->
                Cache.invalidate bare (vip k) ~stale:(pip v)
                = Tinylfu.invalidate wrapped (vip k) ~stale:(pip v)
          in
          agree
          && Cache.hits bare = Tinylfu.hits wrapped
          && Cache.misses bare = Tinylfu.misses wrapped
          && Cache.occupancy bare = Tinylfu.occupancy wrapped)
        ops)

let lfu_always_admit_equiv_assoc_qcheck =
  QCheck.Test.make ~name:"always-admit TinyLFU equals assoc backing"
    ~count:300
    QCheck.(list (pair bool (pair (int_bound 200) (int_bound 1000))))
    (fun ops ->
      let module Assoc = Switchv2p.Assoc_cache in
      let bare = Assoc.create ~ways:2 ~slots:16 in
      let wrapped =
        Tinylfu.create ~always_admit:true
          (Tinylfu.Assoc (Assoc.create ~ways:2 ~slots:16))
      in
      List.for_all
        (fun (is_insert, (k, v)) ->
          if is_insert then begin
            let present = Assoc.peek bare (vip k) <> None in
            ignore (Assoc.insert bare (vip k) (pip v) : int);
            let r = Tinylfu.insert wrapped ~admission:`All (vip k) (pip v) in
            (* No evicted VIP from the LRU backing: the wrapper only
               classifies update-vs-insert. *)
            (if r = Cache.ins_fresh then not present
             else if r = Cache.ins_updated then present
             else false)
            && Assoc.occupancy bare = Tinylfu.occupancy wrapped
          end
          else
            Assoc.lookup bare (vip k) = Tinylfu.lookup wrapped (vip k)
            && Assoc.hits bare = Tinylfu.hits wrapped
            && Assoc.misses bare = Tinylfu.misses wrapped)
        ops)

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
   counters; under TinyLFU ([reports = false]) its evictions read as
   fresh inserts. *)
type model = {
  lines : int -> int list;
  lru : bool;
  reports : bool;
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

let model_create ?(reports = true) ~lru ~slots lines =
  {
    lines;
    lru;
    reports;
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

let lru_model ?reports ~ways ~slots () =
  model_create ?reports ~lru:true ~slots (fun v ->
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
      if m.reports then ev else (Cache.ins_fresh, -1)

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

(* A cache under test, seen through the operations the model checks. *)
type sut = {
  insert : admission:Cache.admission -> int -> int -> int;
  evicted_pip : unit -> int;
  victim_key : int -> int;
  lookup : int -> int;
  invalidate : int -> stale:int -> bool;
  counters : unit -> int * int * int * int;
      (* occupancy, insertions, evictions, rejections *)
  estimate : (int -> int) option;  (** TinyLFU sketch, when wrapped *)
  always_admit : bool;
}

let geo_sut (c : Geo.t) =
  let estimate, always_admit =
    match c with
    | Geo.Lfu { filter; _ } ->
        (Some (fun v -> Tinylfu.estimate_vip filter (vip v)), Tinylfu.always_admit filter)
    | Geo.Plain _ -> (None, false)
  in
  {
    insert = (fun ~admission v p -> Geo.insert c ~admission (vip v) (pip p));
    evicted_pip = (fun () -> Pip.to_int (Geo.evicted_pip c));
    victim_key = (fun v -> Cache.victim_key (Geo.table c) (vip v));
    lookup = (fun v -> Geo.lookup c (vip v));
    invalidate = (fun v ~stale -> Geo.invalidate c (vip v) ~stale:(pip stale));
    counters =
      (fun () ->
        (Geo.occupancy c, Geo.insertions c, Geo.evictions c, Geo.rejections c));
    estimate;
    always_admit;
  }

let assoc_sut (c : Switchv2p.Assoc_cache.t) =
  let module Assoc = Switchv2p.Assoc_cache in
  {
    insert = (fun ~admission:_ v p -> Assoc.insert c (vip v) (pip p));
    evicted_pip = (fun () -> Pip.to_int (Assoc.evicted_pip c));
    victim_key = (fun v -> Assoc.victim_key c (vip v));
    lookup = (fun v -> Assoc.lookup c (vip v));
    invalidate = (fun _ ~stale:_ -> false) (* no invalidation in LRU *);
    counters = (fun () -> (Assoc.occupancy c, 0, 0, 0));
    estimate = None;
    always_admit = false;
  }

let lfu_sut (l : Tinylfu.t) =
  {
    insert = (fun ~admission v p -> Tinylfu.insert l ~admission (vip v) (pip p));
    evicted_pip = (fun () -> Pip.to_int (Tinylfu.evicted_pip l));
    victim_key = (fun v -> Tinylfu.victim_key l (vip v));
    lookup = (fun v -> Tinylfu.lookup l (vip v));
    invalidate = (fun v ~stale -> Tinylfu.invalidate l (vip v) ~stale:(pip stale));
    counters =
      (fun () ->
        ( Tinylfu.occupancy l,
          Tinylfu.insertions l,
          Tinylfu.evictions l,
          Tinylfu.rejections l ));
    estimate = Some (fun v -> Tinylfu.estimate_vip l (vip v));
    always_admit = Tinylfu.always_admit l;
  }

(* Every insert's code, its evicted (VIP, PIP) pair and the occupancy,
   insertion, eviction and rejection counters agree with the model on
   random op streams; lookups and invalidations keep the two in step.
   Under TinyLFU the model decides admission from the wrapper's own
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
                let probed = c.victim_key k in
                let code = c.insert ~admission k v in
                let admit =
                  match c.estimate with
                  | None -> true
                  | Some est -> c.always_admit || victim < 0 || est k > est victim
                in
                let want_code, want_pip =
                  if admit then model_insert m ~admission k v
                  else begin
                    m.rejs <- m.rejs + 1;
                    (Cache.ins_rejected, -1)
                  end
                in
                probed = victim && code = want_code
                && (code < 0 || c.evicted_pip () = want_pip)
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
            lru_model ~ways:4 ~slots () ) );
      ( "tinylfu+assoc4",
        fun () ->
          ( lfu_sut
              (Tinylfu.create
                 (Tinylfu.Assoc (Switchv2p.Assoc_cache.create ~ways:4 ~slots))),
            lru_model ~reports:false ~ways:4 ~slots () ) );
    ]

let geo_direct () = Geo.create ~ways:1 ~tinylfu:false ~slots:16
let geo_dleft2 () = Geo.create ~ways:2 ~tinylfu:false ~slots:16
let geo_dleft4 () = Geo.create ~ways:4 ~tinylfu:false ~slots:16
let geo_direct_lfu () = Geo.create ~ways:1 ~tinylfu:true ~slots:16
let geo_dleft_lfu () = Geo.create ~ways:2 ~tinylfu:true ~slots:16

(* --- TinyLFU sketch invariants --- *)

let test_sketch_never_undercounts () =
  (* Within one sample period, count-min estimates are upper bounds:
     touching a key k times reads back at least min(k, 15). *)
  let t =
    Tinylfu.create ~sample:1_000_000 (Tinylfu.Table (Cache.create ~ways:1 ~slots:8))
  in
  for k = 1 to 30 do
    ignore (Tinylfu.lookup t (vip 7))
    |> ignore;
    let e = Tinylfu.estimate_vip t (vip 7) in
    checkb "estimate >= true count (sat 15)" true (e >= min k 15);
    checkb "estimate <= 15" true (e <= 15)
  done

let test_sketch_halving () =
  let t =
    Tinylfu.create ~sample:8 (Tinylfu.Table (Cache.create ~ways:1 ~slots:8))
  in
  for _ = 1 to 7 do
    ignore (Tinylfu.lookup t (vip 3))
  done;
  let before = Tinylfu.estimate_vip t (vip 3) in
  ignore (Tinylfu.lookup t (vip 3));
  (* 8th touch triggers the halving *)
  checki "one halving" 1 (Tinylfu.halvings t);
  checkb "estimate halved" true
    (Tinylfu.estimate_vip t (vip 3) <= (before + 1) / 2)

let test_lfu_admission_filters_cold_candidate () =
  let slots = 8 in
  let backing = Cache.create ~ways:1 ~slots in
  let t = Tinylfu.create ~sample:1_000_000 (Tinylfu.Table backing) in
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
  ignore (Tinylfu.insert t ~admission:`All (vip k0) (pip 1));
  (* Make k0 hot. *)
  for _ = 1 to 10 do
    ignore (Tinylfu.lookup t (vip k0))
  done;
  (* Cold k1 must be denied: its estimate cannot exceed hot k0's. *)
  checkb "cold candidate denied" true
    (Tinylfu.insert t ~admission:`All (vip k1) (pip 2) = Cache.ins_rejected);
  checki "denied counted" 1 (Tinylfu.denied t);
  checkb "occupant survives" true (Tinylfu.peek t (vip k0) <> None);
  (* Now make k1 hotter than k0 and retry: admitted. *)
  for _ = 1 to 30 do
    ignore (Tinylfu.lookup t (vip k1))
  done;
  checki "hot candidate admitted, evicting the cold key" k0
    (Tinylfu.insert t ~admission:`All (vip k1) (pip 2));
  checki "evicted PIP" 1 (Pip.to_int (Tinylfu.evicted_pip t));
  checkb "new entry resident" true (Tinylfu.peek t (vip k1) <> None)

let test_lfu_update_and_empty_bypass_filter () =
  let t = Tinylfu.create (Tinylfu.Table (Cache.create ~ways:1 ~slots:8)) in
  (* Empty-line fills never consult the filter... *)
  checki "expected fill" Cache.ins_fresh
    (Tinylfu.insert t ~admission:`All (vip 1) (pip 1));
  (* ...nor do updates of a resident key. *)
  checki "expected update" Cache.ins_updated
    (Tinylfu.insert t ~admission:`All (vip 1) (pip 2));
  checki "nothing denied" 0 (Tinylfu.denied t)

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
          QCheck_alcotest.to_alcotest lfu_always_admit_equiv_direct_qcheck;
          QCheck_alcotest.to_alcotest lfu_always_admit_equiv_dleft_qcheck;
          QCheck_alcotest.to_alcotest lfu_always_admit_equiv_assoc_qcheck;
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
