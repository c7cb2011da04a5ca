(* Tests for the access-bit cache table (one way: the paper's
   direct-mapped cache; more: d-left), access-bit semantics, admission
   policies, allocation-free operations, the timestamp vector and the
   protocol configuration. *)

module Cache = Switchv2p.Cache
module Ts_vector = Switchv2p.Ts_vector
module Config = Switchv2p.Config
module Vip = Netcore.Addr.Vip
module Pip = Netcore.Addr.Pip

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let vip = Vip.of_int
let pip = Pip.of_int

(* A key sharing key 0's line in a one-way table of [slots] lines. *)
let colliding_pair cache = List.hd (Collide.keys ~ways:1 ~sub:(Cache.slots cache) 1)

let test_lookup_after_insert () =
  let c = Cache.create ~ways:1 ~slots:64 in
  checki "expected clean insert" Cache.ins_fresh
    (Cache.insert c ~admission:`All (vip 1) (pip 10));
  let r = Cache.lookup c (vip 1) in
  checkb "hit" true (r <> Cache.miss);
  checki "value" 10 (Pip.to_int (Cache.hit_pip r));
  checkb "fresh entry bit clear" false (Cache.hit_bit r)

let test_access_bit_set_on_hit () =
  let c = Cache.create ~ways:1 ~slots:64 in
  ignore (Cache.insert c ~admission:`All (vip 1) (pip 10));
  checkb "bit starts clear" false (Option.get (Cache.access_bit c (vip 1)));
  ignore (Cache.lookup c (vip 1));
  checkb "bit set after hit" true (Option.get (Cache.access_bit c (vip 1)));
  let r = Cache.lookup c (vip 1) in
  checkb "hit" true (r <> Cache.miss);
  checkb "second hit sees bit" true (Cache.hit_bit r)

let test_conflict_miss_clears_bit () =
  let c = Cache.create ~ways:1 ~slots:8 in
  let v2 = colliding_pair c in
  ignore (Cache.insert c ~admission:`All (vip 0) (pip 10));
  ignore (Cache.lookup c (vip 0));
  checkb "bit set" true (Option.get (Cache.access_bit c (vip 0)));
  (* A conflicting lookup misses and clears the occupant's bit. *)
  checkb "conflict misses" true (Cache.lookup c (vip v2) = Cache.miss);
  checkb "occupant bit cleared" false (Option.get (Cache.access_bit c (vip 0)))

let test_admission_all_evicts () =
  let c = Cache.create ~ways:1 ~slots:8 in
  let v2 = colliding_pair c in
  ignore (Cache.insert c ~admission:`All (vip 0) (pip 10));
  ignore (Cache.lookup c (vip 0));
  (* Even with the bit set, `All admits and reports the eviction. *)
  checki "evicted key" 0 (Cache.insert c ~admission:`All (vip v2) (pip 20));
  checki "evicted value" 10 (Pip.to_int (Cache.evicted_pip c));
  checkb "old gone" true (Cache.peek c (vip 0) = None);
  checkb "new present" true (Cache.peek c (vip v2) <> None)

let test_admission_conservative_respects_bit () =
  let c = Cache.create ~ways:1 ~slots:8 in
  let v2 = colliding_pair c in
  ignore (Cache.insert c ~admission:`All (vip 0) (pip 10));
  ignore (Cache.lookup c (vip 0));
  (* Occupant bit is set: conservative admission refuses. *)
  checki "expected rejection" Cache.ins_rejected
    (Cache.insert c ~admission:`A_bit_clear (vip v2) (pip 20));
  (* After a conflicting lookup clears the bit, admission succeeds. *)
  ignore (Cache.lookup c (vip v2));
  checki "expected admitted with eviction of VIP 0" 0
    (Cache.insert c ~admission:`A_bit_clear (vip v2) (pip 20));
  checkb "replaced" true (Cache.peek c (vip v2) <> None)

let test_update_in_place () =
  let c = Cache.create ~ways:1 ~slots:8 in
  ignore (Cache.insert c ~admission:`All (vip 1) (pip 10));
  checki "expected update" Cache.ins_updated
    (Cache.insert c ~admission:`All (vip 1) (pip 99));
  checki "new value" 99 (Pip.to_int (Option.get (Cache.peek c (vip 1))));
  checki "occupancy still 1" 1 (Cache.occupancy c)

let test_invalidate_matching_only () =
  let c = Cache.create ~ways:1 ~slots:8 in
  ignore (Cache.insert c ~admission:`All (vip 1) (pip 10));
  checkb "wrong stale is a no-op" false (Cache.invalidate c (vip 1) ~stale:(pip 11));
  checkb "entry survives" true (Cache.peek c (vip 1) <> None);
  checkb "matching stale removes" true (Cache.invalidate c (vip 1) ~stale:(pip 10));
  checkb "entry gone" true (Cache.peek c (vip 1) = None);
  checki "occupancy zero" 0 (Cache.occupancy c)

let test_zero_slot_cache () =
  let c = Cache.create ~ways:1 ~slots:0 in
  checkb "lookup misses" true (Cache.lookup c (vip 1) = Cache.miss);
  checki "zero-slot insert must reject" Cache.ins_rejected
    (Cache.insert c ~admission:`All (vip 1) (pip 1));
  checkb "no victim" true (Cache.victim_key c (vip 1) = -1);
  checkb "invalidate no-op" false (Cache.invalidate c (vip 1) ~stale:(pip 1));
  checki "misses counted" 1 (Cache.misses c)

let test_negative_slots_rejected () =
  Alcotest.check_raises "negative" (Invalid_argument "Cache.create: negative slots")
    (fun () -> ignore (Cache.create ~ways:1 ~slots:(-1)))

let test_clear () =
  let c = Cache.create ~ways:1 ~slots:16 in
  ignore (Cache.insert c ~admission:`All (vip 1) (pip 10));
  ignore (Cache.insert c ~admission:`All (vip 2) (pip 20));
  ignore (Cache.lookup c (vip 1));
  Cache.clear c;
  checki "empty" 0 (Cache.occupancy c);
  checkb "entries gone" true (Cache.peek c (vip 1) = None && Cache.peek c (vip 2) = None);
  checkb "stats preserved" true (Cache.hits c = 1);
  (* The cache keeps working after a wipe. *)
  ignore (Cache.insert c ~admission:`All (vip 3) (pip 30));
  checkb "usable after clear" true (Cache.peek c (vip 3) <> None)

let test_stats_counters () =
  let c = Cache.create ~ways:1 ~slots:16 in
  ignore (Cache.lookup c (vip 1));
  ignore (Cache.insert c ~admission:`All (vip 1) (pip 1));
  ignore (Cache.lookup c (vip 1));
  checki "hits" 1 (Cache.hits c);
  checki "misses" 1 (Cache.misses c);
  checki "insertions" 1 (Cache.insertions c);
  checki "evictions" 0 (Cache.evictions c)

(* QCheck: model-based test of the direct-mapped cache against a
   reference map keyed by slot. *)
let cache_model_qcheck =
  let open QCheck in
  Test.make ~name:"cache agrees with slot-model" ~count:300
    (list (pair (int_bound 200) (int_bound 1000)))
    (fun ops ->
      let slots = 16 in
      let c = Cache.create ~ways:1 ~slots in
      (* Model: slot -> (vip, pip) using the same hash by observation:
         we learn each vip's slot from collisions with a probe. *)
      let model : (int, int * int) Hashtbl.t = Hashtbl.create 16 in
      let slot_of v =
        (* Mirror of the cache's mix hash. *)
        let z = Int64.of_int (v * 0x9E3779B9) in
        let z =
          Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L)
        in
        Int64.to_int (Int64.shift_right_logical z 33) mod slots
      in
      List.for_all
        (fun (v, p) ->
          ignore (Cache.insert c ~admission:`All (vip v) (pip p));
          Hashtbl.replace model (slot_of v) (v, p);
          (* Every modeled entry must be peekable with the right value. *)
          Hashtbl.fold
            (fun _slot (mv, mp) acc ->
              acc
              &&
              match Cache.peek c (vip mv) with
              | Some got -> Pip.to_int got = mp
              | None -> false)
            model true)
        ops)

let occupancy_qcheck =
  let open QCheck in
  Test.make ~name:"occupancy never exceeds slots" ~count:200
    (list (int_bound 10_000))
    (fun vs ->
      let c = Cache.create ~ways:1 ~slots:8 in
      List.iter (fun v -> ignore (Cache.insert c ~admission:`All (vip v) (pip v))) vs;
      Cache.occupancy c <= 8)

(* --- Assoc_cache --- *)

module Assoc = Switchv2p.Assoc_cache

let test_assoc_basic () =
  let c = Assoc.create ~ways:2 ~slots:8 in
  checki "slots" 8 (Assoc.slots c);
  checki "ways" 2 (Assoc.ways c);
  checki "fresh insert" Cache.ins_fresh (Assoc.insert c (vip 1) (pip 10));
  checkb "hit" true (Assoc.lookup c (vip 1) = 10);
  checkb "miss" true (Assoc.lookup c (vip 2) = Assoc.miss);
  checki "hits" 1 (Assoc.hits c);
  checki "misses" 1 (Assoc.misses c)

let test_assoc_update_in_place () =
  let c = Assoc.create ~ways:2 ~slots:8 in
  checki "fresh insert" Cache.ins_fresh (Assoc.insert c (vip 1) (pip 10));
  checki "update" Cache.ins_updated (Assoc.insert c (vip 1) (pip 99));
  checkb "updated" true (Assoc.lookup c (vip 1) = 99);
  checki "occupancy" 1 (Assoc.occupancy c)

let test_assoc_lru_eviction () =
  (* Fully associative, 2 lines: the least recently used line goes. *)
  let c = Assoc.create ~ways:2 ~slots:2 in
  ignore (Assoc.insert c (vip 1) (pip 1) : int);
  ignore (Assoc.insert c (vip 2) (pip 2) : int);
  ignore (Assoc.lookup c (vip 1)) (* 1 is now the most recent *);
  checki "evicts 2" 2 (Assoc.insert c (vip 3) (pip 3));
  checkb "recent survives" true (Assoc.lookup c (vip 1) <> Assoc.miss);
  checkb "lru evicted" true (Assoc.lookup c (vip 2) = Assoc.miss);
  checkb "new present" true (Assoc.lookup c (vip 3) <> Assoc.miss)

let test_assoc_validation () =
  Alcotest.check_raises "ways must divide"
    (Invalid_argument "Assoc_cache.create: ways must divide slots") (fun () ->
      ignore (Assoc.create ~ways:3 ~slots:8));
  Alcotest.check_raises "zero ways"
    (Invalid_argument "Assoc_cache.create: ways must be positive") (fun () ->
      ignore (Assoc.create ~ways:0 ~slots:8))

let test_assoc_zero_slots () =
  let c = Assoc.create ~ways:1 ~slots:0 in
  checkb "always miss" true (Assoc.lookup c (vip 1) = Assoc.miss);
  checki "insert rejected" Cache.ins_rejected (Assoc.insert c (vip 1) (pip 1));
  checkb "insert no-op" true (Assoc.lookup c (vip 1) = Assoc.miss)

(* Fully-associative cache agrees with a reference LRU model. *)
let assoc_lru_model_qcheck =
  QCheck.Test.make ~name:"fully-assoc agrees with reference LRU" ~count:200
    QCheck.(list (pair bool (int_bound 20)))
    (fun ops ->
      let capacity = 4 in
      let c = Assoc.create ~ways:capacity ~slots:capacity in
      (* Reference: association list, most recent first. *)
      let model = ref [] in
      let model_lookup k =
        match List.assoc_opt k !model with
        | Some v ->
            model := (k, v) :: List.remove_assoc k !model;
            Some v
        | None -> None
      in
      let model_insert k v =
        let without = List.remove_assoc k !model in
        let trimmed =
          if List.length without >= capacity then
            List.filteri (fun i _ -> i < capacity - 1) without
          else without
        in
        model := (k, v) :: trimmed
      in
      List.for_all
        (fun (is_insert, k) ->
          if is_insert then begin
            (* The model's LRU victim is its last entry (values = keys). *)
            let expect =
              if List.mem_assoc k !model then Cache.ins_updated
              else if List.length !model >= capacity then
                fst (List.nth !model (capacity - 1))
              else Cache.ins_fresh
            in
            let got = Assoc.insert c (vip k) (pip k) in
            model_insert k k;
            got = expect
          end
          else
            let got = Assoc.lookup c (vip k) in
            let expect = model_lookup k in
            (match expect with
            | Some e -> got = e
            | None -> got = Assoc.miss))
        ops)

(* A 1-way set-associative cache is the direct-mapped cache: both use
   the same mix hash over the same number of sets, so on any op stream
   every lookup's hit/miss outcome (and hit value), every insert's
   occupancy delta (the eviction sequence), and the running counters
   must agree. *)
let assoc_ways1_equiv_direct_qcheck =
  QCheck.Test.make ~name:"1-way assoc equals direct-mapped" ~count:300
    QCheck.(list (pair bool (pair (int_bound 200) (int_bound 1000))))
    (fun ops ->
      let slots = 16 in
      let dm = Cache.create ~ways:1 ~slots in
      let ac = Assoc.create ~ways:1 ~slots in
      List.for_all
        (fun (is_insert, (k, v)) ->
          if is_insert then begin
            let occ_before = Assoc.occupancy ac in
            let r = Cache.insert dm ~admission:`All (vip k) (pip v) in
            let ra = Assoc.insert ac (vip k) (pip v) in
            let delta = Assoc.occupancy ac - occ_before in
            r = ra
            && (if r = Cache.ins_fresh then delta = 1
                else if r >= 0 || r = Cache.ins_updated then delta = 0
                else false)
          end
          else begin
            let rd = Cache.lookup dm (vip k) in
            let ra = Assoc.lookup ac (vip k) in
            (if rd = Cache.miss then ra = Assoc.miss
             else ra <> Assoc.miss && Pip.to_int (Cache.hit_pip rd) = ra)
            && Cache.hits dm = Assoc.hits ac
            && Cache.misses dm = Assoc.misses ac
            && Cache.occupancy dm = Assoc.occupancy ac
          end)
        ops)

(* --- allocation ---

   Lookups and inserts run on every hop's lookup and learn stages, at
   any way count. Each op below loops 10k times and must allocate
   nothing, in any build profile (the dev profile turns cross-module
   inlining off, so the claim cannot rest on it). *)

let minor_words f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

let n_alloc = 10_000

type op = Lookup_hit | Lookup_miss | Insert_fresh | Insert_evict | Insert_deny

let op_name = function
  | Lookup_hit -> "lookup hit"
  | Lookup_miss -> "lookup miss"
  | Insert_fresh -> "insert-fresh"
  | Insert_evict -> "insert-evict"
  | Insert_deny -> "insert-deny"

(* A table whose key-0 bucket holds [ways] full colliders (every way
   occupied), plus two more colliders [a] and [b] left out of it. *)
let test_op_allocation_free op ways () =
  let sub = 8 in
  let c = Cache.create ~ways ~slots:(ways * sub) in
  let ks = Collide.keys ~ways ~sub (ways + 2) in
  List.iteri
    (fun i k -> if i < ways then ignore (Cache.insert c ~admission:`All (vip k) (pip k)))
    ks;
  let a = vip (List.nth ks ways) and b = vip (List.nth ks (ways + 1)) in
  let resident = vip (List.nth ks (ways - 1)) in
  let p = pip 7 in
  let expect = ref 0 in
  let words =
    match op with
    | Lookup_hit ->
        minor_words (fun () ->
            for _ = 1 to n_alloc do
              if Cache.lookup c resident <> Cache.miss then incr expect
            done)
    | Lookup_miss ->
        minor_words (fun () ->
            for _ = 1 to n_alloc do
              if Cache.lookup c a = Cache.miss then incr expect
            done)
    | Insert_fresh ->
        (* An empty line each time: the insert's invalidation frees it. *)
        ignore (Cache.invalidate c resident ~stale:(pip (Vip.to_int resident)));
        minor_words (fun () ->
            for _ = 1 to n_alloc do
              if Cache.insert c ~admission:`All a p = Cache.ins_fresh then incr expect;
              ignore (Cache.invalidate c a ~stale:p)
            done)
    | Insert_evict ->
        (* [a] and [b] alternate in way 0's line (every occupant's bit
           is clear), so each insert evicts the other. *)
        minor_words (fun () ->
            for i = 1 to n_alloc do
              let k = if i land 1 = 0 then a else b in
              if Cache.insert c ~admission:`All k p >= 0 then incr expect
            done)
    | Insert_deny -> invalid_arg "the bare table has no filter to deny"
  in
  checki (op_name op ^ " every time") n_alloc !expect;
  Alcotest.check (Alcotest.float 0.0) "minor words over 10k ops" 0.0 words

(* The same ops through [Geo_cache]'s TinyLFU arm, whose sketch count
   (and, every sample period, halving), victim probe and estimate
   comparison ride on them, plus the filter's denial. The key-0 bucket
   holds [ways] colliders; [pool] more colliders stay out of it. *)
let test_lfu_op_allocation_free op ways () =
  let module Geo = Switchv2p.Geo_cache in
  let sub = 8 and pool = 128 in
  let c = Geo.create ~ways ~tinylfu:true ~slots:(ways * sub) in
  let ks = Array.of_list (List.map vip (Collide.keys ~ways ~sub (ways + 1 + pool))) in
  (* ks.(0) lands in way 0's line, ks.(w) in way w's. *)
  for w = 0 to ways - 1 do
    ignore (Geo.insert c ~admission:`All ks.(w) (pip 7))
  done;
  let hot = ks.(ways) and cold i = ks.(ways + 1 + (i land (pool - 1))) in
  let p = pip 7 in
  let expect = ref 0 in
  let words =
    match op with
    | Lookup_hit ->
        minor_words (fun () ->
            for _ = 1 to n_alloc do
              if Geo.lookup c ks.(0) <> Cache.miss then incr expect
            done)
    | Lookup_miss ->
        minor_words (fun () ->
            for _ = 1 to n_alloc do
              if Geo.lookup c hot = Cache.miss then incr expect
            done)
    | Insert_fresh ->
        ignore (Geo.invalidate c ks.(0) ~stale:p);
        minor_words (fun () ->
            for _ = 1 to n_alloc do
              if Geo.insert c ~admission:`All hot p = Cache.ins_fresh then incr expect;
              ignore (Geo.invalidate c hot ~stale:p)
            done)
    | Insert_evict ->
        (* With every access bit clear, way 0's occupant is the victim.
           Each round the hot key evicts it, leaves, and a cold key
           fills the freed line, so the next round evicts again; the
           cold keys, each touched once per [pool] rounds, stay below
           the hot key's estimate. *)
        ignore (Geo.invalidate c ks.(0) ~stale:p);
        ignore (Geo.insert c ~admission:`All (cold 0) p);
        for _ = 1 to 15 do
          ignore (Geo.lookup c hot)
        done;
        minor_words (fun () ->
            for i = 1 to n_alloc do
              if
                Geo.insert c ~admission:`All hot p >= 0
                && Geo.invalidate c hot ~stale:p
                && Geo.insert c ~admission:`All (cold i) p = Cache.ins_fresh
              then incr expect
            done)
    | Insert_deny ->
        (* Set every occupant's access bit (a lookup clears the bits of
           the ways it probes before the hit, so the last way goes
           first): an insert's victim is then way 0's occupant, which a
           hit each round keeps hotter than any cold candidate. *)
        for w = ways - 1 downto 0 do
          ignore (Geo.lookup c ks.(w))
        done;
        minor_words (fun () ->
            for i = 1 to n_alloc do
              if
                Geo.lookup c ks.(0) <> Cache.miss
                && Geo.insert c ~admission:`All (cold i) p = Cache.ins_rejected
              then incr expect
            done)
  in
  checki (op_name op ^ " every time") n_alloc !expect;
  Alcotest.check (Alcotest.float 0.0) "minor words over 10k ops" 0.0 words

(* --- Ts_vector --- *)

let test_ts_vector_suppression () =
  let v = Ts_vector.create ~num_switches:4 ~base_rtt:(Dessim.Time_ns.of_us 12) () in
  checkb "first send allowed" true (Ts_vector.should_send v ~switch:1 ~now:0);
  checkb "burst suppressed" false
    (Ts_vector.should_send v ~switch:1 ~now:(Dessim.Time_ns.of_us 5));
  checkb "other switch unaffected" true
    (Ts_vector.should_send v ~switch:2 ~now:(Dessim.Time_ns.of_us 5));
  checkb "after rtt allowed" true
    (Ts_vector.should_send v ~switch:1 ~now:(Dessim.Time_ns.of_us 13));
  checki "suppressed count" 1 (Ts_vector.suppressed v)

let test_ts_vector_retransmit_window () =
  let v = Ts_vector.create ~num_switches:2 ~base_rtt:(Dessim.Time_ns.of_us 12) () in
  ignore (Ts_vector.should_send v ~switch:0 ~now:0);
  (* Exactly at base RTT the packet may be resent (covers drops). *)
  checkb "at rtt boundary" true
    (Ts_vector.should_send v ~switch:0 ~now:(Dessim.Time_ns.of_us 12))

(* --- Config --- *)

let test_config_default () =
  let c = Config.default in
  checkb "learning on" true c.Config.learning_packets;
  checkb "spill on" true c.Config.spillover;
  checkb "promotion on" true c.Config.promotion;
  checkb "invalidations on" true c.Config.invalidations;
  checkb "ts vector on" true c.Config.ts_vector;
  checkb "uniform allocation" true (c.Config.allocation = Config.Uniform);
  Alcotest.check (Alcotest.float 1e-9) "p_learn" 0.005 c.Config.p_learn

let test_config_overrides () =
  let c = Config.make ~p_learn:0.1 ~spillover:false ~tor_only:true () in
  Alcotest.check (Alcotest.float 1e-9) "p_learn" 0.1 c.Config.p_learn;
  checkb "spill off" false c.Config.spillover;
  checkb "tor only shorthand" true (c.Config.allocation = Config.Tor_only);
  checkb "others default" true c.Config.learning_packets;
  let w =
    Config.make
      ~allocation:
        (Config.Weighted
           { tor = 2.0; spine = 1.0; core = 0.5; gw_tor = 2.0; gw_spine = 1.0 })
      ()
  in
  checkb "weighted allocation kept" true
    (match w.Config.allocation with Config.Weighted _ -> true | _ -> false)

let () =
  Alcotest.run "switchv2p-cache"
    [
      ( "cache",
        [
          Alcotest.test_case "lookup after insert" `Quick test_lookup_after_insert;
          Alcotest.test_case "access bit on hit" `Quick test_access_bit_set_on_hit;
          Alcotest.test_case "conflict clears bit" `Quick test_conflict_miss_clears_bit;
          Alcotest.test_case "admit-all evicts" `Quick test_admission_all_evicts;
          Alcotest.test_case "conservative admission" `Quick test_admission_conservative_respects_bit;
          Alcotest.test_case "update in place" `Quick test_update_in_place;
          Alcotest.test_case "invalidate matching only" `Quick test_invalidate_matching_only;
          Alcotest.test_case "zero-slot cache" `Quick test_zero_slot_cache;
          Alcotest.test_case "negative slots" `Quick test_negative_slots_rejected;
          Alcotest.test_case "clear" `Quick test_clear;
          Alcotest.test_case "stats counters" `Quick test_stats_counters;
          QCheck_alcotest.to_alcotest cache_model_qcheck;
          QCheck_alcotest.to_alcotest occupancy_qcheck;
        ] );
      ( "assoc_cache",
        [
          Alcotest.test_case "basic" `Quick test_assoc_basic;
          Alcotest.test_case "update in place" `Quick test_assoc_update_in_place;
          Alcotest.test_case "lru eviction" `Quick test_assoc_lru_eviction;
          Alcotest.test_case "validation" `Quick test_assoc_validation;
          Alcotest.test_case "zero slots" `Quick test_assoc_zero_slots;
          QCheck_alcotest.to_alcotest assoc_lru_model_qcheck;
          QCheck_alcotest.to_alcotest assoc_ways1_equiv_direct_qcheck;
        ] );
      ( "alloc",
        List.concat_map
          (fun ways ->
            List.map
              (fun op ->
                Alcotest.test_case
                  (Printf.sprintf "%s, %d way%s allocation-free" (op_name op) ways
                     (if ways = 1 then "" else "s"))
                  `Quick
                  (test_op_allocation_free op ways))
              [ Lookup_hit; Lookup_miss; Insert_fresh; Insert_evict ])
          [ 1; 4 ]
        @ List.concat_map
            (fun ways ->
              List.map
                (fun op ->
                  Alcotest.test_case
                    (Printf.sprintf "tinylfu %s, %d way%s allocation-free"
                       (op_name op) ways
                       (if ways = 1 then "" else "s"))
                    `Quick
                    (test_lfu_op_allocation_free op ways))
                [ Lookup_hit; Lookup_miss; Insert_fresh; Insert_evict; Insert_deny ])
            [ 1; 4 ] );
      ( "ts_vector",
        [
          Alcotest.test_case "suppression" `Quick test_ts_vector_suppression;
          Alcotest.test_case "retransmit window" `Quick test_ts_vector_retransmit_window;
        ] );
      ( "config",
        [
          Alcotest.test_case "defaults" `Quick test_config_default;
          Alcotest.test_case "overrides" `Quick test_config_overrides;
        ] );
    ]
