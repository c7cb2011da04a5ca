(* Tests for addresses, the mapping store, packets and flows. *)

module Vip = Netcore.Addr.Vip
module Pip = Netcore.Addr.Pip
module Mapping = Netcore.Mapping
module Packet = Netcore.Packet
module Flow = Netcore.Flow

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let test_addr_roundtrip () =
  checki "vip" 42 (Vip.to_int (Vip.of_int 42));
  checki "pip" 17 (Pip.to_int (Pip.of_int 17));
  checkb "vip equal" true (Vip.equal (Vip.of_int 3) (Vip.of_int 3));
  checkb "pip not equal" false (Pip.equal (Pip.of_int 3) (Pip.of_int 4))

let test_addr_negative_rejected () =
  Alcotest.check_raises "vip" (Invalid_argument "Vip.of_int: negative")
    (fun () -> ignore (Vip.of_int (-1)));
  Alcotest.check_raises "pip" (Invalid_argument "Pip.of_int: negative")
    (fun () -> ignore (Pip.of_int (-1)))

let test_pip_none () =
  checkb "none is none" true (Pip.is_none Pip.none);
  checkb "real pip is not none" false (Pip.is_none (Pip.of_int 0))

let test_addr_pp () =
  let s = Format.asprintf "%a" Vip.pp (Vip.of_int ((1 lsl 16) + (2 lsl 8) + 3)) in
  Alcotest.check Alcotest.string "dotted quad" "10.1.2.3" s

(* --- one-word (VIP, PIP) pairs --- *)

module Pair = Netcore.Addr.Pair

let vip_limit = 1 lsl Pair.vip_bits
let pip_limit = 1 lsl Pair.pip_bits

let pair_qcheck =
  QCheck.Test.make ~name:"pair packing roundtrip" ~count:1000
    QCheck.(
      pair
        (oneof [ int_range 0 (vip_limit - 1); oneofl [ 0; vip_limit - 1 ] ])
        (oneof [ int_range 0 (pip_limit - 1); oneofl [ 0; pip_limit - 1 ] ]))
    (fun (v, p) ->
      let w = Pair.pack v p in
      w >= 0 && w <> Pair.none && Pair.vip w = v && Pair.pip w = p)

let out_of_range = Invalid_argument "Addr.Pair.pack: VIP or PIP out of range"

let test_pair_ranges () =
  Alcotest.check_raises "vip 2^32" out_of_range (fun () ->
      ignore (Pair.pack vip_limit 0));
  Alcotest.check_raises "pip 2^29" out_of_range (fun () ->
      ignore (Pair.pack 0 pip_limit));
  Alcotest.check_raises "negative pip" out_of_range (fun () ->
      ignore (Pair.pack 0 (-1)));
  checki "none has no vip" (-1) (Pair.vip Pair.none);
  checki "largest pair" max_int
    ((Pair.pack (vip_limit - 1) (pip_limit - 1) lsl 1) lor 1)

let test_mapping_install_range () =
  let m = Mapping.create () in
  Alcotest.check_raises "vip 2^32"
    (Invalid_argument "Mapping.install: VIP out of range") (fun () ->
      Mapping.install m (Vip.of_int vip_limit) (Pip.of_int 1));
  Alcotest.check_raises "pip 2^29" out_of_range (fun () ->
      Mapping.install m (Vip.of_int 1) (Pip.of_int pip_limit));
  checki "nothing installed" 0 (Mapping.size m);
  checki "no version" 0 (Mapping.version m (Vip.of_int 1));
  Mapping.install m (Vip.of_int 7) (Pip.of_int (pip_limit - 1));
  checki "largest pip" (pip_limit - 1) (Pip.to_int (Mapping.lookup m (Vip.of_int 7)))

let test_mapping_basic () =
  let m = Mapping.create () in
  checki "empty" 0 (Mapping.size m);
  Mapping.install m (Vip.of_int 1) (Pip.of_int 100);
  checki "size" 1 (Mapping.size m);
  checki "lookup" 100 (Pip.to_int (Mapping.lookup m (Vip.of_int 1)));
  checkb "lookup_opt none" true (Mapping.lookup_opt m (Vip.of_int 2) = None)

let test_mapping_versions () =
  let m = Mapping.create () in
  let v = Vip.of_int 9 in
  checki "unknown version" 0 (Mapping.version m v);
  Mapping.install m v (Pip.of_int 1);
  checki "installed" 1 (Mapping.version m v);
  Mapping.migrate m v (Pip.of_int 2);
  checki "migrated bumps" 2 (Mapping.version m v);
  checki "new location" 2 (Pip.to_int (Mapping.lookup m v))

let test_mapping_migrate_unknown () =
  let m = Mapping.create () in
  Alcotest.check_raises "unknown migrate" Not_found (fun () ->
      Mapping.migrate m (Vip.of_int 5) (Pip.of_int 1))

let test_mapping_lookup_unknown () =
  let m = Mapping.create () in
  Alcotest.check_raises "unknown lookup" Not_found (fun () ->
      ignore (Mapping.lookup m (Vip.of_int 5)))

let test_mapping_iter () =
  let m = Mapping.create () in
  for i = 0 to 9 do
    Mapping.install m (Vip.of_int i) (Pip.of_int (i * 10))
  done;
  let count = ref 0 in
  Mapping.iter m (fun vip pip ->
      incr count;
      checki "pip = vip*10" (Vip.to_int vip * 10) (Pip.to_int pip));
  checki "visited all" 10 !count

let mk_data ?(seq = 0) ?(id = 0) () =
  Packet.make_data ~id ~flow_id:1 ~seq ~size:1500 ~src_vip:(Vip.of_int 1)
    ~dst_vip:(Vip.of_int 2) ~src_pip:(Pip.of_int 10) ~dst_pip:(Pip.of_int 20)
    ~now:0

(* Riders are one packed (vip, pip) word each; their halves read -1
   when there is none. *)
let set_spill p v w = Packet.set_spill p (Vip.of_int v) (Pip.of_int w)
let set_promo p v w = Packet.set_promo p (Vip.of_int v) (Pip.of_int w)
let set_mapping p v w = Packet.set_mapping p (Vip.of_int v) (Pip.of_int w)

let test_packet_data_initial_state () =
  let p = mk_data () in
  checkb "unresolved" false (Packet.resolved p);
  checkb "no tag" true (p.Packet.misdelivery < 0);
  checki "no hit switch" (-1) p.Packet.hit_switch;
  checkb "no spill" true ((Packet.spill_vip p) = -1 && (Packet.spill_pip p) = -1);
  checkb "no promo" true ((Packet.promo_vip p) = -1 && (Packet.promo_pip p) = -1);
  checkb "no mapping payload" true
    ((Packet.mapping_vip p) = -1 && (Packet.mapping_pip p) = -1);
  checkb "is data" true (Packet.is_data p);
  checki "hops" 0 (Packet.hops p)

let test_packet_control () =
  let p =
    Packet.make_control ~id:1 ~kind:Packet.Learning
      ~mapping:(Vip.of_int 3, Pip.of_int 30)
      ~src_pip:(Pip.of_int 1) ~dst_pip:(Pip.of_int 2) ~now:0
  in
  checkb "control resolved" true (Packet.resolved p);
  checki "carries mapping VIP" 3 (Packet.mapping_vip p);
  checki "carries mapping PIP" 30 (Packet.mapping_pip p);
  checki "control size" Packet.control_size (Packet.size p);
  checkb "not data" false (Packet.is_data p)

let test_packet_rider_range () =
  let p = mk_data () in
  List.iter
    (fun (name, set) ->
      Alcotest.check_raises (name ^ " vip 2^32") out_of_range (fun () ->
          set p (Vip.of_int vip_limit) (Pip.of_int 1));
      Alcotest.check_raises (name ^ " pip 2^29") out_of_range (fun () ->
          set p (Vip.of_int 1) (Pip.of_int pip_limit)))
    [
      ("spill", Packet.set_spill);
      ("promo", Packet.set_promo);
      ("mapping", Packet.set_mapping);
    ];
  checkb "no rider attached" true
    (Packet.spill_vip p = -1 && Packet.promo_vip p = -1
   && Packet.mapping_vip p = -1)

(* A pooled packet is 15 fields plus its header: OCaml's 16-word size
   class, with no slack word. *)
let test_packet_size_pinned () =
  checkb "at most 15 fields" true (Obj.size (Obj.repr (Packet.blank ())) <= 15)

let test_packet_control_kind_checked () =
  Alcotest.check_raises "data is not control"
    (Invalid_argument "Packet.make_control: not a control kind") (fun () ->
      ignore
        (Packet.make_control ~id:1 ~kind:Packet.Data
           ~mapping:(Vip.of_int 1, Pip.of_int 1)
           ~src_pip:(Pip.of_int 1) ~dst_pip:(Pip.of_int 2) ~now:0))

(* The five flags and the hop count share one word: any sequence of
   writes must read back as six independent fields would, and [reset]
   must clear them all. *)
let flags_qcheck =
  QCheck.Test.make ~name:"flag bits and hops are independent" ~count:500
    QCheck.(list (pair (int_bound 5) (int_bound 100_000)))
    (fun writes ->
      let p = mk_data () in
      let model = Array.make 6 0 in
      List.iter
        (fun (field, v) ->
          let b = v land 1 = 1 in
          model.(field) <- (if field = 5 then v else Bool.to_int b);
          match field with
          | 0 -> Packet.set_resolved p b
          | 1 -> Packet.set_gw_pinned p b
          | 2 -> Packet.set_ecn p b
          | 3 -> Packet.set_gw_visited p b
          | 4 -> Packet.set_retransmit p b
          | _ -> Packet.set_hops p v)
        writes;
      let read () =
        [|
          Bool.to_int (Packet.resolved p);
          Bool.to_int (Packet.gw_pinned p);
          Bool.to_int (Packet.ecn p);
          Bool.to_int (Packet.gw_visited p);
          Bool.to_int (Packet.retransmit p);
          Packet.hops p;
        |]
      in
      let same = read () = model in
      Packet.reset p ~id:1 ~flow_id:0 ~kind:Packet.Data ~size:1 ~seq:0
        ~src_vip:(Vip.of_int 0) ~dst_vip:(Vip.of_int 1)
        ~src_pip:(Pip.of_int 0) ~dst_pip:(Pip.of_int 1) ~now:0;
      same && read () = Array.make 6 0)

let test_flow_packet_count () =
  let f ~size =
    Flow.make ~id:0 ~src_vip:(Vip.of_int 0) ~dst_vip:(Vip.of_int 1)
      ~size_bytes:size ~start:0 Flow.Tcpish
  in
  checki "one byte -> one packet" 1 (Flow.packet_count (f ~size:1));
  checki "exactly mtu" 1 (Flow.packet_count (f ~size:1500));
  checki "mtu + 1" 2 (Flow.packet_count (f ~size:1501));
  checki "10 packets" 10 (Flow.packet_count (f ~size:15000))

let test_flow_custom_pkt_bytes () =
  let f =
    Flow.make ~pkt_bytes:128 ~id:0 ~src_vip:(Vip.of_int 0)
      ~dst_vip:(Vip.of_int 1) ~size_bytes:1280 ~start:0
      (Flow.Udp { rate_bps = 1e9 })
  in
  checki "128B packets" 10 (Flow.packet_count f)

let test_flow_invalid () =
  Alcotest.check_raises "zero size" (Invalid_argument "Flow.make: size must be positive")
    (fun () ->
      ignore
        (Flow.make ~id:0 ~src_vip:(Vip.of_int 0) ~dst_vip:(Vip.of_int 1)
           ~size_bytes:0 ~start:0 Flow.Tcpish))

(* --- wire format --- *)

let packet_equal (a : Packet.t) (b : Packet.t) =
  a.Packet.id = b.Packet.id
  && a.Packet.flow_id = b.Packet.flow_id
  && Packet.kind a = Packet.kind b
  && Packet.size a = Packet.size b
  && a.Packet.seq = b.Packet.seq
  && Vip.equal a.Packet.src_vip b.Packet.src_vip
  && Vip.equal a.Packet.dst_vip b.Packet.dst_vip
  && Pip.equal a.Packet.src_pip b.Packet.src_pip
  && Pip.equal a.Packet.dst_pip b.Packet.dst_pip
  && Packet.resolved a = Packet.resolved b
  && a.Packet.misdelivery = b.Packet.misdelivery
  && a.Packet.hit_switch = b.Packet.hit_switch
  && (Packet.spill_vip a) = (Packet.spill_vip b)
  && (Packet.spill_pip a) = (Packet.spill_pip b)
  && (Packet.promo_vip a) = (Packet.promo_vip b)
  && (Packet.promo_pip a) = (Packet.promo_pip b)
  && (Packet.mapping_vip a) = (Packet.mapping_vip b)
  && (Packet.mapping_pip a) = (Packet.mapping_pip b)
  && Packet.gw_visited a = Packet.gw_visited b
  && Packet.retransmit a = Packet.retransmit b

let test_wire_roundtrip_plain_data () =
  let p = mk_data ~seq:3 ~id:99 () in
  let q = Netcore.Wire.decode (Netcore.Wire.encode p) in
  checkb "roundtrip" true (packet_equal p q)

let test_wire_roundtrip_decorated () =
  let p = mk_data () in
  Packet.set_resolved p true;
  Packet.set_gw_visited p true;
  Packet.set_retransmit p true;
  p.Packet.hit_switch <- 42;
  p.Packet.misdelivery <- 7;
  set_spill p 3 30;
  set_promo p 4 40;
  let q = Netcore.Wire.decode (Netcore.Wire.encode p) in
  checkb "all options roundtrip" true (packet_equal p q)

(* Every subset of the three riders, on data and control packets:
   set riders come back intact, unset ones stay -1. *)
let rider_subsets () =
  List.init 8 (fun bits ->
      let data = mk_data ~id:bits () in
      if bits land 4 <> 0 then set_mapping data 5 50;
      let ctl =
        Packet.make_control ~id:bits ~kind:Packet.Invalidation
          ~mapping:(Vip.of_int 9, Pip.of_int 90)
          ~src_pip:(Pip.of_int 1) ~dst_pip:(Pip.of_int 2) ~now:0
      in
      List.iter
        (fun p ->
          if bits land 1 <> 0 then set_spill p 3 30;
          if bits land 2 <> 0 then set_promo p 4 40)
        [ data; ctl ];
      (bits, [ data; ctl ]))

let test_wire_roundtrip_rider_subsets () =
  List.iter
    (fun (bits, pkts) ->
      List.iter
        (fun p ->
          let q = Netcore.Wire.decode (Netcore.Wire.encode p) in
          checkb (Printf.sprintf "riders %d roundtrip" bits) true
            (packet_equal p q))
        pkts)
    (rider_subsets ())

let test_handoff_roundtrip_rider_subsets () =
  let stride = Netsim.Network.handoff_stride in
  List.iter
    (fun (bits, pkts) ->
      List.iter
        (fun (p : Packet.t) ->
          Packet.set_hops p 3;
          Packet.set_gw_pinned p true;
          Packet.set_ecn p (bits land 1 = 0);
          (* Record at a non-zero offset, as in a drained mailbox. *)
          let buf = Array.make (2 * stride) 0 in
          Netsim.Network.handoff_encode buf stride p;
          (* Decode over a recycled packet carrying stale riders. *)
          let q = mk_data ~id:77 () in
          set_spill q 11 110;
          set_promo q 12 120;
          set_mapping q 13 130;
          Netsim.Network.handoff_decode buf stride q;
          checkb (Printf.sprintf "riders %d handoff roundtrip" bits) true
            (packet_equal p q
            && Packet.hops q = 3
            && Packet.gw_pinned q
            && Packet.ecn q = Packet.ecn p))
        pkts)
    (rider_subsets ())

(* -1 marks an absent rider in memory, so a rider TLV carrying a
   negative signed 32-bit word must be rejected, not decoded into a
   silently dropped rider. A packet cannot hold such a rider, so [set]
   writes the words into the encoded TLV: the first option after the
   outer IPv4 header (20 bytes) and the 6-byte option header is the
   rider's type byte, then its length byte, then the VIP and PIP
   words. *)
let test_wire_rejects_negative_rider_words () =
  let put_u32 b off v =
    for i = 0 to 3 do
      Bytes.set b (off + i) (Char.chr ((v lsr (8 * (3 - i))) land 0xff))
    done
  in
  let patched set v w =
    let p = mk_data () in
    set p 3 30;
    let b = Netcore.Wire.encode p in
    put_u32 b 28 v;
    put_u32 b 32 w;
    b
  in
  let cases =
    [
      ("spill", patched set_spill);
      ("promo", patched set_promo);
      ("mapping", patched set_mapping);
    ]
  in
  List.iter
    (fun (name, encode) ->
      List.iter
        (fun (v, w) ->
          let b = encode v w in
          Alcotest.check_raises
            (Printf.sprintf "%s (%d, %d)" name v w)
            (Invalid_argument (Printf.sprintf "Wire.decode: bad %s TLV" name))
            (fun () -> ignore (Netcore.Wire.decode b)))
        [ (3, -1); (0x8000_0000, 30); (3, 0xffff_ffff) ])
    cases

let test_wire_roundtrip_control () =
  List.iter
    (fun kind ->
      let p =
        Packet.make_control ~id:5 ~kind
          ~mapping:(Vip.of_int 9, Pip.of_int 90)
          ~src_pip:(Pip.of_int 1) ~dst_pip:(Pip.of_int 2) ~now:0
      in
      let q = Netcore.Wire.decode (Netcore.Wire.encode p) in
      checkb "control roundtrip" true (packet_equal p q))
    [ Packet.Learning; Packet.Invalidation ]

let test_wire_none_pip () =
  let p =
    Packet.make_data ~id:0 ~flow_id:1 ~seq:0 ~size:100 ~src_vip:(Vip.of_int 1)
      ~dst_vip:(Vip.of_int 2) ~src_pip:(Pip.of_int 3) ~dst_pip:Pip.none ~now:0
  in
  let q = Netcore.Wire.decode (Netcore.Wire.encode p) in
  checkb "none sentinel survives" true (Pip.is_none q.Packet.dst_pip)

let test_wire_rejects_garbage () =
  let truncated = Bytes.make 3 'x' in
  Bytes.set truncated 0 '\x45' (* valid version/IHL, then nothing *);
  Alcotest.check_raises "truncated" (Invalid_argument "Wire.decode: truncated")
    (fun () -> ignore (Netcore.Wire.decode truncated));
  let p = mk_data () in
  let b = Netcore.Wire.encode p in
  Bytes.set b 0 '\x00';
  Alcotest.check_raises "bad version"
    (Invalid_argument "Wire.decode: bad IPv4 header") (fun () ->
      ignore (Netcore.Wire.decode b))

let test_wire_header_overhead () =
  let plain = Netcore.Wire.header_bytes (mk_data ()) in
  let decorated =
    let p = mk_data () in
    set_spill p 3 30;
    Netcore.Wire.header_bytes p
  in
  (* Riding a spilled entry costs exactly one 10-byte TLV. *)
  checki "spill TLV cost" (plain + 10) decorated;
  checkb "base overhead is two IPv4 headers + options" true (plain >= 40)

let wire_qcheck =
  QCheck.Test.make ~name:"wire roundtrip for random packets" ~count:500
    QCheck.(
      tup7 (int_bound 1000) (int_bound 1000) (int_bound 100) bool bool bool
        (int_bound 3))
    (fun (a, b, seq, resolved, with_spill, with_md, decor) ->
      let p =
        Packet.make_data ~id:(a + b) ~flow_id:a ~seq ~size:(1 + a)
          ~src_vip:(Vip.of_int a) ~dst_vip:(Vip.of_int b)
          ~src_pip:(Pip.of_int (a * 2)) ~dst_pip:(Pip.of_int (b * 2)) ~now:0
      in
      Packet.set_resolved p resolved;
      if with_spill then set_spill p decor b;
      if with_md then p.Packet.misdelivery <- decor;
      if decor > 1 then set_promo p a decor;
      packet_equal p (Netcore.Wire.decode (Netcore.Wire.encode p)))

let () =
  Alcotest.run "netcore"
    [
      ( "addr",
        [
          Alcotest.test_case "roundtrip" `Quick test_addr_roundtrip;
          Alcotest.test_case "negative rejected" `Quick test_addr_negative_rejected;
          Alcotest.test_case "none sentinel" `Quick test_pip_none;
          Alcotest.test_case "pretty printing" `Quick test_addr_pp;
          QCheck_alcotest.to_alcotest pair_qcheck;
          Alcotest.test_case "pair ranges checked" `Quick test_pair_ranges;
        ] );
      ( "mapping",
        [
          Alcotest.test_case "install/lookup" `Quick test_mapping_basic;
          Alcotest.test_case "versions" `Quick test_mapping_versions;
          Alcotest.test_case "migrate unknown" `Quick test_mapping_migrate_unknown;
          Alcotest.test_case "lookup unknown" `Quick test_mapping_lookup_unknown;
          Alcotest.test_case "iter" `Quick test_mapping_iter;
          Alcotest.test_case "install range checked" `Quick
            test_mapping_install_range;
        ] );
      ( "packet",
        [
          Alcotest.test_case "data initial state" `Quick test_packet_data_initial_state;
          Alcotest.test_case "control packets" `Quick test_packet_control;
          Alcotest.test_case "control kind checked" `Quick test_packet_control_kind_checked;
          QCheck_alcotest.to_alcotest flags_qcheck;
          Alcotest.test_case "rider range checked" `Quick test_packet_rider_range;
          Alcotest.test_case "blank is 15 fields" `Quick test_packet_size_pinned;
        ] );
      ( "flow",
        [
          Alcotest.test_case "packet count" `Quick test_flow_packet_count;
          Alcotest.test_case "custom packet size" `Quick test_flow_custom_pkt_bytes;
          Alcotest.test_case "invalid size" `Quick test_flow_invalid;
        ] );
      ( "wire",
        [
          Alcotest.test_case "plain data roundtrip" `Quick test_wire_roundtrip_plain_data;
          Alcotest.test_case "decorated roundtrip" `Quick test_wire_roundtrip_decorated;
          Alcotest.test_case "control roundtrip" `Quick test_wire_roundtrip_control;
          Alcotest.test_case "none pip sentinel" `Quick test_wire_none_pip;
          Alcotest.test_case "rejects garbage" `Quick test_wire_rejects_garbage;
          Alcotest.test_case "header overhead" `Quick test_wire_header_overhead;
          Alcotest.test_case "rider subsets roundtrip" `Quick
            test_wire_roundtrip_rider_subsets;
          Alcotest.test_case "rejects negative rider words" `Quick
            test_wire_rejects_negative_rider_words;
          QCheck_alcotest.to_alcotest wire_qcheck;
        ] );
      ( "handoff",
        [
          Alcotest.test_case "rider subsets roundtrip" `Quick
            test_handoff_roundtrip_rider_subsets;
        ] );
    ]
