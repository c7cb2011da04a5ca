let flag_resolved = 0x01
let flag_misdelivery = 0x02
let flag_gw_visited = 0x04
let flag_retransmit = 0x08
let flag_ecn = 0x10

let kind_code = function
  | Packet.Data -> 0
  | Packet.Ack -> 1
  | Packet.Learning -> 2
  | Packet.Invalidation -> 3

let kind_of_code = function
  | 0 -> Packet.Data
  | 1 -> Packet.Ack
  | 2 -> Packet.Learning
  | 3 -> Packet.Invalidation
  | c -> invalid_arg (Printf.sprintf "Wire.decode: unknown kind %d" c)

let tlv_misdelivery = 0x01
let tlv_spill = 0x02
let tlv_promo = 0x03
let tlv_mapping = 0x04

(* Serialization buffer helpers (big-endian, network order). *)
let put_u8 buf v = Buffer.add_char buf (Char.chr (v land 0xff))

let put_u32 buf v =
  put_u8 buf (v lsr 24);
  put_u8 buf (v lsr 16);
  put_u8 buf (v lsr 8);
  put_u8 buf v

let get_u8 b off =
  if off >= Bytes.length b then invalid_arg "Wire.decode: truncated";
  Char.code (Bytes.get b off)

let get_u32 b off =
  if off + 3 >= Bytes.length b then invalid_arg "Wire.decode: truncated";
  (get_u8 b off lsl 24)
  lor (get_u8 b (off + 1) lsl 16)
  lor (get_u8 b (off + 2) lsl 8)
  lor get_u8 b (off + 3)

(* A minimal IPv4 header: version/IHL, DSCP, total length, id,
   flags/frag, TTL, proto, checksum (0 in the simulator), src, dst. *)
let put_ipv4 buf ~src ~dst ~proto ~total_len =
  put_u8 buf 0x45;
  put_u8 buf 0;
  put_u8 buf (total_len lsr 8);
  put_u8 buf total_len;
  put_u32 buf 0 (* id + frag *);
  put_u8 buf 64 (* ttl *);
  put_u8 buf proto;
  put_u8 buf 0;
  put_u8 buf 0 (* checksum *);
  put_u32 buf src;
  put_u32 buf dst

let get_ipv4 b off =
  let vihl = get_u8 b off in
  if vihl <> 0x45 then invalid_arg "Wire.decode: bad IPv4 header";
  let src = get_u32 b (off + 12) in
  let dst = get_u32 b (off + 16) in
  (src, dst, off + 20)

let pip_wire pip =
  if Addr.Pip.is_none pip then 0xffff_fffe else Addr.Pip.to_int pip

let pip_unwire v = if v = 0xffff_fffe then Addr.Pip.none else Addr.Pip.of_int v

let encode (pkt : Packet.t) =
  let buf = Buffer.create 80 in
  (* Outer IPv4: physical addresses, protocol 4 = IP-in-IP. *)
  put_ipv4 buf
    ~src:(Addr.Pip.to_int pkt.Packet.src_pip)
    ~dst:(pip_wire pkt.Packet.dst_pip)
    ~proto:4 ~total_len:(20 + pkt.Packet.size);
  (* Option block. *)
  let flags =
    (if Packet.resolved pkt then flag_resolved else 0)
    lor (if pkt.Packet.misdelivery >= 0 then flag_misdelivery else 0)
    lor (if Packet.gw_visited pkt then flag_gw_visited else 0)
    lor (if Packet.retransmit pkt then flag_retransmit else 0)
    lor if Packet.ecn pkt then flag_ecn else 0
  in
  put_u8 buf flags;
  put_u8 buf (kind_code pkt.Packet.kind);
  put_u32 buf (if pkt.Packet.hit_switch < 0 then 0xffff_ffff else pkt.Packet.hit_switch);
  let tlv ty payload_words =
    put_u8 buf ty;
    put_u8 buf (4 * List.length payload_words);
    List.iter (put_u32 buf) payload_words
  in
  if pkt.Packet.misdelivery >= 0 then
    tlv tlv_misdelivery [ pkt.Packet.misdelivery ];
  if pkt.Packet.spill_vip >= 0 then
    tlv tlv_spill [ pkt.Packet.spill_vip; pkt.Packet.spill_pip ];
  if pkt.Packet.promo_vip >= 0 then
    tlv tlv_promo [ pkt.Packet.promo_vip; pkt.Packet.promo_pip ];
  if pkt.Packet.mapping_vip >= 0 then
    tlv tlv_mapping [ pkt.Packet.mapping_vip; pkt.Packet.mapping_pip ];
  put_u8 buf 0 (* end of options *);
  (* Inner IPv4: virtual addresses. *)
  put_ipv4 buf
    ~src:(Addr.Vip.to_int pkt.Packet.src_vip)
    ~dst:(Addr.Vip.to_int pkt.Packet.dst_vip)
    ~proto:6 ~total_len:pkt.Packet.size;
  put_u32 buf pkt.Packet.size;
  put_u32 buf pkt.Packet.seq;
  put_u32 buf (pkt.Packet.flow_id land 0xffff_ffff);
  put_u32 buf pkt.Packet.id;
  Buffer.to_bytes buf

let decode b =
  let src_pip, dst_pip, off = get_ipv4 b 0 in
  let flags = get_u8 b off in
  let kind = kind_of_code (get_u8 b (off + 1)) in
  let hit_switch_raw = get_u32 b (off + 2) in
  let off = off + 6 in
  (* TLVs until the 0 terminator. *)
  let misdelivery = ref (-1) in
  let spill_vip = ref (-1) and spill_pip = ref (-1) in
  let promo_vip = ref (-1) and promo_pip = ref (-1) in
  let mapping_vip = ref (-1) and mapping_pip = ref (-1) in
  let rec tlvs off =
    let ty = get_u8 b off in
    if ty = 0 then off + 1
    else begin
      let len = get_u8 b (off + 1) in
      let word i = get_u32 b (off + 2 + (4 * i)) in
      (* A (vip, pip) rider TLV. Its words are signed 32-bit, as
         [put_u32] writes a negative int; in memory -1 marks an absent
         rider, so a negative word is malformed, not a rider to drop. *)
      let rider name vr pr =
        if len <> 8 then invalid_arg ("Wire.decode: bad " ^ name ^ " TLV");
        let v = word 0 and p = word 1 in
        if v land 0x8000_0000 <> 0 || p land 0x8000_0000 <> 0 then
          invalid_arg ("Wire.decode: bad " ^ name ^ " TLV");
        vr := v;
        pr := p
      in
      (match ty with
      | t when t = tlv_misdelivery ->
          if len <> 4 then invalid_arg "Wire.decode: bad misdelivery TLV";
          misdelivery := word 0
      | t when t = tlv_spill -> rider "spill" spill_vip spill_pip
      | t when t = tlv_promo -> rider "promo" promo_vip promo_pip
      | t when t = tlv_mapping -> rider "mapping" mapping_vip mapping_pip
      | t -> invalid_arg (Printf.sprintf "Wire.decode: unknown TLV %d" t));
      tlvs (off + 2 + len)
    end
  in
  let off = tlvs off in
  let src_vip, dst_vip, off = get_ipv4 b off in
  let size = get_u32 b off in
  let seq = get_u32 b (off + 4) in
  let flow_id = get_u32 b (off + 8) in
  let id = get_u32 b (off + 12) in
  let flow_id = if flow_id = 0xffff_ffff then -1 else flow_id in
  let base =
    match kind with
    | Packet.Data ->
        Packet.make_data ~id ~flow_id ~seq ~size ~src_vip:(Addr.Vip.of_int src_vip)
          ~dst_vip:(Addr.Vip.of_int dst_vip) ~src_pip:(Addr.Pip.of_int src_pip)
          ~dst_pip:(pip_unwire dst_pip) ~now:0
    | Packet.Ack ->
        Packet.make_ack ~id ~flow_id ~seq ~src_vip:(Addr.Vip.of_int src_vip)
          ~dst_vip:(Addr.Vip.of_int dst_vip) ~src_pip:(Addr.Pip.of_int src_pip)
          ~dst_pip:(pip_unwire dst_pip) ~now:0
    | Packet.Learning | Packet.Invalidation ->
        if !mapping_vip < 0 then
          invalid_arg "Wire.decode: control packet without mapping TLV";
        Packet.make_control ~id ~kind
          ~mapping:(Addr.Vip.of_int !mapping_vip, Addr.Pip.of_int !mapping_pip)
          ~src_pip:(Addr.Pip.of_int src_pip) ~dst_pip:(pip_unwire dst_pip)
          ~now:0
  in
  Packet.set_resolved base (flags land flag_resolved <> 0);
  Packet.set_gw_visited base (flags land flag_gw_visited <> 0);
  Packet.set_retransmit base (flags land flag_retransmit <> 0);
  Packet.set_ecn base (flags land flag_ecn <> 0);
  if flags land flag_misdelivery <> 0 then
    base.Packet.misdelivery <- !misdelivery;
  base.Packet.hit_switch <-
    (if hit_switch_raw = 0xffff_ffff then -1 else hit_switch_raw);
  base.Packet.spill_vip <- !spill_vip;
  base.Packet.spill_pip <- !spill_pip;
  base.Packet.promo_vip <- !promo_vip;
  base.Packet.promo_pip <- !promo_pip;
  base.Packet.mapping_vip <- !mapping_vip;
  base.Packet.mapping_pip <- !mapping_pip;
  base

let header_bytes pkt = Bytes.length (encode pkt)
