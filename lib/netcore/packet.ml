type kind = Data | Ack | Learning | Invalidation

type t = {
  mutable id : int;
  mutable flow_id : int;
  mutable kind : kind;
  mutable size : int;
  mutable seq : int;
  mutable src_vip : Addr.Vip.t;
  mutable dst_vip : Addr.Vip.t;
  mutable src_pip : Addr.Pip.t;
  mutable dst_pip : Addr.Pip.t;
  mutable flags : int;
  mutable misdelivery : int;
  mutable hit_switch : int;
  mutable spill_vip : int;
  mutable spill_pip : int;
  mutable promo_vip : int;
  mutable promo_pip : int;
  mutable mapping_vip : int;
  mutable mapping_pip : int;
  mutable sent_at : Dessim.Time_ns.t;
  mutable pool_slot : int;
}

(* [flags]: five bits, then the hop count from bit [hops_shift] up. *)
let flag_resolved = 1
let flag_gw_pinned = 2
let flag_ecn = 4
let flag_gw_visited = 8
let flag_retransmit = 16
let hops_shift = 5
let bits_mask = (1 lsl hops_shift) - 1

let[@inline] set_bit t bit v =
  t.flags <- (if v then t.flags lor bit else t.flags land lnot bit)

let[@inline] resolved t = t.flags land flag_resolved <> 0
let[@inline] gw_pinned t = t.flags land flag_gw_pinned <> 0
let[@inline] ecn t = t.flags land flag_ecn <> 0
let[@inline] gw_visited t = t.flags land flag_gw_visited <> 0
let[@inline] retransmit t = t.flags land flag_retransmit <> 0
let[@inline] hops t = t.flags lsr hops_shift
let[@inline] set_resolved t v = set_bit t flag_resolved v
let[@inline] set_gw_pinned t v = set_bit t flag_gw_pinned v
let[@inline] set_ecn t v = set_bit t flag_ecn v
let[@inline] set_gw_visited t v = set_bit t flag_gw_visited v
let[@inline] set_retransmit t v = set_bit t flag_retransmit v

let[@inline] set_hops t n =
  t.flags <- (t.flags land bits_mask) lor (n lsl hops_shift)

let mtu = 1500
let ack_size = 64
let control_size = 64

let base ~id ~flow_id ~kind ~size ~seq ~src_vip ~dst_vip ~src_pip ~dst_pip
    ~now =
  {
    id;
    flow_id;
    kind;
    size;
    seq;
    src_vip;
    dst_vip;
    src_pip;
    dst_pip;
    flags = 0;
    misdelivery = -1;
    hit_switch = -1;
    spill_vip = -1;
    spill_pip = -1;
    promo_vip = -1;
    promo_pip = -1;
    mapping_vip = -1;
    mapping_pip = -1;
    sent_at = now;
    pool_slot = -1;
  }

(* Re-initialize a recycled packet in place: every field [base] sets is
   rewritten (the pool's [pool_slot] is the one field that survives).
   Keeping this next to [base] so the two field lists stay in sync. *)
let reset t ~id ~flow_id ~kind ~size ~seq ~src_vip ~dst_vip ~src_pip ~dst_pip
    ~now =
  t.id <- id;
  t.flow_id <- flow_id;
  t.kind <- kind;
  t.size <- size;
  t.seq <- seq;
  t.src_vip <- src_vip;
  t.dst_vip <- dst_vip;
  t.src_pip <- src_pip;
  t.dst_pip <- dst_pip;
  t.flags <- 0;
  t.misdelivery <- -1;
  t.hit_switch <- -1;
  t.spill_vip <- -1;
  t.spill_pip <- -1;
  t.promo_vip <- -1;
  t.promo_pip <- -1;
  t.mapping_vip <- -1;
  t.mapping_pip <- -1;
  t.sent_at <- now

let fresh () =
  base ~id:(-1) ~flow_id:(-1) ~kind:Data ~size:0 ~seq:0
    ~src_vip:(Addr.Vip.of_int 0) ~dst_vip:(Addr.Vip.of_int 0)
    ~src_pip:Addr.Pip.none ~dst_pip:Addr.Pip.none ~now:0

(* Every field is an immediate, so the copy pins nothing young. *)
external copy_major : t -> t = "netcore_packet_copy_major"

let template = fresh ()
let blank () = copy_major template

let make_data ~id ~flow_id ~seq ~size ~src_vip ~dst_vip ~src_pip ~dst_pip ~now
    =
  base ~id ~flow_id ~kind:Data ~size ~seq ~src_vip ~dst_vip ~src_pip ~dst_pip
    ~now

let make_ack ~id ~flow_id ~seq ~src_vip ~dst_vip ~src_pip ~dst_pip ~now =
  base ~id ~flow_id ~kind:Ack ~size:ack_size ~seq ~src_vip ~dst_vip ~src_pip
    ~dst_pip ~now

let reset_control t ~id ~kind ~mapping_vip ~mapping_pip ~src_pip ~dst_pip ~now =
  (match kind with
  | Learning | Invalidation -> ()
  | Data | Ack -> invalid_arg "Packet.make_control: not a control kind");
  reset t ~id ~flow_id:(-1) ~kind ~size:control_size ~seq:0
    ~src_vip:mapping_vip ~dst_vip:mapping_vip ~src_pip ~dst_pip ~now;
  t.mapping_vip <- Addr.Vip.to_int mapping_vip;
  t.mapping_pip <- Addr.Pip.to_int mapping_pip;
  (* Control packets travel on physical addresses only; they are
     "resolved" so no cache ever rewrites them. *)
  set_resolved t true

let make_control ~id ~kind ~mapping:(mapping_vip, mapping_pip) ~src_pip
    ~dst_pip ~now =
  let p = fresh () in
  reset_control p ~id ~kind ~mapping_vip ~mapping_pip ~src_pip ~dst_pip ~now;
  p

let is_data t = match t.kind with Data -> true | Ack | Learning | Invalidation -> false

let pp_kind ppf = function
  | Data -> Format.pp_print_string ppf "data"
  | Ack -> Format.pp_print_string ppf "ack"
  | Learning -> Format.pp_print_string ppf "learn"
  | Invalidation -> Format.pp_print_string ppf "inval"

let pp ppf t =
  Format.fprintf ppf "#%d %a flow=%d seq=%d %a->%a outer:%a->%a%s%s" t.id
    pp_kind t.kind t.flow_id t.seq Addr.Vip.pp t.src_vip Addr.Vip.pp t.dst_vip
    Addr.Pip.pp t.src_pip Addr.Pip.pp t.dst_pip
    (if resolved t then " R" else "")
    (if t.misdelivery >= 0 then " MD" else "")
