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
  mutable resolved : bool;
  mutable misdelivery : int;
  mutable gw_pinned : bool;
  mutable hit_switch : int;
  mutable spill_vip : int;
  mutable spill_pip : int;
  mutable promo_vip : int;
  mutable promo_pip : int;
  mutable mapping_vip : int;
  mutable mapping_pip : int;
  mutable ecn : bool;
  mutable hops : int;
  mutable gw_visited : bool;
  mutable sent_at : Dessim.Time_ns.t;
  mutable retransmit : bool;
  mutable pool_slot : int;
}

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
    resolved = false;
    misdelivery = -1;
    gw_pinned = false;
    hit_switch = -1;
    spill_vip = -1;
    spill_pip = -1;
    promo_vip = -1;
    promo_pip = -1;
    mapping_vip = -1;
    mapping_pip = -1;
    ecn = false;
    hops = 0;
    gw_visited = false;
    sent_at = now;
    retransmit = false;
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
  t.resolved <- false;
  t.misdelivery <- -1;
  t.gw_pinned <- false;
  t.hit_switch <- -1;
  t.spill_vip <- -1;
  t.spill_pip <- -1;
  t.promo_vip <- -1;
  t.promo_pip <- -1;
  t.mapping_vip <- -1;
  t.mapping_pip <- -1;
  t.ecn <- false;
  t.hops <- 0;
  t.gw_visited <- false;
  t.sent_at <- now;
  t.retransmit <- false

let make_data ~id ~flow_id ~seq ~size ~src_vip ~dst_vip ~src_pip ~dst_pip ~now
    =
  base ~id ~flow_id ~kind:Data ~size ~seq ~src_vip ~dst_vip ~src_pip ~dst_pip
    ~now

let make_ack ~id ~flow_id ~seq ~src_vip ~dst_vip ~src_pip ~dst_pip ~now =
  base ~id ~flow_id ~kind:Ack ~size:ack_size ~seq ~src_vip ~dst_vip ~src_pip
    ~dst_pip ~now

let make_control ~id ~kind ~mapping ~src_pip ~dst_pip ~now =
  (match kind with
  | Learning | Invalidation -> ()
  | Data | Ack -> invalid_arg "Packet.make_control: not a control kind");
  let vip, pip = mapping in
  let p =
    base ~id ~flow_id:(-1) ~kind ~size:control_size ~seq:0 ~src_vip:vip
      ~dst_vip:vip ~src_pip ~dst_pip ~now
  in
  p.mapping_vip <- Addr.Vip.to_int vip;
  p.mapping_pip <- Addr.Pip.to_int pip;
  (* Control packets travel on physical addresses only; they are
     "resolved" so no cache ever rewrites them. *)
  p.resolved <- true;
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
    (if t.resolved then " R" else "")
    (if t.misdelivery >= 0 then " MD" else "")
