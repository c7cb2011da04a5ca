module Packet = Netcore.Packet
module Pip = Netcore.Addr.Pip
module Cache = Switchv2p.Cache

type t = { caches : Cache.t option array }

let create ~switches ~total_slots ~num_nodes =
  if total_slots < 0 then invalid_arg "Learning_cache.create: negative slots";
  Array.iter
    (fun sw ->
      if sw < 0 || sw >= num_nodes then
        invalid_arg
          (Printf.sprintf
             "Learning_cache.create: switch id %d out of range for %d nodes"
             sw num_nodes))
    switches;
  let caches = Array.make num_nodes None in
  let n = Array.length switches in
  if n > 0 then begin
    let base = total_slots / n and remainder = total_slots mod n in
    Array.iteri
      (fun i sw ->
        let slots = base + if i < remainder then 1 else 0 in
        caches.(sw) <- Some (Cache.create ~ways:1 ~slots))
      switches
  end;
  { caches }

let cache t ~switch = t.caches.(switch)

let fail_switch t ~switch =
  match t.caches.(switch) with None -> () | Some c -> Cache.clear c

(* Lookup stage: tagged packets only clean up (they are resolved by
   the gateway); unresolved packets consult the cache. *)
let lookup t ~switch (pkt : Packet.t) =
  match t.caches.(switch) with
  | None -> ()
  | Some cache -> (
      match Packet.kind pkt with
      | Packet.Data | Packet.Ack ->
          if pkt.Packet.misdelivery >= 0 then
            ignore
              (Cache.invalidate cache pkt.Packet.dst_vip
                 ~stale:(Pip.of_int pkt.Packet.misdelivery))
          else if not (Packet.resolved pkt || Packet.gw_pinned pkt) then begin
            let r = Cache.lookup cache pkt.Packet.dst_vip in
            if r >= 0 then begin
              pkt.Packet.dst_pip <- Cache.hit_pip r;
              Packet.set_resolved pkt true;
              pkt.Packet.hit_switch <- switch
            end
          end
      | Packet.Learning | Packet.Invalidation -> ())

(* Learn stage: destination learning, admit-all (ACKs are tunneled
   tenant packets and teach reverse-direction mappings too). *)
let learn t ~switch (pkt : Packet.t) =
  match t.caches.(switch) with
  | None -> ()
  | Some cache ->
      let tenant =
        match Packet.kind pkt with
        | Packet.Data | Packet.Ack -> true
        | Packet.Learning | Packet.Invalidation -> false
      in
      if Packet.resolved pkt && tenant then
        ignore
          (Cache.insert cache ~admission:`All pkt.Packet.dst_vip
             pkt.Packet.dst_pip)

let on_switch t ~switch (pkt : Packet.t) =
  lookup t ~switch pkt;
  learn t ~switch pkt

let fold_caches t f init =
  Array.fold_left
    (fun acc c -> match c with Some cache -> f acc cache | None -> acc)
    init t.caches

let total_hits t = fold_caches t (fun acc c -> acc + Cache.hits c) 0
let total_misses t = fold_caches t (fun acc c -> acc + Cache.misses c) 0
