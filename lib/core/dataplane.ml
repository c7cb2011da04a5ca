module Time_ns = Dessim.Time_ns
module Rng = Dessim.Rng
module Packet = Netcore.Packet
module Pip = Netcore.Addr.Pip
module Vip = Netcore.Addr.Vip

type env = {
  now : unit -> Time_ns.t;
  emit : src_switch:int -> Packet.t -> unit;
  fresh_packet_id : unit -> int;
  pooled_packet : unit -> Packet.t;
  rng : Rng.t;
}

type switch_state = {
  sw_id : int;
  mutable role : Topo.Node.role;
      (* mutable: gateway migration reassigns ToR/spine roles (§4) *)
  caches : Geo_cache.t array; (* one private partition per tenant *)
  ts_vector : Ts_vector.t option; (* ToRs only *)
}

type t = {
  cfg : Config.t;
  topo : Topo.Topology.t;
  partition : Partition.t;
  states : switch_state array;
      (* indexed by node id; endpoints hold [no_switch] *)
  mutable telemetry : Dessim.Telemetry.t; (* flight recorder; off by default *)
  mutable learning_packets_sent : int;
  mutable invalidation_packets_sent : int;
  mutable promotions : int;
  mutable spills_attached : int;
  mutable spills_absorbed : int;
  mutable entries_invalidated : int;
  mutable misdelivery_tags : int;
}

type verdict = Forward | Consume

let config t = t.cfg

(* The [states] entry of every non-switch node: a flat array with a
   sentinel instead of [switch_state option], so the per-hop [state]
   fetch is one load and one compare. *)
let no_switch =
  { sw_id = -1; role = Topo.Node.Core_switch; caches = [||]; ts_vector = None }

let role_weight (alloc : Config.allocation) (role : Topo.Node.role) =
  match alloc with
  | Config.Uniform -> 1.0
  | Config.Tor_only -> (
      match role with
      | Topo.Node.Regular_tor | Topo.Node.Gateway_tor -> 1.0
      | Topo.Node.Regular_spine | Topo.Node.Gateway_spine
      | Topo.Node.Core_switch ->
          0.0)
  | Config.Weighted w -> (
      match role with
      | Topo.Node.Regular_tor -> w.tor
      | Topo.Node.Gateway_tor -> w.gw_tor
      | Topo.Node.Regular_spine -> w.spine
      | Topo.Node.Gateway_spine -> w.gw_spine
      | Topo.Node.Core_switch -> w.core)

(* Split [total] slots proportionally to per-switch weights; floor each
   share and hand the remainder out round-robin among positive-weight
   switches so the total is conserved exactly. Float error in the share
   computation can leave the floored sum on either side of [total], so
   the correction loop must both hand out missing slots and claw back
   excess ones. *)
let distribute_slots cfg topo ~total =
  let switches = Topo.Topology.switches topo in
  let weights =
    Array.map
      (fun sw ->
        let w = role_weight cfg.Config.allocation (Topo.Topology.role topo sw) in
        if w < 0.0 then invalid_arg "Dataplane.create: negative role weight";
        w)
      switches
  in
  let sum = Array.fold_left ( +. ) 0.0 weights in
  let slots_for = Hashtbl.create (Array.length switches) in
  if sum <= 0.0 then
    Array.iter (fun sw -> Hashtbl.replace slots_for sw 0) switches
  else begin
    let assigned = ref 0 in
    Array.iteri
      (fun i sw ->
        let share =
          int_of_float (float_of_int total *. weights.(i) /. sum)
        in
        assigned := !assigned + share;
        Hashtbl.replace slots_for sw share)
      switches;
    let leftover = ref (total - !assigned) in
    let i = ref 0 in
    while !leftover > 0 do
      if weights.(!i mod Array.length switches) > 0.0 then begin
        let sw = switches.(!i mod Array.length switches) in
        Hashtbl.replace slots_for sw (1 + Hashtbl.find slots_for sw);
        decr leftover
      end;
      incr i
    done;
    while !leftover < 0 do
      let sw = switches.(!i mod Array.length switches) in
      if weights.(!i mod Array.length switches) > 0.0 then begin
        let have = Hashtbl.find slots_for sw in
        if have > 0 then begin
          Hashtbl.replace slots_for sw (have - 1);
          incr leftover
        end
      end;
      incr i
    done
  end;
  slots_for

let create ?(partition = Partition.single) cfg topo ~total_cache_slots =
  if total_cache_slots < 0 then
    invalid_arg "Dataplane.create: negative cache size";
  let slots_for = distribute_slots cfg topo ~total:total_cache_slots in
  let num_nodes = Topo.Topology.num_nodes topo in
  let base_rtt = Topo.Params.base_rtt (Topo.Topology.params topo) in
  let states = Array.make num_nodes no_switch in
  (* Switch ids are contiguous above the endpoints; size timestamp
     vectors to the switch range, not the whole node space. *)
  let all_switches = Topo.Topology.switches topo in
  let first_switch =
    Array.fold_left min num_nodes all_switches
  in
  let num_switches = Array.length all_switches in
  Array.iter
    (fun sw ->
      let role = Topo.Topology.role topo sw in
      let slots = match Hashtbl.find_opt slots_for sw with Some s -> s | None -> 0 in
      let ts_vector =
        match role with
        | Topo.Node.Regular_tor | Topo.Node.Gateway_tor ->
            Some (Ts_vector.create ~first_switch ~num_switches ~base_rtt ())
        | Topo.Node.Regular_spine | Topo.Node.Gateway_spine | Topo.Node.Core_switch
          ->
            None
      in
      let caches =
        Array.map
          (fun tenant_slots ->
            Geo_cache.create ~ways:cfg.Config.ways ~tinylfu:cfg.Config.tinylfu
              ~slots:tenant_slots)
          (Partition.split_slots partition ~slots)
      in
      states.(sw) <- { sw_id = sw; role; caches; ts_vector })
    (Topo.Topology.switches topo);
  {
    cfg;
    topo;
    partition;
    states;
    telemetry = Dessim.Telemetry.disabled;
    learning_packets_sent = 0;
    invalidation_packets_sent = 0;
    promotions = 0;
    spills_attached = 0;
    spills_absorbed = 0;
    entries_invalidated = 0;
    misdelivery_tags = 0;
  }

let state t switch =
  let st = t.states.(switch) in
  if st.sw_id < 0 then invalid_arg "Dataplane: node is not a switch";
  st

let set_telemetry t tel = t.telemetry <- tel

(* Flight recorder: hop-by-hop resolution events for sampled packets. *)
let flight t env st (pkt : Packet.t) event =
  if Dessim.Telemetry.should_trace t.telemetry ~pkt:pkt.Packet.id then
    Dessim.Telemetry.trace t.telemetry
      ~now_sec:(Time_ns.to_sec (env.now ()))
      ~pkt:pkt.Packet.id ~node:st.sw_id event

let role_tier_name = function
  | Topo.Node.Gateway_tor -> "gw_tor"
  | Topo.Node.Gateway_spine -> "gw_spine"
  | Topo.Node.Regular_tor -> "tor"
  | Topo.Node.Regular_spine -> "spine"
  | Topo.Node.Core_switch -> "core"

(* Per-tier cumulative cache statistics, sampled into telemetry series
   (one probe call = one point per tier and statistic). *)
let probe_telemetry t tel ~now_sec =
  if Dessim.Telemetry.is_enabled tel then begin
    let tiers = Hashtbl.create 5 in
    Array.iter
      (fun st ->
        if st.sw_id >= 0 then begin
          let acc =
            match Hashtbl.find_opt tiers st.role with
            | Some acc -> acc
            | None ->
                let acc = Array.make 6 0 in
                Hashtbl.add tiers st.role acc;
                acc
          in
          Array.iter
            (fun c ->
              acc.(0) <- acc.(0) + Geo_cache.occupancy c;
              acc.(1) <- acc.(1) + Geo_cache.hits c;
              acc.(2) <- acc.(2) + Geo_cache.misses c;
              acc.(3) <- acc.(3) + Geo_cache.evictions c;
              acc.(4) <- acc.(4) + Geo_cache.rejections c;
              acc.(5) <- acc.(5) + Geo_cache.insertions c)
            st.caches
        end)
      t.states;
    List.iter
      (fun role ->
        match Hashtbl.find_opt tiers role with
        | None -> ()
        | Some acc ->
            let tier = role_tier_name role in
            let stat i name =
              Dessim.Telemetry.sample tel
                (Printf.sprintf "tier/%s/%s" tier name)
                ~now_sec
                (float_of_int acc.(i))
            in
            stat 0 "occupancy";
            stat 1 "hits";
            stat 2 "misses";
            stat 3 "evictions";
            stat 4 "rejections";
            stat 5 "insertions")
      [
        Topo.Node.Gateway_tor; Topo.Node.Gateway_spine; Topo.Node.Regular_tor;
        Topo.Node.Regular_spine; Topo.Node.Core_switch;
      ]
  end

(* The cache partition owning [vip] at this switch. *)
let cache_for t st vip = st.caches.(Partition.tenant_of t.partition vip)

let geo_cache t ~switch = (state t switch).caches.(0)

let cache t ~switch = Geo_cache.table (state t switch).caches.(0)

let cache_of_tenant t ~switch ~tenant =
  let st = state t switch in
  if tenant < 0 || tenant >= Array.length st.caches then
    invalid_arg "Dataplane.cache_of_tenant: tenant out of range";
  Geo_cache.table st.caches.(tenant)

let slots_of t ~switch =
  Array.fold_left
    (fun acc c -> acc + Geo_cache.slots c)
    0 (state t switch).caches
let learning_packets_sent t = t.learning_packets_sent
let invalidation_packets_sent t = t.invalidation_packets_sent

let invalidations_suppressed t =
  Array.fold_left
    (fun acc st ->
      match st.ts_vector with
      | Some v -> acc + Ts_vector.suppressed v
      | None -> acc)
    0 t.states

let promotions t = t.promotions
let spills_attached t = t.spills_attached
let spills_absorbed t = t.spills_absorbed
let entries_invalidated t = t.entries_invalidated
let misdelivery_tags t = t.misdelivery_tags

let admission_of_role = function
  | Topo.Node.Gateway_tor | Topo.Node.Regular_tor -> `All
  | Topo.Node.Gateway_spine | Topo.Node.Regular_spine | Topo.Node.Core_switch ->
      `A_bit_clear

(* Insert a mapping and, when enabled and the packet has room, turn the
   evicted occupant into a spillover rider. Takes the packet directly
   (not an option), and both the insert result and the rider are
   unboxed ints: this runs on the per-hop path, which must not
   allocate. Install paths with no carrier packet use
   [insert_no_spill]. *)
let insert_with_spill t env st (pkt : Packet.t) ~admission vip pip =
  let cache = cache_for t st vip in
  let evicted = Geo_cache.insert cache ~admission vip pip in
  if evicted >= 0 && t.cfg.Config.spillover && pkt.Packet.spill_vip < 0 then
  begin
    pkt.Packet.spill_vip <- evicted;
    pkt.Packet.spill_pip <- Pip.to_int (Geo_cache.evicted_pip cache);
    t.spills_attached <- t.spills_attached + 1;
    flight t env st pkt "spilled"
  end

(* Same insert, but with no carrier packet to attach spillover to
   (learning-packet installs). *)
let insert_no_spill t st ~admission vip pip =
  ignore (Geo_cache.insert (cache_for t st vip) ~admission vip pip : int)

let rewrite_to st (pkt : Packet.t) pip =
  pkt.Packet.dst_pip <- pip;
  Packet.set_resolved pkt true;
  pkt.Packet.hit_switch <- st.sw_id

(* §3.3: on assigning a misdelivery tag the ToR targets an invalidation
   packet at the switch that served the stale mapping. *)
let send_invalidation t env st ~target ~vip ~stale =
  if target >= 0 && target <> st.sw_id && t.cfg.Config.invalidations then begin
    let allowed =
      if not t.cfg.Config.ts_vector then true
      else
        match st.ts_vector with
        | Some v -> Ts_vector.should_send v ~switch:target ~now:(env.now ())
        | None -> true
    in
    if allowed then begin
      let pkt = env.pooled_packet () in
      Packet.reset_control pkt ~id:(env.fresh_packet_id ())
        ~kind:Packet.Invalidation ~mapping_vip:vip ~mapping_pip:stale
        ~src_pip:(Topo.Topology.pip t.topo st.sw_id)
        ~dst_pip:(Topo.Topology.pip t.topo target)
        ~now:(env.now ());
      t.invalidation_packets_sent <- t.invalidation_packets_sent + 1;
      env.emit ~src_switch:st.sw_id pkt
    end
  end

let maybe_send_learning_packet t env st (pkt : Packet.t) =
  if
    t.cfg.Config.learning_packets
    && Rng.bernoulli env.rng t.cfg.Config.p_learn
  then begin
    let sender = Topo.Topology.node_of_pip t.topo pkt.Packet.src_pip in
    if
      sender >= 0
      && sender < Topo.Topology.num_nodes t.topo
      && Topo.Topology.is_endpoint t.topo sender
    then begin
      let sender_tor = Topo.Topology.tor_of t.topo sender in
      if sender_tor <> st.sw_id then begin
        let lp = env.pooled_packet () in
        Packet.reset_control lp ~id:(env.fresh_packet_id ())
          ~kind:Packet.Learning ~mapping_vip:pkt.Packet.dst_vip
          ~mapping_pip:pkt.Packet.dst_pip
          ~src_pip:(Topo.Topology.pip t.topo st.sw_id)
          ~dst_pip:(Topo.Topology.pip t.topo sender_tor)
          ~now:(env.now ());
        t.learning_packets_sent <- t.learning_packets_sent + 1;
        env.emit ~src_switch:st.sw_id lp
      end
    end
  end

(* Tagged packets re-check the cache specially: a cached value equal to
   the stale PIP is invalidated; a different cached value is trusted
   (the switch already learned the new location). A single [Cache.lookup]
   keeps the hit/miss counters consistent with the regular path — the
   old peek-then-lookup sequence bumped the hit counter twice on the
   trusted path and recorded no miss when the VIP was absent. *)
let handle_tagged t env st (pkt : Packet.t) =
  let cache = cache_for t st pkt.Packet.dst_vip in
  let r = Geo_cache.lookup cache pkt.Packet.dst_vip in
  if r >= 0 then begin
    let stale = pkt.Packet.misdelivery in
    if r lsr 1 = stale then begin
      if
        Geo_cache.invalidate cache pkt.Packet.dst_vip ~stale:(Pip.of_int stale)
      then begin
        t.entries_invalidated <- t.entries_invalidated + 1;
        flight t env st pkt "invalidated"
      end
    end
    else if not (Packet.gw_pinned pkt) then begin
      rewrite_to st pkt (Cache.hit_pip r);
      flight t env st pkt "hit"
    end
  end

(* A pinned packet (misdelivered at its own source host, where the
   ToR's outer-source heuristic cannot tag it) must reach the gateway
   untranslated; a cached value equal to its source is the very entry
   that hairpinned it, so it is provably stale. *)
let handle_pinned t env st (pkt : Packet.t) =
  let cache = cache_for t st pkt.Packet.dst_vip in
  let r = Geo_cache.lookup cache pkt.Packet.dst_vip in
  if
    r >= 0
    && r lsr 1 = Pip.to_int pkt.Packet.src_pip
    && Geo_cache.invalidate cache pkt.Packet.dst_vip ~stale:pkt.Packet.src_pip
  then begin
    t.entries_invalidated <- t.entries_invalidated + 1;
    flight t env st pkt "invalidated"
  end

let regular_lookup t env st (pkt : Packet.t) =
  let r =
    Geo_cache.lookup (cache_for t st pkt.Packet.dst_vip) pkt.Packet.dst_vip
  in
  if r >= 0 then begin
    let pip = Cache.hit_pip r in
    rewrite_to st pkt pip;
    flight t env st pkt "hit";
    (* Promotion: a popular entry hit at a regular spine by a packet
       leaving the pod rides to the core tier. *)
    if
      t.cfg.Config.promotion && st.role = Topo.Node.Regular_spine
      && Cache.hit_bit r
      && pkt.Packet.promo_vip < 0
    then begin
      let dst_node = Topo.Topology.node_of_pip t.topo pip in
      if Topo.Topology.pod t.topo dst_node <> Topo.Topology.pod t.topo st.sw_id
      then begin
        pkt.Packet.promo_vip <- Vip.to_int pkt.Packet.dst_vip;
        pkt.Packet.promo_pip <- Pip.to_int pip;
        t.promotions <- t.promotions + 1;
        flight t env st pkt "promoted"
      end
    end
  end

let absorb_spill t env st (pkt : Packet.t) =
  if pkt.Packet.spill_vip >= 0 && t.cfg.Config.spillover then begin
    let vip = Vip.of_int pkt.Packet.spill_vip in
    let cache = cache_for t st vip in
    if
      Geo_cache.slots cache > 0
      && Geo_cache.insert cache ~admission:(admission_of_role st.role) vip
           (Pip.of_int pkt.Packet.spill_pip)
         <> Cache.ins_rejected
    then begin
      pkt.Packet.spill_vip <- -1;
      pkt.Packet.spill_pip <- -1;
      t.spills_absorbed <- t.spills_absorbed + 1;
      flight t env st pkt "spill_absorbed"
    end
  end

(* Role-dependent learning (Table 1). The gateway-ToR's learning
   packet is NOT sent here — that is the emit stage's job, so the
   stage split matches the paper's pipeline (admission before
   control-packet generation). *)
let learn t env st (pkt : Packet.t) =
  match st.role with
  | Topo.Node.Gateway_tor ->
      if Packet.resolved pkt then
        insert_with_spill t env st pkt ~admission:`All
          pkt.Packet.dst_vip pkt.Packet.dst_pip
  | Topo.Node.Gateway_spine ->
      if Packet.resolved pkt then
        insert_with_spill t env st pkt ~admission:`A_bit_clear
          pkt.Packet.dst_vip pkt.Packet.dst_pip
  | Topo.Node.Regular_tor ->
      if t.cfg.Config.source_learning then
        insert_with_spill t env st pkt ~admission:`All
          pkt.Packet.src_vip pkt.Packet.src_pip
  | Topo.Node.Regular_spine ->
      if Packet.resolved pkt then
        insert_with_spill t env st pkt ~admission:`A_bit_clear
          pkt.Packet.dst_vip pkt.Packet.dst_pip
  | Topo.Node.Core_switch ->
      if pkt.Packet.promo_vip >= 0 && t.cfg.Config.promotion then begin
        insert_with_spill t env st pkt ~admission:`A_bit_clear
          (Vip.of_int pkt.Packet.promo_vip)
          (Pip.of_int pkt.Packet.promo_pip);
        pkt.Packet.promo_vip <- -1;
        pkt.Packet.promo_pip <- -1
      end

(* The four pipeline stages (classify -> lookup -> learn -> emit).
   Each returns an int {!Verdict}; [Verdict.next] means "no final
   verdict, run the following stage". Control packets are fully
   handled by [classify]; data/ack packets flow through all four
   stages and end up forwarded. Stage order must not change: it fixes
   the RNG draw sequence (learning-packet coin flips) and hence the
   golden event transcripts. *)

let classify t env ~switch ~from (pkt : Packet.t) =
  let st = state t switch in
  match pkt.Packet.kind with
  | Packet.Learning ->
      if Pip.equal pkt.Packet.dst_pip (Topo.Topology.pip t.topo switch)
      then begin
        if pkt.Packet.mapping_vip >= 0 then
          insert_no_spill t st ~admission:`All
            (Vip.of_int pkt.Packet.mapping_vip)
            (Pip.of_int pkt.Packet.mapping_pip);
        Verdict.consume
      end
      else Verdict.forward
  | Packet.Invalidation ->
      if pkt.Packet.mapping_vip >= 0 then begin
        let vip = Vip.of_int pkt.Packet.mapping_vip in
        if
          Geo_cache.invalidate (cache_for t st vip) vip
            ~stale:(Pip.of_int pkt.Packet.mapping_pip)
        then begin
          t.entries_invalidated <- t.entries_invalidated + 1;
          flight t env st pkt "invalidated"
        end
      end;
      if Pip.equal pkt.Packet.dst_pip (Topo.Topology.pip t.topo switch)
      then Verdict.consume
      else Verdict.forward
  | Packet.Data | Packet.Ack ->
      (* Misdelivery tagging: a packet entering from an attached
         server (a host, not a gateway, whose ToR is this switch) whose
         outer source is not that server was re-forwarded by the
         hypervisor after a misdelivery. *)
      if
        Topo.Topology.tag t.topo from = Topo.Topology.tag_host
        && Topo.Topology.tor_of t.topo from = switch
        && not (Pip.equal pkt.Packet.src_pip (Topo.Topology.pip t.topo from))
        && pkt.Packet.misdelivery < 0
      then begin
        let stale = Topo.Topology.pip t.topo from in
        pkt.Packet.misdelivery <- Pip.to_int stale;
        t.misdelivery_tags <- t.misdelivery_tags + 1;
        flight t env st pkt "tagged";
        let target = pkt.Packet.hit_switch in
        pkt.Packet.hit_switch <- -1;
        send_invalidation t env st ~target ~vip:pkt.Packet.dst_vip ~stale
      end;
      Verdict.next

let lookup t env ~switch ~from:_ (pkt : Packet.t) =
  (match pkt.Packet.kind with
  | Packet.Data | Packet.Ack ->
      (* Tagged packets use the conservative variant. *)
      if not (Packet.resolved pkt) then begin
        let st = state t switch in
        if pkt.Packet.misdelivery >= 0 then handle_tagged t env st pkt
        else if Packet.gw_pinned pkt then handle_pinned t env st pkt
        else regular_lookup t env st pkt
      end
  | Packet.Learning | Packet.Invalidation -> ());
  Verdict.next

let admit t env ~switch ~from:_ (pkt : Packet.t) =
  (match pkt.Packet.kind with
  | Packet.Data | Packet.Ack ->
      let st = state t switch in
      (* Spillover absorption, then role-dependent learning. *)
      absorb_spill t env st pkt;
      learn t env st pkt
  | Packet.Learning | Packet.Invalidation -> ());
  Verdict.next

let emit t env ~switch ~from:_ (pkt : Packet.t) =
  (match pkt.Packet.kind with
  | Packet.Data | Packet.Ack -> (
      let st = state t switch in
      match st.role with
      | Topo.Node.Gateway_tor ->
          if Packet.resolved pkt then maybe_send_learning_packet t env st pkt
      | Topo.Node.Gateway_spine | Topo.Node.Regular_tor
      | Topo.Node.Regular_spine | Topo.Node.Core_switch ->
          ())
  | Packet.Learning | Packet.Invalidation -> ());
  Verdict.next

let process_packed t env ~switch ~from (pkt : Packet.t) =
  let v = classify t env ~switch ~from pkt in
  if v <> Verdict.next then v
  else begin
    (* The remaining stages never yield a final verdict for data/ack
       traffic; data packets always keep forwarding. *)
    ignore (lookup t env ~switch ~from pkt : int);
    ignore (admit t env ~switch ~from pkt : int);
    ignore (emit t env ~switch ~from pkt : int);
    Verdict.forward
  end

let process t env ~switch ~from (pkt : Packet.t) =
  let v = process_packed t env ~switch ~from pkt in
  if Verdict.tag v = Verdict.tag_consume then Consume else Forward

let reassign_role t ~switch role =
  let st = state t switch in
  let compatible =
    match (st.role, role) with
    | (Topo.Node.Regular_tor | Topo.Node.Gateway_tor),
      (Topo.Node.Regular_tor | Topo.Node.Gateway_tor) ->
        true
    | (Topo.Node.Regular_spine | Topo.Node.Gateway_spine),
      (Topo.Node.Regular_spine | Topo.Node.Gateway_spine) ->
        true
    | Topo.Node.Core_switch, Topo.Node.Core_switch -> true
    | ( ( Topo.Node.Regular_tor | Topo.Node.Gateway_tor
        | Topo.Node.Regular_spine | Topo.Node.Gateway_spine
        | Topo.Node.Core_switch ),
        _ ) ->
        false
  in
  if not compatible then
    invalid_arg "Dataplane.reassign_role: incompatible tier";
  st.role <- role

let role_of t ~switch = (state t switch).role

let fail_switch t ~switch =
  Array.iter Geo_cache.clear (state t switch).caches
