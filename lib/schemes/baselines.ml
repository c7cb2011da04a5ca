module Time_ns = Dessim.Time_ns
module Packet = Netcore.Packet
module Vip = Netcore.Addr.Vip
module Scheme = Netsim.Scheme
module Pipeline = Netsim.Pipeline
module Verdict = Switchv2p.Verdict
module Cache = Switchv2p.Cache

let nocache () =
  {
    Scheme.name = "NoCache";
    resolve_at_host =
      (fun _env ~host:_ ~flow_id:_ ~dst_vip:_ -> Scheme.Resolution.via_gateway);
    pipeline = Pipeline.passthrough;
    on_misdelivery = (fun _env ~host:_ _pkt -> Scheme.Follow_me);
    on_mapping_update = (fun _env _vip ~old_pip:_ ~new_pip:_ -> ());
    host_tags_misdelivery = false;
    stats = Scheme.no_stats;
  }

let direct () =
  {
    Scheme.name = "Direct";
    resolve_at_host =
      (fun env ~host:_ ~flow_id:_ ~dst_vip ->
        (* Hosts hold the full, instantly synchronized table; reading
           the ground truth models that (update costs are out of scope,
           as in the paper). *)
        Scheme.Resolution.resolved
          (Netcore.Mapping.lookup env.Scheme.mapping dst_vip));
    pipeline = Pipeline.passthrough;
    on_misdelivery = (fun _env ~host:_ _pkt -> Scheme.Follow_me);
    on_mapping_update = (fun _env _vip ~old_pip:_ ~new_pip:_ -> ());
    host_tags_misdelivery = false;
    stats = Scheme.no_stats;
  }

let ondemand ?(miss_penalty = Time_ns.of_us 40) () =
  (* Per-host mapping caches, keyed (host, vip). Infinite capacity, as
     in the paper's OnDemand ("assumes infinite cache"). *)
  let host_caches : (int * int, Netcore.Addr.Pip.t) Hashtbl.t =
    Hashtbl.create 4096
  in
  let misses = ref 0 and lookups = ref 0 in
  {
    Scheme.name = "OnDemand";
    resolve_at_host =
      (fun env ~host ~flow_id:_ ~dst_vip ->
        incr lookups;
        let key = (host, Vip.to_int dst_vip) in
        match Hashtbl.find_opt host_caches key with
        | Some pip -> Scheme.Resolution.resolved pip
        | None ->
            incr misses;
            let pip = Netcore.Mapping.lookup env.Scheme.mapping dst_vip in
            Hashtbl.replace host_caches key pip;
            Scheme.Resolution.after miss_penalty pip);
    pipeline = Pipeline.passthrough;
    on_misdelivery = (fun _env ~host:_ _pkt -> Scheme.Follow_me);
    on_mapping_update =
      (fun _env _vip ~old_pip:_ ~new_pip:_ ->
        (* The controller cannot refresh host rules within the
           experiment horizon (§5.2): caches stay stale. *)
        ());
    host_tags_misdelivery = false;
    stats =
      (fun () ->
        [
          ("host_cache_misses", float_of_int !misses);
          ("host_lookups", float_of_int !lookups);
        ]);
  }

let hoverboard ?(offload_threshold = 20) () =
  if offload_threshold <= 0 then
    invalid_arg "Baselines.hoverboard: threshold must be positive";
  (* Per-(host, destination) packet counters and installed rules. *)
  let counters : (int * int, int ref) Hashtbl.t = Hashtbl.create 4096 in
  let installed : (int * int, Netcore.Addr.Pip.t) Hashtbl.t =
    Hashtbl.create 1024
  in
  let offloads = ref 0 in
  {
    Scheme.name = "Hoverboard";
    resolve_at_host =
      (fun env ~host ~flow_id:_ ~dst_vip ->
        let key = (host, Vip.to_int dst_vip) in
        match Hashtbl.find_opt installed key with
        | Some pip -> Scheme.Resolution.resolved pip
        | None ->
            let count =
              match Hashtbl.find_opt counters key with
              | Some r ->
                  incr r;
                  !r
              | None ->
                  Hashtbl.add counters key (ref 1);
                  1
            in
            if count >= offload_threshold then begin
              (* The controller offloads the rule; this packet still
                 rides via the gateway while the rule installs. *)
              incr offloads;
              Hashtbl.replace installed key
                (Netcore.Mapping.lookup env.Scheme.mapping dst_vip)
            end;
            Scheme.Resolution.via_gateway);
    pipeline = Pipeline.passthrough;
    on_misdelivery = (fun _env ~host:_ _pkt -> Scheme.Follow_me);
    on_mapping_update =
      (fun _env _vip ~old_pip:_ ~new_pip:_ ->
        (* Offloaded host rules go stale until the (slow) controller
           refresh — the follow-me rule covers the gap, as in
           Andromeda. *)
        ());
    host_tags_misdelivery = false;
    stats = (fun () -> [ ("rule_offloads", float_of_int !offloads) ]);
  }

let flat_cache_scheme ~name ~switches ~total_slots ~topo =
  let lc =
    Learning_cache.create ~switches ~total_slots
      ~num_nodes:(Topo.Topology.num_nodes topo)
  in
  ( {
    Scheme.name;
    resolve_at_host =
      (fun _env ~host:_ ~flow_id:_ ~dst_vip:_ -> Scheme.Resolution.via_gateway);
    pipeline =
      Pipeline.make
        ~reset:(fun ~switch -> Learning_cache.fail_switch lc ~switch)
        [
          Pipeline.stage ~kind:Pipeline.Lookup "lookup"
            (fun _env ~switch ~from:_ pkt ->
              Learning_cache.lookup lc ~switch pkt;
              Verdict.next);
          Pipeline.stage ~kind:Pipeline.Learn "learn"
            (fun _env ~switch ~from:_ pkt ->
              Learning_cache.learn lc ~switch pkt;
              Verdict.next);
        ];
    on_misdelivery = (fun _env ~host:_ _pkt -> Scheme.Reforward_to_gateway);
    on_mapping_update = (fun _env _vip ~old_pip:_ ~new_pip:_ -> ());
    host_tags_misdelivery = true;
    stats =
      (fun () ->
        [
          ("cache_hits", float_of_int (Learning_cache.total_hits lc));
          ("cache_misses", float_of_int (Learning_cache.total_misses lc));
        ]);
  },
    lc )

let locallearning_with_cache ~topo ~total_slots =
  flat_cache_scheme ~name:"LocalLearning"
    ~switches:(Topo.Topology.switches topo)
    ~total_slots ~topo

let locallearning ~topo ~total_slots =
  fst (locallearning_with_cache ~topo ~total_slots)

let gwcache_with_cache ~topo ~total_slots =
  let gateway_tors =
    Array.of_list
      (List.filter
         (fun sw -> Topo.Topology.role topo sw = Topo.Node.Gateway_tor)
         (Array.to_list (Topo.Topology.tors topo)))
  in
  flat_cache_scheme ~name:"GwCache" ~switches:gateway_tors ~total_slots ~topo

let gwcache ~topo ~total_slots = fst (gwcache_with_cache ~topo ~total_slots)

type bluebird_tor = {
  cache : Cache.t;
  mutable cp_busy_until : Time_ns.t;
  mutable cp_queued_bytes : int;
}

let bluebird ?(cp_rate_bps = 20e9) ?(cp_fwd_delay = Time_ns.of_ns 8_500)
    ?(cp_insert_delay = Time_ns.of_ms 2) ?(cp_queue_bytes = 1024 * 1024) ~topo
    ~total_slots () =
  let tors = Topo.Topology.tors topo in
  let n = Array.length tors in
  let base = total_slots / n and remainder = total_slots mod n in
  let states = Array.make (Topo.Topology.num_nodes topo) None in
  Array.iteri
    (fun i tor ->
      let slots = base + if i < remainder then 1 else 0 in
      states.(tor) <-
        Some
          {
            cache = Cache.create ~ways:1 ~slots;
            cp_busy_until = Time_ns.zero;
            cp_queued_bytes = 0;
          })
    tors;
  let cp_drops = ref 0 and cp_detours = ref 0 in
  {
    Scheme.name = "Bluebird";
    (* No gateways in Bluebird: the ToR always resolves. The initial
       outer destination is never reached. *)
    resolve_at_host =
      (fun _env ~host:_ ~flow_id:_ ~dst_vip:_ -> Scheme.Resolution.via_gateway);
    pipeline =
      Pipeline.make
        ~reset:(fun ~switch ->
          match states.(switch) with
          | None -> ()
          | Some st ->
              Cache.clear st.cache;
              st.cp_busy_until <- Time_ns.zero;
              st.cp_queued_bytes <- 0)
        [
          Pipeline.stage ~kind:Pipeline.Lookup "tor-route-cache"
            (fun env ~switch ~from:_ pkt ->
              match states.(switch) with
              | None -> Verdict.forward
              | Some st -> (
                  match pkt.Packet.kind with
                  | Packet.Learning | Packet.Invalidation -> Verdict.forward
                  | Packet.Data | Packet.Ack ->
                      if Packet.resolved pkt then Verdict.forward
                      else begin
                        let r = Cache.lookup st.cache pkt.Packet.dst_vip in
                        if r >= 0 then begin
                          pkt.Packet.dst_pip <- Cache.hit_pip r;
                          Packet.set_resolved pkt true;
                          pkt.Packet.hit_switch <- switch;
                          Verdict.forward
                        end
                        else if
                          (* Route-cache miss: detour via the SFE over
                             the bandwidth-limited data-to-CP channel. *)
                          st.cp_queued_bytes + pkt.Packet.size
                          > cp_queue_bytes
                        then begin
                          incr cp_drops;
                          Verdict.drop
                        end
                        else begin
                          incr cp_detours;
                          let now = Dessim.Engine.now env.Scheme.engine in
                          let start = Time_ns.max now st.cp_busy_until in
                          let ser =
                            Time_ns.of_rate_bytes ~bits_per_sec:cp_rate_bps
                              pkt.Packet.size
                          in
                          st.cp_busy_until <- Time_ns.add start ser;
                          st.cp_queued_bytes <-
                            st.cp_queued_bytes + pkt.Packet.size;
                          let ready =
                            Time_ns.add (Time_ns.sub st.cp_busy_until now)
                              cp_fwd_delay
                          in
                          let bytes = pkt.Packet.size in
                          Dessim.Engine.schedule_after env.Scheme.engine
                            ~delay:ready (fun () ->
                              st.cp_queued_bytes <- st.cp_queued_bytes - bytes);
                          (* The SFE knows every mapping. *)
                          let pip =
                            Netcore.Mapping.lookup env.Scheme.mapping
                              pkt.Packet.dst_vip
                          in
                          pkt.Packet.dst_pip <- pip;
                          Packet.set_resolved pkt true;
                          let vip = pkt.Packet.dst_vip in
                          Dessim.Engine.schedule_after env.Scheme.engine
                            ~delay:cp_insert_delay (fun () ->
                              ignore
                                (Cache.insert st.cache ~admission:`All vip pip));
                          Verdict.delay ready
                        end
                      end));
        ];
    on_misdelivery = (fun _env ~host:_ _pkt -> Scheme.Follow_me);
    on_mapping_update = (fun _env _vip ~old_pip:_ ~new_pip:_ -> ());
    host_tags_misdelivery = false;
    stats =
      (fun () ->
        [
          ("cp_detours", float_of_int !cp_detours);
          ("cp_drops", float_of_int !cp_drops);
        ]);
  }
