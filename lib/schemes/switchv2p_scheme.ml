module Scheme = Netsim.Scheme
module Pipeline = Netsim.Pipeline
module Dataplane = Switchv2p.Dataplane

let make_with_dataplane ?(config = Switchv2p.Config.default) ?partition topo
    ~total_cache_slots =
  let dp = Dataplane.create ?partition config topo ~total_cache_slots in
  (* The [Dataplane.env] record is bound once per network, in
     [Pipeline.prepare] (which [Network.create] calls), so a stage runs
     with one load and no per-hop lookup. Harnesses that drive the
     pipeline directly call [Pipeline.prepare] first; a scheme value
     reused across networks is rebound by each network's prepare. *)
  let bound : Dataplane.env option ref = ref None in
  let dp_env () =
    match !bound with
    | Some de -> de
    | None -> invalid_arg "Switchv2p_scheme: pipeline run before Pipeline.prepare"
  in
  let prepare (env : Scheme.env) =
    bound :=
      Some
        {
          Dataplane.now = (fun () -> Dessim.Engine.now env.Scheme.engine);
          emit = env.Scheme.emit_at_switch;
          fresh_packet_id = env.Scheme.fresh_packet_id;
          pooled_packet = env.Scheme.pooled_packet;
          rng = env.Scheme.rng;
        }
  in
  let pipeline =
    Pipeline.make
      ~attach:(fun tel -> Dataplane.set_telemetry dp tel)
      ~prepare
      ~reset:(fun ~switch -> Dataplane.fail_switch dp ~switch)
      [
        Pipeline.stage ~kind:Pipeline.Classify "classify"
          (fun _env ~switch ~from pkt ->
            Dataplane.classify dp (dp_env ()) ~switch ~from pkt);
        Pipeline.stage ~kind:Pipeline.Lookup "lookup"
          ~probe:(fun tel ~now_sec -> Dataplane.probe_telemetry dp tel ~now_sec)
          (fun _env ~switch ~from pkt ->
            Dataplane.lookup dp (dp_env ()) ~switch ~from pkt);
        Pipeline.stage ~kind:Pipeline.Learn "learn"
          (fun _env ~switch ~from pkt ->
            Dataplane.admit dp (dp_env ()) ~switch ~from pkt);
        Pipeline.stage ~kind:Pipeline.Emit "emit"
          (fun _env ~switch ~from pkt ->
            Dataplane.emit dp (dp_env ()) ~switch ~from pkt);
      ]
  in
  let scheme =
    {
      Scheme.name = "SwitchV2P";
      resolve_at_host =
        (fun _env ~host:_ ~flow_id:_ ~dst_vip:_ -> Scheme.Resolution.via_gateway);
      pipeline;
      on_misdelivery = (fun _env ~host:_ _pkt -> Scheme.Reforward_to_gateway);
      on_mapping_update = (fun _env _vip ~old_pip:_ ~new_pip:_ -> ());
      host_tags_misdelivery = false;
      stats =
        (fun () ->
          [
            ( "learning_packets",
              float_of_int (Dataplane.learning_packets_sent dp) );
            ( "invalidation_packets",
              float_of_int (Dataplane.invalidation_packets_sent dp) );
            ( "invalidations_suppressed",
              float_of_int (Dataplane.invalidations_suppressed dp) );
            ("promotions", float_of_int (Dataplane.promotions dp));
            ("spills_attached", float_of_int (Dataplane.spills_attached dp));
            ("spills_absorbed", float_of_int (Dataplane.spills_absorbed dp));
            ( "entries_invalidated",
              float_of_int (Dataplane.entries_invalidated dp) );
            ("misdelivery_tags", float_of_int (Dataplane.misdelivery_tags dp));
          ]);
    }
  in
  (scheme, dp)

let make ?config ?partition topo ~total_cache_slots =
  fst (make_with_dataplane ?config ?partition topo ~total_cache_slots)
