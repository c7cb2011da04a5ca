module Packet = Netcore.Packet
module Vip = Netcore.Addr.Vip
module Pip = Netcore.Addr.Pip
module Scheme = Netsim.Scheme
module Pipeline = Netsim.Pipeline
module Verdict = Switchv2p.Verdict
module Topology = Topo.Topology

type control = {
  topo : Topology.t;
  switches : int array;
  (* Partition state per switch position: alive or failed. The
     partition contents are read through the ground-truth store —
     consistent with treating the DHT as authoritative storage whose
     update path is instantaneous. *)
  alive : bool array;
  switch_pos : int array;
  mutable fallbacks : int;
  mutable redirects : int;
  mutable home_hits : int;
}

let home_pos c vip =
  Topo.Routing.ecmp_hash ~salt:(Vip.to_int vip) ~a:(Vip.to_int vip) ~b:17
  mod Array.length c.switches

let home_of c vip = c.switches.(home_pos c vip)
let fallbacks c = c.fallbacks

let fail_switch c ~switch =
  let pos = c.switch_pos.(switch) in
  if pos < 0 then invalid_arg "Dht_store.fail_switch: not a switch";
  c.alive.(pos) <- false

let repopulate c ~switch =
  let pos = c.switch_pos.(switch) in
  if pos < 0 then invalid_arg "Dht_store.repopulate: not a switch";
  c.alive.(pos) <- true

let make_with_control topo =
  let switches = Topology.switches topo in
  let switch_pos = Array.make (Topology.num_nodes topo) (-1) in
  Array.iteri (fun pos sw -> switch_pos.(sw) <- pos) switches;
  let c =
    {
      topo;
      switches;
      alive = Array.make (Array.length switches) true;
      switch_pos;
      fallbacks = 0;
      redirects = 0;
      home_hits = 0;
    }
  in
  let scheme =
    {
      Scheme.name = "DhtStore";
      (* The initial outer destination points at a gateway, but the
         sender's ToR immediately redirects toward the home switch; a
         gateway is only reached on partition failure. *)
      resolve_at_host =
        (fun _env ~host:_ ~flow_id:_ ~dst_vip:_ -> Scheme.Resolution.via_gateway);
      pipeline =
        Pipeline.make
          ~reset:(fun ~switch -> fail_switch c ~switch)
          [
            Pipeline.stage ~kind:Pipeline.Lookup "dht-partition"
              (fun env ~switch ~from pkt ->
                match pkt.Packet.kind with
                | Packet.Learning | Packet.Invalidation -> Verdict.forward
                | Packet.Data | Packet.Ack ->
                    if Packet.resolved pkt then Verdict.forward
                    else begin
                      let pos = home_pos c pkt.Packet.dst_vip in
                      let home = c.switches.(pos) in
                      let is_ingress =
                        from < Topology.num_nodes c.topo
                        && Topo.Node.is_endpoint (Topology.kind c.topo from)
                      in
                      if home = switch then begin
                        (* At the home switch: authoritative resolution. *)
                        if c.alive.(pos) then begin
                          match
                            Netcore.Mapping.lookup_opt env.Scheme.mapping
                              pkt.Packet.dst_vip
                          with
                          | Some pip ->
                              c.home_hits <- c.home_hits + 1;
                              pkt.Packet.dst_pip <- pip;
                              Packet.set_resolved pkt true;
                              pkt.Packet.hit_switch <- switch;
                              Verdict.forward
                          | None -> Verdict.drop
                        end
                        else begin
                          (* Partition lost: fall back to a gateway. *)
                          c.fallbacks <- c.fallbacks + 1;
                          pkt.Packet.dst_pip <-
                            Topology.pip c.topo (Topology.gateways c.topo).(0);
                          Verdict.forward
                        end
                      end
                      else if is_ingress then begin
                        (* Ingress ToR: steer toward the home switch (unless
                           its partition is known-dead, in which case let
                           the gateway path stand). *)
                        if c.alive.(pos) then begin
                          c.redirects <- c.redirects + 1;
                          pkt.Packet.dst_pip <- Topology.pip c.topo home
                        end
                        else c.fallbacks <- c.fallbacks + 1;
                        Verdict.forward
                      end
                      else Verdict.forward
                    end);
          ];
      on_misdelivery = (fun _env ~host:_ _pkt -> Scheme.Follow_me);
      on_mapping_update = (fun _env _vip ~old_pip:_ ~new_pip:_ -> ());
      host_tags_misdelivery = false;
      stats =
        (fun () ->
          [
            ("dht_redirects", float_of_int c.redirects);
            ("dht_home_hits", float_of_int c.home_hits);
            ("dht_fallbacks", float_of_int c.fallbacks);
          ]);
    }
  in
  (scheme, c)

let make topo = fst (make_with_control topo)
