module Time_ns = Dessim.Time_ns
module Packet = Netcore.Packet
module Vip = Netcore.Addr.Vip
module Scheme = Netsim.Scheme
module Pipeline = Netsim.Pipeline
module Verdict = Switchv2p.Verdict
module Topology = Topo.Topology
module Routing = Topo.Routing

type state = {
  topo : Topology.t;
  interval : Time_ns.t;
  gw_cost_hops : float;
  slots : int array; (* per switch position *)
  switch_ids : int array;
  switch_pos : int array; (* node id -> position, -1 otherwise *)
  (* Demand window: (src_host, vip) -> packet count. *)
  window : (int * int, int ref) Hashtbl.t;
  (* Installed entries: per switch position, vip -> pip. *)
  installed : (int, Netcore.Addr.Pip.t) Hashtbl.t array;
  mutable started : bool;
  mutable solves : int;
  mutable installed_total : int;
}

let record_demand st ~host ~vip =
  let key = (host, Vip.to_int vip) in
  match Hashtbl.find_opt st.window key with
  | Some r -> incr r
  | None -> Hashtbl.add st.window key (ref 1)

(* The canonical gateway a sender's unresolved traffic heads to; used
   only for the cost model. *)
let gateway_of st ~host =
  let gws = Topology.gateways st.topo in
  gws.(Routing.ecmp_hash ~salt:host ~a:host ~b:13 mod Array.length gws)

let solve st (env : Scheme.env) =
  st.solves <- st.solves + 1;
  (* Dense item ids for the VIPs seen this window. *)
  let vip_ids = Hashtbl.create 64 in
  let rev_vip = ref [] in
  let intern vip =
    match Hashtbl.find_opt vip_ids vip with
    | Some i -> i
    | None ->
        let i = Hashtbl.length vip_ids in
        Hashtbl.add vip_ids vip i;
        rev_vip := vip :: !rev_vip;
        i
  in
  let demands = ref [] in
  Hashtbl.iter
    (fun (host, vip) count ->
      demands :=
        { Ilp.Allocation.src = host; dst = intern vip; weight = float_of_int !count }
        :: !demands)
    st.window;
  let demands = Array.of_list !demands in
  let vips = Array.of_list (List.rev !rev_vip) in
  if Array.length demands > 0 then begin
    (* Per-demand path data: uplink path to the gateway (positions and
       hop offsets), plus destination host. *)
    let dst_host vip =
      Topology.node_of_pip st.topo
        (Netcore.Mapping.lookup env.Scheme.mapping (Vip.of_int vip))
    in
    let path_cache = Hashtbl.create 64 in
    let uplink_path host =
      match Hashtbl.find_opt path_cache host with
      | Some p -> p
      | None ->
          let gw = gateway_of st ~host in
          let p = Routing.path st.topo ~src:host ~dst:gw ~salt:host in
          Hashtbl.replace path_cache host p;
          p
    in
    let hop_index path node =
      let rec go i = function
        | [] -> None
        | x :: _ when x = node -> Some i
        | _ :: rest -> go (i + 1) rest
      in
      go 0 path
    in
    let default_cost (d : Ilp.Allocation.demand) =
      let path = uplink_path d.src in
      let to_gw = float_of_int (List.length path - 1) in
      let gw = gateway_of st ~host:d.src in
      let down =
        float_of_int
          (Routing.hop_count st.topo ~src:gw ~dst:(dst_host vips.(d.dst))
             ~salt:d.src)
      in
      to_gw +. st.gw_cost_hops +. down
    in
    let cached_cost (d : Ilp.Allocation.demand) pos =
      let sw = st.switch_ids.(pos) in
      let path = uplink_path d.src in
      match hop_index path sw with
      | None -> None
      | Some i ->
          let dh = dst_host vips.(d.dst) in
          let down =
            if sw = dh then 0
            else Routing.hop_count st.topo ~src:sw ~dst:dh ~salt:d.src
          in
          Some (float_of_int (i + down))
    in
    let instance =
      {
        Ilp.Allocation.num_items = Array.length vips;
        num_switches = Array.length st.switch_ids;
        capacity = st.slots;
        demands;
        default_cost;
        cached_cost;
      }
    in
    let assignment = Ilp.Allocation.solve_greedy instance in
    (* Install: replace every switch's table. *)
    Array.iteri
      (fun pos table ->
        Hashtbl.reset table;
        List.iter
          (fun item ->
            let vip = Vip.of_int vips.(item) in
            match Netcore.Mapping.lookup_opt env.Scheme.mapping vip with
            | Some pip ->
                Hashtbl.replace table (Vip.to_int vip) pip;
                st.installed_total <- st.installed_total + 1
            | None -> ())
          (Ilp.Allocation.items_of assignment ~switch:pos))
      st.installed
  end;
  Hashtbl.reset st.window

let rec periodic st (env : Scheme.env) =
  Dessim.Engine.schedule_after env.Scheme.engine ~delay:st.interval (fun () ->
      solve st env;
      periodic st env)

let make ?(gw_cost_hops = 40.0) ~topo ~total_slots ~interval () =
  let switch_ids = Topology.switches topo in
  let n = Array.length switch_ids in
  let base = total_slots / n and remainder = total_slots mod n in
  let slots = Array.init n (fun i -> base + if i < remainder then 1 else 0) in
  let switch_pos = Array.make (Topology.num_nodes topo) (-1) in
  Array.iteri (fun pos sw -> switch_pos.(sw) <- pos) switch_ids;
  let st =
    {
      topo;
      interval;
      gw_cost_hops;
      slots;
      switch_ids;
      switch_pos;
      window = Hashtbl.create 1024;
      installed = Array.init n (fun _ -> Hashtbl.create 16);
      started = false;
      solves = 0;
      installed_total = 0;
    }
  in
  {
    Scheme.name = "Controller";
    resolve_at_host =
      (fun env ~host ~flow_id:_ ~dst_vip ->
        if not st.started then begin
          st.started <- true;
          periodic st env
        end;
        record_demand st ~host ~vip:dst_vip;
        Scheme.Resolution.via_gateway);
    pipeline =
      Pipeline.make
        ~reset:(fun ~switch ->
          let pos = st.switch_pos.(switch) in
          if pos >= 0 then Hashtbl.reset st.installed.(pos))
        [
          Pipeline.stage ~kind:Pipeline.Lookup "installed-table"
            (fun _env ~switch ~from:_ pkt ->
              let pos = st.switch_pos.(switch) in
              if pos >= 0 then begin
                match Packet.kind pkt with
                | Packet.Data | Packet.Ack ->
                    if
                      (not (Packet.resolved pkt))
                      && pkt.Packet.misdelivery < 0
                    then begin
                      match
                        Hashtbl.find_opt st.installed.(pos)
                          (Vip.to_int pkt.Packet.dst_vip)
                      with
                      | Some pip ->
                          pkt.Packet.dst_pip <- pip;
                          Packet.set_resolved pkt true;
                          pkt.Packet.hit_switch <- switch
                      | None -> ()
                    end
                | Packet.Learning | Packet.Invalidation -> ()
              end;
              Verdict.forward);
        ];
    on_misdelivery = (fun _env ~host:_ _pkt -> Scheme.Reforward_to_gateway);
    on_mapping_update =
      (fun _env vip ~old_pip ~new_pip:_ ->
        (* The controller repairs stale installs on its next solve;
           meanwhile remove them eagerly (it is omniscient). *)
        Array.iter
          (fun table ->
            match Hashtbl.find_opt table (Vip.to_int vip) with
            | Some pip when Netcore.Addr.Pip.equal pip old_pip ->
                Hashtbl.remove table (Vip.to_int vip)
            | Some _ | None -> ())
          st.installed);
    host_tags_misdelivery = true;
    stats =
      (fun () ->
        [
          ("controller_solves", float_of_int st.solves);
          ("entries_installed", float_of_int st.installed_total);
        ]);
  }
