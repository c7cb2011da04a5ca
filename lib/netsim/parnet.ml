module Time_ns = Dessim.Time_ns
module Spsc = Dessim.Spsc
module Shard = Dessim.Shard
module Flow = Netcore.Flow
module Topology = Topo.Topology

(* Domain-sharded execution of ONE logical simulation: the node set is
   partitioned across [n] per-domain {!Network.t} instances that
   advance in lock-step conservative windows ({!Dessim.Shard}), handing
   packets across the partition through {!Dessim.Spsc} mailboxes
   ({!Network.receive_handoff}).

   Ownership discipline — the invariant everything here rests on: a
   node's mutable state (its outgoing links' queues and fault state,
   its pipeline tables, its hosts' caches, its gateway outage flag) is
   only ever touched by the shard that owns the node. The one shared
   mutable structure, the {!Topo.Topology.t}, is safe to share because
   all per-link state is source-side and a link's source has exactly
   one owner. Everything replicated (VM placement, the ground-truth
   mapping, churn) is driven by events scheduled identically on every
   shard, so the replicas agree at every timestamp.

   Determinism: within a shard the engine's (key, seq) dispatch is
   byte-identical; across shards, drains consume mailboxes in fixed
   source order, so an n-shard run replays identically for fixed n
   regardless of wall-clock interleaving. *)

type t = {
  nets : Network.t array;
  owner : int array;
  lookahead : Time_ns.t;
  windows : int;
  merged : Metrics.t;
}

let default_owner topo ~shards node =
  let pod = Topo.Node.pod_of (Topology.kind topo node) in
  if pod >= 0 then pod mod shards else node mod shards

(* Conservative lookahead: the minimum propagation delay over links
   whose endpoints live on different shards. Any packet crossing the
   partition is delayed by at least this much, which is what lets the
   window runtime drain mailboxes only at barriers. 1 us when nothing
   crosses (single shard / degenerate partitions). *)
let compute_lookahead topo owner =
  let m = ref max_int in
  Topology.iter_links topo (fun (l : Topo.Link.t) ->
      if owner.(l.Topo.Link.src) <> owner.(l.Topo.Link.dst) then begin
        let d = Time_ns.to_ns l.Topo.Link.prop_delay in
        if d < !m then m := d
      end);
  if !m = max_int then Time_ns.of_us 1 else Time_ns.of_ns (max 1 !m)

let run ?config ?faults ?assign ~shards:n topo ~fresh_scheme ~(flows : Flow.t list)
    ~(migrations : Network.migration list) ~until =
  if n <= 0 then invalid_arg "Parnet.run: shards must be positive";
  (* Every shard's network would observe the one collector from its own
     domain, per packet: a data race. *)
  (match config with
  | Some c when Dessim.Telemetry.is_enabled c.Network.telemetry ->
      invalid_arg "Parnet.run: telemetry is not supported in sharded runs"
  | _ -> ());
  let num_nodes = Topology.num_nodes topo in
  let assign =
    match assign with
    | Some f -> f
    | None -> fun node -> default_owner topo ~shards:n node
  in
  let owner =
    Array.init num_nodes (fun node ->
        let s = assign node in
        if s < 0 || s >= n then invalid_arg "Parnet.run: owner out of range";
        s)
  in
  let lookahead = compute_lookahead topo owner in
  (* Transport homes, fixed from the flows' initial placement. *)
  let params = Topology.params topo in
  let hosts = Topology.hosts topo in
  let vms_per_host = params.Topo.Params.vms_per_host in
  let init_host vip = hosts.(Netcore.Addr.Vip.to_int vip / vms_per_host) in
  let max_flow_id =
    List.fold_left (fun acc (f : Flow.t) -> max acc f.Flow.id) (-1) flows
  in
  let send_home = Array.make (max_flow_id + 1) 0 in
  let recv_home = Array.make (max_flow_id + 1) 0 in
  List.iter
    (fun (f : Flow.t) ->
      send_home.(f.Flow.id) <- owner.(init_host f.Flow.src_vip);
      recv_home.(f.Flow.id) <- owner.(init_host f.Flow.dst_vip))
    flows;
  (* Mailbox matrix: boxes.(src).(dst). *)
  let boxes =
    Array.init n (fun _ ->
        Array.init n (fun _ ->
            Spsc.create ~stride:Network.handoff_stride ()))
  in
  let nets =
    Array.init n (fun s ->
        let net = Network.create ?config topo ~scheme:(fresh_scheme ~shard:s) in
        Network.set_shard net ~my:s ~owner ~out:boxes.(s) ~lookahead ~send_home
          ~recv_home;
        Option.iter (Network.install_faults net) faults;
        net)
  in
  (* Every shard gets the whole workload: it starts the flow halves
     whose hosts it owns, and replays every migration so the placement
     replicas stay identical. *)
  Array.iter (fun net -> Network.load net flows ~migrations) nets;
  let engines = Array.map Network.engine nets in
  let drain ~shard =
    let net = nets.(shard) in
    for src = 0 to n - 1 do
      if src <> shard then
        Spsc.drain boxes.(src).(shard) (fun buf off ->
            Network.receive_handoff net buf off)
    done
  in
  let begin_window ~shard =
    let row = boxes.(shard) in
    for dst = 0 to n - 1 do
      if dst <> shard then Spsc.reset_spill row.(dst)
    done
  in
  let windows = Shard.run ~lookahead ~until ~engines ~drain ~begin_window in
  let merged =
    let ms = Array.map Network.metrics nets in
    Array.fold_left
      (fun acc m -> match acc with None -> Some m | Some a -> Some (Metrics.merge a m))
      None ms
    |> Option.get
  in
  { nets; owner; lookahead; windows; merged }

let metrics t = t.merged
let nets t = t.nets
let shards t = Array.length t.nets
let owner t node = t.owner.(node)
let lookahead t = t.lookahead
let windows t = t.windows

let sum f t = Array.fold_left (fun acc net -> acc + f net) 0 t.nets

let injected_packets = sum Network.injected_packets
let consumed_at_switch = sum Network.consumed_at_switch
let live_packets = sum Network.live_packets

let handoffs_in_flight t =
  sum Network.handoffs_sent t - sum Network.handoffs_received t

let transport_flows_completed =
  sum (fun net -> Transport.flows_completed (Network.transport net))

let reordering_events =
  sum (fun net -> Transport.reordering_events (Network.transport net))

let fault_counts t =
  Array.fold_left
    (fun acc net ->
      List.map2
        (fun (k, a) (k', b) ->
          assert (k = k');
          (k, a + b))
        acc
        (Network.fault_counts net))
    (List.map (fun (k, _) -> (k, 0)) (Network.fault_counts t.nets.(0)))
    t.nets
