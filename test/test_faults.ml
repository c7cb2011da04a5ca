(* Property and unit tests for the fault-injection subsystem:
   loss-channel models, fault-aware ECMP fallback/recovery, plan text
   round-trips, the pipeline reset hook, and packet conservation under
   randomized fault plans (via the DST harness). *)

module Fault = Dessim.Fault
module Rng = Dessim.Rng
module Time_ns = Dessim.Time_ns
module Params = Topo.Params
module Topology = Topo.Topology
module Routing = Topo.Routing
module Link = Topo.Link
module Node = Topo.Node
module Flow = Netcore.Flow
module Vip = Netcore.Addr.Vip
module Network = Netsim.Network
module Faultplan = Netsim.Faultplan
module Pipeline = Netsim.Pipeline
module Dst = Experiments.Dst

let params =
  Params.scaled ~pods:2 ~racks_per_pod:2 ~hosts_per_rack:2 ~vms_per_host:2 ()

(* ---------------------------------------------------------------- *)
(* Loss-channel models.                                             *)

let drop_rate model ~draws ~seed =
  let rng = Rng.create seed in
  let state = ref 0 and drops = ref 0 in
  for _ = 1 to draws do
    let packed = Fault.step_packed model ~state:!state rng in
    state := packed lsr 1;
    if packed land 1 = 1 then incr drops
  done;
  float_of_int !drops /. float_of_int draws

let test_bernoulli_rate () =
  let r = drop_rate (Fault.Bernoulli 0.1) ~draws:20_000 ~seed:42 in
  if r < 0.08 || r > 0.12 then
    Alcotest.failf "Bernoulli(0.1) measured loss rate %f outside [0.08,0.12]" r

let test_gilbert_elliott_rate () =
  (* Stationary bad fraction = p_enter/(p_enter+p_exit) = 1/6, so the
     long-run loss rate is ~ loss_bad/6 ~ 0.083. *)
  let ge =
    Fault.Gilbert_elliott
      { Fault.p_enter_bad = 0.1; p_exit_bad = 0.5; loss_good = 0.0; loss_bad = 0.5 }
  in
  let r = drop_rate ge ~draws:20_000 ~seed:7 in
  if r < 0.05 || r > 0.12 then
    Alcotest.failf "GE measured loss rate %f outside [0.05,0.12]" r

(* No_loss must not consume RNG draws: installing the fault layer with
   no active loss channel leaves every other stream byte-identical. *)
let test_no_loss_draws_nothing () =
  let rng = Rng.create 99 in
  let shadow = Rng.copy rng in
  let state = ref 0 in
  for _ = 1 to 100 do
    let packed = Fault.step_packed Fault.No_loss ~state:!state rng in
    state := packed lsr 1;
    Alcotest.(check bool) "No_loss never drops" false (packed land 1 = 1)
  done;
  Alcotest.(check int) "rng untouched by No_loss" (Rng.int shadow 1_000_000)
    (Rng.int rng 1_000_000)

let test_corrupt_one_shot () =
  let topo = Topology.build params in
  let src, dst = (Faultplan.fabric_pairs topo).(0) in
  let link = Topology.link topo ~src ~dst in
  Alcotest.(check bool) "no corruption armed" false (Link.take_corrupt link);
  link.Link.corrupt_next <- 2;
  Alcotest.(check bool) "first armed shot" true (Link.take_corrupt link);
  Alcotest.(check bool) "second armed shot" true (Link.take_corrupt link);
  Alcotest.(check bool) "disarmed after budget" false (Link.take_corrupt link)

(* ---------------------------------------------------------------- *)
(* Fault-aware ECMP routing.                                        *)

(* Every (at, dst, salt) with a defined next hop, with the oracle's
   answer. Unreachable pairs (core-to-core) are skipped. *)
let sample_table topo =
  let n = Topology.num_nodes topo in
  let acc = ref [] in
  for at = 0 to n - 1 do
    for dst = 0 to n - 1 do
      if at <> dst then
        for salt = 0 to 2 do
          match Routing.next_hop_oracle topo ~at ~dst ~salt with
          | hop -> acc := (at, dst, salt, hop) :: !acc
          | exception Invalid_argument _ -> ()
        done
    done
  done;
  !acc

(* The node-level fault-aware router the edge version replaced: the
   same case analysis over [Node.kind], each candidate's liveness looked
   up by [Topology.link]. Kept here as the reference that
   [next_edge_alive] must match, blackholes included. *)
let node_level_alive topo ~at ~dst ~salt =
  let up a b = (Topology.link topo ~src:a ~dst:b).Link.up in
  let forced hop = if up at hop then hop else Routing.blackhole in
  let ring cands start =
    let n = Array.length cands in
    let rec go i =
      if i = n then Routing.blackhole
      else
        let c = cands.((start + i) mod n) in
        if up at c then c else go (i + 1)
    in
    go 0
  in
  let hash a = Routing.ecmp_hash ~salt ~a ~b:dst in
  let ups = Topology.uplinks topo at in
  match (Topology.kind topo at, Topology.kind topo dst) with
  | (Node.Host _ | Node.Gateway _), _ -> forced (Topology.tor_of topo at)
  | Node.Tor _, (Node.Host _ | Node.Gateway _)
    when Topology.tor_of topo dst = at ->
      forced dst
  | Node.Tor _, (Node.Spine { group; _ } | Node.Core { group; _ }) ->
      forced ups.(group)
  | Node.Tor _, _ -> ring ups (hash at mod Array.length ups)
  | ( Node.Spine { pod; _ },
      ( Node.Host { pod = dp; rack; _ }
      | Node.Gateway { pod = dp; rack; _ }
      | Node.Tor { pod = dp; rack; _ } ) )
    when dp = pod ->
      forced (Topology.tor_id topo ~pod ~rack)
  | Node.Spine { group; _ }, Node.Core { group = g; idx } when g = group ->
      forced ups.(idx)
  | ( Node.Spine { pod; group; _ },
      (Node.Core { group = g; _ } | Node.Spine { group = g; _ }) )
    when g <> group ->
      let racks = (Topology.params topo).Params.racks_per_pod in
      ring
        (Array.init racks (fun rack -> Topology.tor_id topo ~pod ~rack))
        (hash at mod racks)
  | Node.Spine _, _ -> ring ups (hash (at + dst) mod Array.length ups)
  | Node.Core { group; _ }, (Node.Host { pod; _ } | Node.Gateway { pod; _ }
                            | Node.Tor { pod; _ } | Node.Spine { pod; _ }) ->
      forced (Topology.spine_id topo ~pod ~group)
  | Node.Core _, Node.Core _ -> invalid_arg "core-to-core"

(* [next_edge_alive] returns [blackhole] exactly when the node-level
   router does, and otherwise leaves [at] on a live link to its hop;
   [next_hop_alive] is that link's destination. *)
let check_alive ~what topo ~at ~dst ~salt ~want =
  let e = Routing.next_edge_alive topo ~at ~dst ~salt in
  let hop = Routing.next_hop_alive topo ~at ~dst ~salt in
  let ok =
    if want = Routing.blackhole then e = Routing.blackhole && hop = want
    else
      e <> Routing.blackhole
      &&
      let l = Topology.link_of_edge topo e in
      l.Link.src = at && l.Link.dst = want && l.Link.up && hop = want
  in
  if not ok then
    QCheck.Test.fail_reportf
      "%s: next_edge_alive(at=%d,dst=%d,salt=%d) = edge %d (hop %d), want hop %d"
      what at dst salt e hop want

let check_matches_oracle ~what topo samples =
  List.iter
    (fun (at, dst, salt, want) -> check_alive ~what topo ~at ~dst ~salt ~want)
    samples

(* Downing fabric links never routes onto a dead link, and restoring
   them recovers the exact pre-failure ECMP table. *)
let ecmp_restore_qcheck =
  QCheck.Test.make ~name:"link down/up restores the exact ECMP table" ~count:25
    QCheck.(pair small_nat (int_range 1 4))
    (fun (seed, nfail) ->
      let topo = Topology.build params in
      let samples = sample_table topo in
      check_matches_oracle ~what:"all links up (before)" topo samples;
      let pairs = Faultplan.fabric_pairs topo in
      let rng = Rng.create (seed + 1) in
      let downed = Array.init nfail (fun _ -> Rng.choose rng pairs) in
      Array.iter
        (fun (a, b) ->
          (Topology.link topo ~src:a ~dst:b).Link.up <- false;
          (Topology.link topo ~src:b ~dst:a).Link.up <- false)
        downed;
      List.iter
        (fun (at, dst, salt, _) ->
          check_alive ~what:"links down" topo ~at ~dst ~salt
            ~want:(node_level_alive topo ~at ~dst ~salt))
        samples;
      Array.iter
        (fun (a, b) ->
          (Topology.link topo ~src:a ~dst:b).Link.up <- true;
          (Topology.link topo ~src:b ~dst:a).Link.up <- true)
        downed;
      check_matches_oracle ~what:"after restore" topo samples;
      true)

(* The per-hop router allocates nothing, fault-aware or not: 10k
   random routable queries, with some fabric links down so the ring
   probes and blackholes run too. The queries are drawn up front; the
   loop itself only routes. *)
let test_routing_allocates_nothing () =
  let topo = Topology.build params in
  let n = Topology.num_nodes topo in
  let rng = Rng.create 5 in
  let queries = Array.make (3 * 10_000) 0 in
  let i = ref 0 in
  while !i < 10_000 do
    let at = Rng.int rng n and dst = Rng.int rng n in
    let salt = Rng.int rng 1000 in
    match Routing.next_hop_oracle topo ~at ~dst ~salt with
    | _ ->
        queries.(3 * !i) <- at;
        queries.((3 * !i) + 1) <- dst;
        queries.((3 * !i) + 2) <- salt;
        incr i
    | exception Invalid_argument _ -> ()
  done;
  let pairs = Faultplan.fabric_pairs topo in
  for _ = 1 to 3 do
    let a, b = Rng.choose rng pairs in
    (Topology.link topo ~src:a ~dst:b).Link.up <- false
  done;
  let blackholes = ref 0 and sum = ref 0 in
  let before = Gc.minor_words () in
  for q = 0 to 9_999 do
    let at = queries.(3 * q) and dst = queries.((3 * q) + 1) in
    let salt = queries.((3 * q) + 2) in
    sum := !sum + Routing.next_edge topo ~at ~dst ~salt;
    let e = Routing.next_edge_alive topo ~at ~dst ~salt in
    if e = Routing.blackhole then incr blackholes else sum := !sum + e
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) "routed" true (!sum > 0);
  Alcotest.(check bool) "some queries blackholed" true (!blackholes > 0);
  Alcotest.(check (float 0.0)) "minor words across 20k queries" 0.0 words

(* Killing every uplink of a ToR blackholes inter-rack traffic from
   that ToR (no silent misrouting). *)
let test_blackhole_when_all_uplinks_dead () =
  let topo = Topology.build params in
  let hosts = Topology.hosts topo in
  let tor_of h =
    let other = if h = hosts.(0) then hosts.(1) else hosts.(0) in
    Routing.next_hop topo ~at:h ~dst:other ~salt:0
  in
  let t0 = tor_of hosts.(0) in
  let far =
    match Array.to_list hosts |> List.find_opt (fun h -> tor_of h <> t0) with
    | Some h -> h
    | None -> Alcotest.fail "topology has a single rack?"
  in
  Array.iter
    (fun sp -> (Topology.link topo ~src:t0 ~dst:sp).Link.up <- false)
    (Topology.uplinks topo t0);
  Alcotest.(check int) "inter-rack from dead-uplink ToR blackholes"
    Routing.blackhole
    (Routing.next_hop_alive topo ~at:t0 ~dst:far ~salt:0);
  Array.iter
    (fun sp -> (Topology.link topo ~src:t0 ~dst:sp).Link.up <- true)
    (Topology.uplinks topo t0);
  Alcotest.(check int) "restored"
    (Routing.next_hop topo ~at:t0 ~dst:far ~salt:0)
    (Routing.next_hop_alive topo ~at:t0 ~dst:far ~salt:0)

(* ---------------------------------------------------------------- *)
(* Plan text round-trip.                                            *)

let plan_roundtrip_qcheck =
  QCheck.Test.make ~name:"generated plans round-trip through text" ~count:50
    QCheck.small_nat (fun seed ->
      let topo = Topology.build params in
      let plan = Faultplan.generate ~seed ~horizon:(Time_ns.of_ms 20) topo in
      let s = Fault.to_string plan in
      match Fault.of_string s with
      | Error e -> QCheck.Test.fail_reportf "of_string failed: %s on %s" e s
      | Ok plan' ->
          if Fault.to_string plan' <> s then
            QCheck.Test.fail_reportf "round-trip changed the plan: %s" s;
          if Array.length plan'.Fault.specs <> Array.length plan.Fault.specs
          then QCheck.Test.fail_reportf "round-trip changed spec count";
          true)

(* ---------------------------------------------------------------- *)
(* Pipeline reset hook.                                             *)

let test_reset_wipes_switchv2p_caches () =
  let topo = Topology.build params in
  let scheme, dp =
    Schemes.Switchv2p_scheme.make_with_dataplane topo ~total_cache_slots:64
  in
  let net = Network.create topo ~scheme in
  let num_vms = Network.num_vms net in
  let flows =
    List.init 12 (fun id ->
        Flow.make ~pkt_bytes:1500 ~id ~src_vip:(Vip.of_int (id mod num_vms))
          ~dst_vip:(Vip.of_int ((id + 3) mod num_vms))
          ~size_bytes:(6 * 1500) ~start:(Time_ns.of_us (10 * id))
          Flow.Tcpish)
  in
  Network.run net flows ~migrations:[] ~until:(Time_ns.of_ms 20);
  let occupancy () =
    Array.fold_left
      (fun acc sw ->
        acc + Switchv2p.Cache.occupancy (Switchv2p.Dataplane.cache dp ~switch:sw))
      0 (Topology.switches topo)
  in
  Alcotest.(check bool) "caches populated by the workload" true (occupancy () > 0);
  Array.iter
    (fun sw -> Pipeline.reset_switch scheme.Netsim.Scheme.pipeline ~switch:sw)
    (Topology.switches topo);
  Alcotest.(check int) "reset_switch wipes every cache" 0 (occupancy ())

(* ---------------------------------------------------------------- *)
(* Conservation under randomized fault plans, every scheme.          *)

let conservation_qcheck =
  QCheck.Test.make
    ~name:"packet conservation under random fault plans (all schemes)"
    ~count:10
    QCheck.(pair (int_range 0 99_999) (int_range 0 4))
    (fun (seed, si) ->
      let scheme = List.nth Dst.all_schemes si in
      let o = Dst.run_one ~seed ~scheme () in
      match
        List.filter (fun (inv, _) -> inv = "packet-conservation") o.Dst.failures
      with
      | [] -> true
      | (_, detail) :: _ ->
          QCheck.Test.fail_reportf "seed=%d scheme=%s: %s@.replay: %s" seed
            scheme detail
            (Dst.replay_command ~seed ~scheme))

let () =
  Alcotest.run "faults"
    [
      ( "loss-models",
        [
          Alcotest.test_case "bernoulli rate" `Quick test_bernoulli_rate;
          Alcotest.test_case "gilbert-elliott rate" `Quick
            test_gilbert_elliott_rate;
          Alcotest.test_case "no_loss draws nothing" `Quick
            test_no_loss_draws_nothing;
          Alcotest.test_case "one-shot corruption" `Quick test_corrupt_one_shot;
        ] );
      ( "routing",
        [
          QCheck_alcotest.to_alcotest ecmp_restore_qcheck;
          Alcotest.test_case "all uplinks dead => blackhole" `Quick
            test_blackhole_when_all_uplinks_dead;
          Alcotest.test_case "routing allocates nothing" `Quick
            test_routing_allocates_nothing;
        ] );
      ( "plans",
        [ QCheck_alcotest.to_alcotest plan_roundtrip_qcheck ] );
      ( "reset",
        [
          Alcotest.test_case "reset_switch wipes switchv2p caches" `Quick
            test_reset_wipes_switchv2p_caches;
        ] );
      ( "conservation",
        [ QCheck_alcotest.to_alcotest conservation_qcheck ] );
    ]
