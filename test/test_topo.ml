(* Tests for topology construction, roles, links, and ECMP routing. *)

module Params = Topo.Params
module Topology = Topo.Topology
module Node = Topo.Node
module Routing = Topo.Routing
module Link = Topo.Link
module Time_ns = Dessim.Time_ns

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let small () =
  Topology.build
    (Params.scaled ~pods:4 ~racks_per_pod:3 ~hosts_per_rack:2 ~vms_per_host:4 ())

let test_ft8_preset () =
  let p = Params.ft8_10k () in
  Params.validate p;
  checki "switches" 80 (Params.num_switches p);
  (* 4 gateway pods sacrifice one rack each: (32-4) racks x 4 hosts. *)
  checki "hosts" 112 (Params.num_hosts p);
  checki "vms" (112 * 80) (Params.num_vms p);
  checki "base rtt us" 12 (Time_ns.to_ns (Params.base_rtt p) / 1000)

let test_ft16_preset () =
  let p = Params.ft16_400k () in
  Params.validate p;
  checki "tors" 400 (p.Params.pods * p.Params.racks_per_pod);
  checki "cores" 16 (p.Params.spines_per_pod * p.Params.cores_per_group)

let test_params_validation () =
  let base = Params.ft8_10k () in
  Alcotest.check_raises "no gateway pods"
    (Invalid_argument "Params.validate: at least one gateway pod is required")
    (fun () -> Params.validate { base with Params.gateway_pods = [] });
  Alcotest.check_raises "gateway pod out of range"
    (Invalid_argument "Params.validate: gateway pod out of range") (fun () ->
      Params.validate { base with Params.gateway_pods = [ 99 ] });
  Alcotest.check_raises "duplicate gateway pods"
    (Invalid_argument "Params.validate: duplicate gateway pods") (fun () ->
      Params.validate { base with Params.gateway_pods = [ 1; 1 ] })

let test_build_counts () =
  let t = small () in
  let p = Topology.params t in
  checki "tors" (4 * 3) (Array.length (Topology.tors t));
  checki "spines" (4 * 2) (Array.length (Topology.spines t));
  checki "cores" (2 * 2) (Array.length (Topology.cores t));
  checki "switch total" (Params.num_switches p) (Array.length (Topology.switches t));
  checki "hosts" (Params.num_hosts p) (Array.length (Topology.hosts t));
  (* Gateways in pods 0 and 2. *)
  checki "gateways" 4 (Array.length (Topology.gateways t))

(* The build keeps OCaml's bounds checks: an index one past a table's
   end raises instead of reading the next heap block. *)
let test_bounds_checked () =
  let t = small () in
  Alcotest.check_raises "link_of_edge past the end"
    (Invalid_argument "index out of bounds") (fun () ->
      ignore (Topology.link_of_edge t (Topology.num_links t)))

let test_roles () =
  let t = small () in
  let count role =
    Array.fold_left
      (fun acc sw -> if Topology.role t sw = role then acc + 1 else acc)
      0 (Topology.switches t)
  in
  checki "gateway tors" 2 (count Node.Gateway_tor);
  checki "regular tors" 10 (count Node.Regular_tor);
  checki "gateway spines" 4 (count Node.Gateway_spine);
  checki "regular spines" 4 (count Node.Regular_spine);
  checki "cores" 4 (count Node.Core_switch)

let test_gateway_tor_hosts_only_gateways () =
  let t = small () in
  Array.iter
    (fun gw ->
      let tor = Topology.tor_of t gw in
      checkb "gateway attaches to a gateway ToR" true
        (Topology.role t tor = Node.Gateway_tor))
    (Topology.gateways t)

let test_endpoint_tor_symmetry () =
  let t = small () in
  Array.iter
    (fun tor ->
      Array.iter
        (fun ep -> checki "tor_of inverse" tor (Topology.tor_of t ep))
        (Topology.endpoints_of_tor t tor))
    (Topology.tors t)

let test_links_bidirectional () =
  let t = small () in
  Topology.iter_links t (fun l ->
      let back = Topology.link t ~src:l.Link.dst ~dst:l.Link.src in
      checki "reverse link exists" l.Link.src back.Link.dst)

let test_link_rates () =
  let t = small () in
  let host = (Topology.hosts t).(0) in
  let tor = Topology.tor_of t host in
  let l = Topology.link t ~src:host ~dst:tor in
  checkb "host link rate" true (l.Link.rate_bps = 100e9);
  let spine = Topology.spine_id t ~pod:0 ~group:0 in
  let l2 = Topology.link t ~src:tor ~dst:spine in
  checkb "fabric link rate" true (l2.Link.rate_bps = 400e9)

let test_routing_all_pairs () =
  let t = small () in
  let hosts = Topology.hosts t in
  Array.iter
    (fun src ->
      Array.iter
        (fun dst ->
          if src <> dst then begin
            let path = Routing.path t ~src ~dst ~salt:7 in
            checkb "starts at src" true (List.hd path = src);
            checkb "ends at dst" true (List.nth path (List.length path - 1) = dst);
            checkb "path length sane" true (List.length path <= 8)
          end)
        hosts)
    hosts

let test_routing_hop_counts () =
  let t = small () in
  (* Same rack: host-tor-host = 2 hops. *)
  let tor0 = (Topology.tors t).(0) in
  let eps = Topology.endpoints_of_tor t tor0 in
  checki "same rack" 2 (Routing.hop_count t ~src:eps.(0) ~dst:eps.(1) ~salt:1);
  (* Same pod, different rack: host-tor-spine-tor-host = 4 hops. *)
  let tor1 = Topology.tor_id t ~pod:0 ~rack:1 in
  let eps1 = Topology.endpoints_of_tor t tor1 in
  checki "same pod" 4 (Routing.hop_count t ~src:eps.(0) ~dst:eps1.(0) ~salt:1);
  (* Cross pod: 6 hops via core. *)
  let tor_far = Topology.tor_id t ~pod:1 ~rack:0 in
  let eps_far = Topology.endpoints_of_tor t tor_far in
  checki "cross pod" 6 (Routing.hop_count t ~src:eps.(0) ~dst:eps_far.(0) ~salt:1)

let test_routing_to_switches () =
  let t = small () in
  let host = (Topology.hosts t).(0) in
  Array.iter
    (fun sw ->
      let path = Routing.path t ~src:host ~dst:sw ~salt:3 in
      checkb "reaches switch" true (List.nth path (List.length path - 1) = sw))
    (Topology.switches t)

let test_routing_cross_pod_transits_core () =
  let t = small () in
  let src = (Topology.endpoints_of_tor t (Topology.tor_id t ~pod:0 ~rack:0)).(0) in
  let dst = (Topology.endpoints_of_tor t (Topology.tor_id t ~pod:3 ~rack:0)).(0) in
  let path = Routing.path t ~src ~dst ~salt:11 in
  let transits_core =
    List.exists
      (fun n ->
        match Topology.kind t n with Node.Core _ -> true | _ -> false)
      path
  in
  checkb "goes via core" true transits_core

let test_routing_ecmp_spreads () =
  let t = small () in
  let src = (Topology.endpoints_of_tor t (Topology.tor_id t ~pod:0 ~rack:0)).(0) in
  let dst = (Topology.endpoints_of_tor t (Topology.tor_id t ~pod:1 ~rack:0)).(0) in
  let spines_seen = Hashtbl.create 4 in
  for salt = 0 to 63 do
    let path = Routing.path t ~src ~dst ~salt in
    List.iter
      (fun n ->
        match Topology.kind t n with
        | Node.Spine { pod = 0; group; _ } -> Hashtbl.replace spines_seen group ()
        | _ -> ())
      path
  done;
  checkb "multiple uplink spines used" true (Hashtbl.length spines_seen > 1)

let test_routing_deterministic_per_salt () =
  let t = small () in
  let src = (Topology.hosts t).(0) and dst = (Topology.hosts t).(15) in
  let p1 = Routing.path t ~src ~dst ~salt:5 in
  let p2 = Routing.path t ~src ~dst ~salt:5 in
  checkb "same salt same path" true (p1 = p2)

let test_single_pod_topology () =
  let t =
    Topology.build
      (Params.scaled ~pods:1 ~racks_per_pod:4 ~hosts_per_rack:2 ~vms_per_host:2 ())
  in
  checki "no cores" 0 (Array.length (Topology.cores t));
  (* One rack hosts the gateways: 3 server racks x 2 hosts. *)
  let hosts = Topology.hosts t in
  checki "hosts" 6 (Array.length hosts);
  let hops = Routing.hop_count t ~src:hosts.(0) ~dst:hosts.(5) ~salt:1 in
  checki "intra-pod max 4 hops" 4 hops

let test_link_transmit_model () =
  let l =
    Link.make ~ecn_threshold:None ~src:0 ~dst:1 ~rate_bps:100e9
      ~prop_delay:(Time_ns.of_us 1) ~buffer_bytes:4500
  in
  (* First packet: ser 120ns + prop 1000ns. *)
  (match Link.transmit l ~now:0 ~bytes:1500 with
  | Some tx -> checki "first arrival" 1120 tx.Link.arrival
  | None -> Alcotest.fail "unexpected drop");
  (* Second packet queues behind the first. *)
  (match Link.transmit l ~now:0 ~bytes:1500 with
  | Some tx -> checki "second arrival" 1240 tx.Link.arrival
  | None -> Alcotest.fail "unexpected drop");
  (* Third fills the buffer (4500B). *)
  (match Link.transmit l ~now:0 ~bytes:1500 with
  | Some _ -> ()
  | None -> Alcotest.fail "third should fit");
  (* Fourth overflows. *)
  (match Link.transmit l ~now:0 ~bytes:1500 with
  | Some _ -> Alcotest.fail "should drop"
  | None -> ());
  checki "one drop" 1 l.Link.drops;
  Link.delivered l ~bytes:1500;
  checki "occupancy released" 3000 l.Link.queued_bytes

let test_link_idle_restart () =
  let l =
    Link.make ~ecn_threshold:None ~src:0 ~dst:1 ~rate_bps:100e9
      ~prop_delay:(Time_ns.of_us 1) ~buffer_bytes:1_000_000
  in
  ignore (Link.transmit l ~now:0 ~bytes:1500);
  Link.delivered l ~bytes:1500;
  (* After idle, transmission starts at now, not at old busy_until. *)
  match Link.transmit l ~now:1_000_000 ~bytes:1500 with
  | Some tx -> checki "idle restart" 1_001_120 tx.Link.arrival
  | None -> Alcotest.fail "unexpected drop"

let test_link_ecn_marking () =
  let l =
    Link.make ~ecn_threshold:(Some 3000) ~src:0 ~dst:1 ~rate_bps:100e9
      ~prop_delay:(Time_ns.of_us 1) ~buffer_bytes:1_000_000
  in
  let marked () =
    match Link.transmit l ~now:0 ~bytes:1500 with
    | Some tx -> tx.Link.ce_marked
    | None -> Alcotest.fail "unexpected drop"
  in
  checkb "queue 0: clean" false (marked ());
  checkb "queue 1500: clean" false (marked ());
  checkb "queue 3000: clean (threshold not exceeded)" false (marked ());
  checkb "queue 4500: marked" true (marked ());
  checki "marks counted" 1 l.Link.marked;
  (* Draining the queue stops the marking. *)
  for _ = 1 to 4 do Link.delivered l ~bytes:1500 done;
  checkb "drained: clean" false (marked ())

let switch_pair_routing_qcheck =
  QCheck.Test.make ~name:"switch-to-switch routing terminates" ~count:200
    QCheck.(triple small_nat small_nat small_nat)
    (fun (a, b, salt) ->
      let t = small () in
      let switches = Topology.switches t in
      let src = switches.(a mod Array.length switches) in
      let dst = switches.(b mod Array.length switches) in
      let is_core id =
        match Topology.kind t id with Node.Core _ -> true | _ -> false
      in
      (* Core-to-core is documented as not routable ([next_hop] raises);
         every other switch pair must terminate. *)
      src = dst
      || (is_core src && is_core dst)
      ||
      let path = Routing.path t ~src ~dst ~salt in
      List.nth path (List.length path - 1) = dst && List.length path <= 10)

(* [next_edge] leaves [at] on the link to the oracle's next hop. *)
let edge_matches_oracle t ~at ~dst ~salt =
  let l = Topology.link_of_edge t (Routing.next_edge t ~at ~dst ~salt) in
  l.Link.src = at && l.Link.dst = Routing.next_hop_oracle t ~at ~dst ~salt

(* The table-based [next_hop] and [next_edge] must agree with the
   coordinate-computed oracle at every (at, dst, salt), over every node
   kind. Core-to-core and at = dst are the two argument combinations
   both reject. *)
let next_hop_table_vs_oracle_qcheck =
  QCheck.Test.make ~name:"next_hop table agrees with oracle" ~count:1000
    QCheck.(triple small_nat small_nat small_nat)
    (fun (a, b, salt) ->
      let t = small () in
      let n = Topology.num_nodes t in
      let at = a mod n in
      let dst = b mod n in
      let is_core id =
        match Topology.kind t id with Node.Core _ -> true | _ -> false
      in
      at = dst
      || (is_core at && is_core dst)
      || Routing.next_hop t ~at ~dst ~salt
         = Routing.next_hop_oracle t ~at ~dst ~salt
         && edge_matches_oracle t ~at ~dst ~salt)

(* --- CSR adjacency vs a coordinate-derived Hashtbl oracle --- *)

(* Rebuild the expected adjacency purely from FatTree coordinates
   (endpoint <-> its ToR, ToR <-> every pod spine, spine g <-> every
   group-g core) into a hashtable — the representation the production
   code no longer uses — and check the CSR accessors against it. *)
let oracle_adjacency t =
  let tbl = Hashtbl.create 1024 in
  let add a b =
    Hashtbl.replace tbl (a, b) ();
    Hashtbl.replace tbl (b, a) ()
  in
  let p = Topology.params t in
  Array.iter
    (fun tor ->
      Array.iter (fun ep -> add ep tor) (Topology.endpoints_of_tor t tor))
    (Topology.tors t);
  for pod = 0 to p.Params.pods - 1 do
    for rack = 0 to p.Params.racks_per_pod - 1 do
      let tor = Topology.tor_id t ~pod ~rack in
      for group = 0 to p.Params.spines_per_pod - 1 do
        add tor (Topology.spine_id t ~pod ~group)
      done
    done
  done;
  for group = 0 to p.Params.spines_per_pod - 1 do
    for idx = 0 to p.Params.cores_per_group - 1 do
      let core = Topology.core_id t ~group ~idx in
      for pod = 0 to p.Params.pods - 1 do
        add (Topology.spine_id t ~pod ~group) core
      done
    done
  done;
  tbl

let csr_vs_oracle_qcheck =
  QCheck.Test.make ~name:"CSR link/neighbors/uplinks agree with oracle"
    ~count:12
    QCheck.(
      quad (int_range 1 4) (int_range 2 4) (int_range 1 3) (int_range 1 3))
    (fun (pods, racks_per_pod, hosts_per_rack, spines_per_pod) ->
      let t =
        Topology.build
          (Params.scaled ~pods ~racks_per_pod ~hosts_per_rack ~spines_per_pod
             ~vms_per_host:2 ())
      in
      let p = Topology.params t in
      let n = Topology.num_nodes t in
      let oracle = Hashtbl.copy (oracle_adjacency t) in
      (* Directed-edge count matches the oracle exactly. *)
      if Topology.num_links t <> Hashtbl.length oracle then
        QCheck.Test.fail_reportf "num_links %d <> oracle %d"
          (Topology.num_links t) (Hashtbl.length oracle);
      (* Every oracle edge resolves to a correctly-oriented link... *)
      Hashtbl.iter
        (fun (src, dst) () ->
          let l = Topology.link t ~src ~dst in
          if l.Link.src <> src || l.Link.dst <> dst then
            QCheck.Test.fail_reportf "link %d->%d carries %d->%d" src dst
              l.Link.src l.Link.dst)
        oracle;
      (* ...and every node's CSR row is exactly the oracle's neighbor
         set, sorted ascending. *)
      for id = 0 to n - 1 do
        let nbrs = Topology.neighbors t id in
        Array.iteri
          (fun i d ->
            if i > 0 && nbrs.(i - 1) >= d then
              QCheck.Test.fail_reportf "neighbors of %d not sorted" id;
            if not (Hashtbl.mem oracle (id, d)) then
              QCheck.Test.fail_reportf "CSR edge %d->%d not in oracle" id d)
          nbrs;
        let deg =
          Hashtbl.fold
            (fun (s, _) () acc -> if s = id then acc + 1 else acc)
            oracle 0
        in
        if Array.length nbrs <> deg then
          QCheck.Test.fail_reportf "degree of %d: CSR %d oracle %d" id
            (Array.length nbrs) deg;
        (* Non-adjacent lookups raise, including self-loops. *)
        (match Topology.link t ~src:id ~dst:id with
        | exception Not_found -> ()
        | _ -> QCheck.Test.fail_reportf "self-link %d did not raise" id);
        (* Uplink rows come straight from coordinates. *)
        let expected_uplinks =
          match Topology.kind t id with
          | Node.Tor { pod; _ } ->
              Array.init p.Params.spines_per_pod (fun group ->
                  Topology.spine_id t ~pod ~group)
          | Node.Spine { group; _ } ->
              Array.init p.Params.cores_per_group (fun idx ->
                  Topology.core_id t ~group ~idx)
          | Node.Host _ | Node.Gateway _ | Node.Core _ -> [||]
        in
        if Topology.uplinks t id <> expected_uplinks then
          QCheck.Test.fail_reportf "uplinks of %d wrong" id
      done;
      (* Every routable pair leaves on the oracle's link. *)
      for at = 0 to n - 1 do
        for dst = 0 to n - 1 do
          let is_core id = Topology.tag t id = Topology.tag_core in
          if at <> dst && not (is_core at && is_core dst) then
            for salt = 0 to 1 do
              if not (edge_matches_oracle t ~at ~dst ~salt) then
                QCheck.Test.fail_reportf
                  "next_edge %d -> %d (salt %d) is off the oracle's link" at
                  dst salt
            done
        done
      done;
      (* Out-of-range sources raise [Not_found]: [link] guards the
         CSR range explicitly. *)
      (match Topology.link t ~src:(-1) ~dst:0 with
      | exception Not_found -> ()
      | _ -> QCheck.Test.fail_report "src -1 did not raise");
      (match Topology.link t ~src:n ~dst:0 with
      | exception Not_found -> ()
      | _ -> QCheck.Test.fail_report "src n did not raise");
      true)

(* Every edge is the one [edge] finds between its own endpoints, and
   the edge tables point where the node-level indexes say: [up_edges]
   parallel to [uplinks] (an endpoint's row is its uplink),
   [down_edges] by rack / by pod, [downlink_edge] from the ToR. *)
let check_edge_tables t =
  let p = Topology.params t in
  for e = 0 to Topology.num_links t - 1 do
    let l = Topology.link_of_edge t e in
    if Topology.edge t ~src:l.Link.src ~dst:l.Link.dst <> e then
      QCheck.Test.fail_reportf "edge %d (%d -> %d) does not round-trip" e
        l.Link.src l.Link.dst;
    if Topology.edge_dst t e <> l.Link.dst then
      QCheck.Test.fail_reportf "edge_dst %d disagrees with its link" e
  done;
  let leads ~src e dst =
    let l = Topology.link_of_edge t e in
    l.Link.src = src && l.Link.dst = dst
  in
  for id = 0 to Topology.num_nodes t - 1 do
    let ups = Topology.up_edges t id and downs = Topology.down_edges t id in
    let ups_parallel () =
      let want = Topology.uplinks t id in
      Array.length ups = Array.length want
      && Array.for_all2 (fun e d -> leads ~src:id e d) ups want
    in
    let downs_by len dst_of =
      Array.length downs = len
      && Array.for_all Fun.id
           (Array.mapi (fun i e -> leads ~src:id e (dst_of i)) downs)
    in
    let ok =
      match Topology.kind t id with
      | Node.Host _ | Node.Gateway _ ->
          let tor = Topology.tor_of t id in
          Array.length ups = 1
          && leads ~src:id (Topology.uplink_edge t id) tor
          && leads ~src:tor (Topology.downlink_edge t id) id
          && downs = [||]
      | Node.Tor _ -> ups_parallel () && downs = [||]
      | Node.Spine { pod; _ } ->
          ups_parallel ()
          && downs_by p.Params.racks_per_pod (fun rack ->
                 Topology.tor_id t ~pod ~rack)
      | Node.Core { group; _ } ->
          ups_parallel ()
          && downs_by p.Params.pods (fun pod -> Topology.spine_id t ~pod ~group)
    in
    if not ok then QCheck.Test.fail_reportf "edge tables of node %d wrong" id
  done;
  true

let edge_tables_qcheck =
  QCheck.Test.make
    ~name:"edges round-trip and edge tables agree with coordinates" ~count:12
    QCheck.(
      quad (int_range 1 4) (int_range 2 4) (int_range 1 3) (int_range 1 3))
    (fun (pods, racks_per_pod, hosts_per_rack, spines_per_pod) ->
      check_edge_tables
        (Topology.build
           (Params.scaled ~pods ~racks_per_pod ~hosts_per_rack ~spines_per_pod
              ~vms_per_host:2 ())))

(* The FT16-400K preset used to silently fall off the dense-table fast
   path (n > 1024); route it for real against the coordinate oracle. *)
let ft16 = lazy (Topology.build (Params.ft16_400k ()))

let ft16_next_hop_qcheck =
  QCheck.Test.make ~name:"FT16-400K next_hop agrees with oracle" ~count:500
    QCheck.(triple (int_bound 1_000_000) (int_bound 1_000_000) small_nat)
    (fun (a, b, salt) ->
      let t = Lazy.force ft16 in
      let n = Topology.num_nodes t in
      let at = a mod n and dst = b mod n in
      let is_core id =
        match Topology.kind t id with Node.Core _ -> true | _ -> false
      in
      at = dst
      || (is_core at && is_core dst)
      || Routing.next_hop t ~at ~dst ~salt
         = Routing.next_hop_oracle t ~at ~dst ~salt
         && edge_matches_oracle t ~at ~dst ~salt)

let test_ft16_edge_tables () =
  ignore (check_edge_tables (Lazy.force ft16) : bool)

let ft16_link_qcheck =
  QCheck.Test.make ~name:"FT16-400K CSR link agrees with tor_of/uplinks"
    ~count:300 QCheck.(pair (int_bound 1_000_000) small_nat)
    (fun (a, salt) ->
      let t = Lazy.force ft16 in
      let hosts = Topology.hosts t in
      let host = hosts.(a mod Array.length hosts) in
      let tor = Topology.tor_of t host in
      let up = Topology.uplinks t tor in
      let spine = up.(salt mod Array.length up) in
      let l1 = Topology.link t ~src:host ~dst:tor in
      let l2 = Topology.link t ~src:tor ~dst:spine in
      l1.Link.src = host && l1.Link.dst = tor && l2.Link.src = tor
      && l2.Link.dst = spine
      && (match Topology.link t ~src:host ~dst:spine with
         | exception Not_found -> true
         | _ -> false))

let routing_qcheck =
  QCheck.Test.make ~name:"random host pairs route correctly" ~count:300
    QCheck.(triple small_nat small_nat small_nat)
    (fun (a, b, salt) ->
      let t = small () in
      let hosts = Topology.hosts t in
      let src = hosts.(a mod Array.length hosts) in
      let dst = hosts.(b mod Array.length hosts) in
      src = dst
      ||
      let path = Routing.path t ~src ~dst ~salt in
      List.hd path = src
      && List.nth path (List.length path - 1) = dst
      && List.length path - 1 <= 6)

(* 16 fields plus the header: a link sits in OCaml's 18-word size
   class, one per directed edge (29,300 at FT16-400K). *)
let test_link_size_pinned () =
  let l =
    Link.make ~ecn_threshold:None ~src:0 ~dst:1 ~rate_bps:100e9
      ~prop_delay:(Time_ns.of_us 1) ~buffer_bytes:1_000_000
  in
  checkb "at most 16 fields" true (Obj.size (Obj.repr l) <= 16)

let () =
  Alcotest.run "topo"
    [
      ( "params",
        [
          Alcotest.test_case "ft8 preset" `Quick test_ft8_preset;
          Alcotest.test_case "ft16 preset" `Quick test_ft16_preset;
          Alcotest.test_case "validation" `Quick test_params_validation;
        ] );
      ( "build",
        [
          Alcotest.test_case "counts" `Quick test_build_counts;
          Alcotest.test_case "bounds checked" `Quick test_bounds_checked;
          Alcotest.test_case "roles" `Quick test_roles;
          Alcotest.test_case "gateway racks" `Quick test_gateway_tor_hosts_only_gateways;
          Alcotest.test_case "endpoint/tor symmetry" `Quick test_endpoint_tor_symmetry;
          Alcotest.test_case "links bidirectional" `Quick test_links_bidirectional;
          Alcotest.test_case "link rates" `Quick test_link_rates;
          QCheck_alcotest.to_alcotest csr_vs_oracle_qcheck;
          QCheck_alcotest.to_alcotest edge_tables_qcheck;
        ] );
      ( "ft16",
        [
          QCheck_alcotest.to_alcotest ft16_next_hop_qcheck;
          QCheck_alcotest.to_alcotest ft16_link_qcheck;
          Alcotest.test_case "edge tables" `Quick test_ft16_edge_tables;
        ] );
      ( "routing",
        [
          Alcotest.test_case "all host pairs" `Quick test_routing_all_pairs;
          Alcotest.test_case "hop counts" `Quick test_routing_hop_counts;
          Alcotest.test_case "switch-addressed" `Quick test_routing_to_switches;
          Alcotest.test_case "cross-pod via core" `Quick test_routing_cross_pod_transits_core;
          Alcotest.test_case "ecmp spreads" `Quick test_routing_ecmp_spreads;
          Alcotest.test_case "deterministic" `Quick test_routing_deterministic_per_salt;
          Alcotest.test_case "single-pod" `Quick test_single_pod_topology;
          QCheck_alcotest.to_alcotest routing_qcheck;
          QCheck_alcotest.to_alcotest switch_pair_routing_qcheck;
          QCheck_alcotest.to_alcotest next_hop_table_vs_oracle_qcheck;
        ] );
      ( "link",
        [
          Alcotest.test_case "transmit model" `Quick test_link_transmit_model;
          Alcotest.test_case "idle restart" `Quick test_link_idle_restart;
          Alcotest.test_case "ecn marking" `Quick test_link_ecn_marking;
          Alcotest.test_case "16 fields" `Quick test_link_size_pinned;
        ] );
    ]
