(* Flat node coordinates: one packed int per node, so the per-hop path
   reads a node's tier and position with one load instead of chasing
   [Node.t] to its boxed [kind]. Layout, low bits first: 3-bit tag,
   1 gateway bit (gateway ToR / gateway spine), 19-bit idx, 19-bit sub
   (rack for endpoints and ToRs, group for spines and cores), and the
   pod in the remaining high bits, signed so a core's pod reads -1. *)
let tag_host = 0
let tag_gateway = 1
let tag_tor = 2
let tag_spine = 3
let tag_core = 4
let gw_bit = 8
let idx_shift = 4
let sub_shift = 23
let pod_shift = 42
let field_mask = (1 lsl 19) - 1
let coord_tag c = c land 7
let coord_pod c = c asr pod_shift
let coord_sub c = (c lsr sub_shift) land field_mask
let coord_idx c = (c lsr idx_shift) land field_mask

let pack_coord (kind : Node.kind) =
  let pack tag ~gw ~pod ~sub ~idx =
    if sub > field_mask || idx > field_mask || pod >= 1 lsl (62 - pod_shift)
    then invalid_arg "Topology.build: coordinate out of range";
    (pod lsl pod_shift) lor (sub lsl sub_shift) lor (idx lsl idx_shift)
    lor (if gw then gw_bit else 0)
    lor tag
  in
  match kind with
  | Node.Host { pod; rack; idx } -> pack tag_host ~gw:false ~pod ~sub:rack ~idx
  | Node.Gateway { pod; rack; idx } ->
      pack tag_gateway ~gw:false ~pod ~sub:rack ~idx
  | Node.Tor { pod; rack; gateway_tor } ->
      pack tag_tor ~gw:gateway_tor ~pod ~sub:rack ~idx:0
  | Node.Spine { pod; group; gateway_spine } ->
      pack tag_spine ~gw:gateway_spine ~pod ~sub:group ~idx:0
  | Node.Core { group; idx } ->
      pack tag_core ~gw:false ~pod:(-1) ~sub:group ~idx

type t = {
  params : Params.t;
  nodes : Node.t array; (* cold callers: [node], [kind] *)
  coords : int array; (* node id -> packed coordinate (see above) *)
  hosts : int array;
  gateways : int array;
  tors : int array;
  spines : int array;
  cores : int array;
  switches : int array;
  tor_of : int array; (* endpoint id -> tor id; -1 for switches *)
  endpoints_of_tor : int array array; (* indexed by tor position in [tors] *)
  tor_pos : int array; (* node id -> position in [tors]; -1 otherwise *)
  tor_ids : int array array; (* pod -> rack -> id *)
  spine_ids : int array array; (* pod -> group -> id *)
  core_ids : int array array; (* group -> idx -> id *)
  (* CSR adjacency: node [id]'s row spans [csr_off.(id), csr_off.(id+1))
     in [csr_nbr] (neighbor ids, sorted ascending) and [csr_links] (the
     directed link to that neighbor at the same index). A position in
     these arrays is an edge: the directed link's id. O(n + E) words at
     any scale. *)
  csr_off : int array; (* length n+1 *)
  csr_nbr : int array; (* length E (directed edges) *)
  csr_links : Link.t array; (* length E, parallel to csr_nbr *)
  neighbors : int array array;
      (* per-node views of the CSR rows (sorted ascending); built once,
         rows are stable across calls — treat as read-only *)
  uplinks : int array array;
      (* node id -> upward ECMP candidates: ToR -> its pod's spines
         (indexed by group), spine -> its group's cores (indexed by
         idx), [||] for endpoints and cores. Rows alias [spine_ids] /
         [core_ids]; never mutate. *)
  (* Edge tables: CSR edge indices (directed-link ids), filled while
     the CSR is flattened, so routing returns the egress edge and the
     per-hop path never searches a row. *)
  up_edges : int array array;
      (* parallel to [uplinks] for switches; an endpoint's row holds its
         one uplink (to its ToR) *)
  down_edges : int array array;
      (* spine -> edge to its pod's ToR of each rack (indexed by rack);
         core -> edge to its group's spine in each pod (indexed by pod);
         [||] otherwise *)
  ep_down : int array;
      (* endpoint id -> edge from its ToR to it; -1 for switches *)
}

let params t = t.params
let num_nodes t = Array.length t.nodes
let num_links t = Array.length t.csr_links

let node t id =
  if id < 0 || id >= Array.length t.nodes then
    invalid_arg "Topology.node: id out of range";
  t.nodes.(id)

let kind t id = (node t id).Node.kind
let coord t id = t.coords.(id)
let tag t id = coord_tag t.coords.(id)
let pod t id = coord_pod t.coords.(id)
let is_endpoint t id = coord_tag t.coords.(id) <= tag_gateway
let pip (_ : t) id = Netcore.Addr.Pip.of_int id
let node_of_pip (_ : t) pip = Netcore.Addr.Pip.to_int pip
let hosts t = t.hosts
let gateways t = t.gateways
let tors t = t.tors
let spines t = t.spines
let cores t = t.cores
let switches t = t.switches

let tor_of t id =
  let tor = t.tor_of.(id) in
  if tor < 0 then invalid_arg "Topology.tor_of: not an endpoint";
  tor

let endpoints_of_tor t tor =
  let pos = t.tor_pos.(tor) in
  if pos < 0 then invalid_arg "Topology.endpoints_of_tor: not a ToR";
  t.endpoints_of_tor.(pos)

let tor_id t ~pod ~rack = t.tor_ids.(pod).(rack)
let spine_id t ~pod ~group = t.spine_ids.(pod).(group)
let core_id t ~group ~idx = t.core_ids.(group).(idx)

let role t id =
  if id < 0 || id >= Array.length t.coords then
    invalid_arg "Topology.role: not a switch";
  let c = t.coords.(id) in
  let tag = coord_tag c and gw = c land gw_bit <> 0 in
  if tag = tag_tor then if gw then Node.Gateway_tor else Node.Regular_tor
  else if tag = tag_spine then
    if gw then Node.Gateway_spine else Node.Regular_spine
  else if tag = tag_core then Node.Core_switch
  else invalid_arg "Topology.role: not a switch"

(* A bounded binary search of the source's CSR row, for cold callers
   (fault actions, validation, tests): the per-hop path gets its edge
   from routing instead. Top level with every operand passed
   explicitly, so no closure is allocated per call. *)
let rec csr_search (nbr : int array) dst lo hi =
  if lo >= hi then raise Not_found
  else
    let mid = (lo + hi) lsr 1 in
    let v = nbr.(mid) in
    if v = dst then mid
    else if v < dst then csr_search nbr dst (mid + 1) hi
    else csr_search nbr dst lo mid

let edge t ~src ~dst =
  if src < 0 || src >= Array.length t.nodes then raise Not_found;
  csr_search t.csr_nbr dst t.csr_off.(src) t.csr_off.(src + 1)

let link t ~src ~dst = t.csr_links.(edge t ~src ~dst)
let link_of_edge t e = t.csr_links.(e)
let edge_dst t e = t.csr_nbr.(e)
let up_edges t id = t.up_edges.(id)
let down_edges t id = t.down_edges.(id)

let uplink_edge t id =
  if not (is_endpoint t id) then
    invalid_arg "Topology.uplink_edge: not an endpoint";
  t.up_edges.(id).(0)

let downlink_edge t id =
  let e = t.ep_down.(id) in
  if e < 0 then invalid_arg "Topology.downlink_edge: not an endpoint";
  e

let iter_links t f = Array.iter f t.csr_links
let neighbors t id = t.neighbors.(id)
let uplinks t id = t.uplinks.(id)

let build (p : Params.t) =
  Params.validate p;
  let gateway_pod p' = List.mem p' p.gateway_pods in
  (* The last rack of a gateway pod is the gateway rack. *)
  let gateway_rack pod rack = gateway_pod pod && rack = p.racks_per_pod - 1 in
  let next_id = ref 0 in
  let fresh () =
    let id = !next_id in
    incr next_id;
    id
  in
  let nodes = ref [] in
  let add kind =
    let id = fresh () in
    nodes := { Node.id; kind } :: !nodes;
    id
  in
  (* Endpoints first (compact PIPs for hosts), then switches. *)
  let hosts = ref [] and gateways = ref [] in
  let endpoints = Array.make_matrix p.pods p.racks_per_pod [||] in
  for pod = 0 to p.pods - 1 do
    for rack = 0 to p.racks_per_pod - 1 do
      if gateway_rack pod rack then begin
        let ids =
          Array.init p.gateways_per_gateway_pod (fun idx ->
              let id = add (Node.Gateway { pod; rack; idx }) in
              gateways := id :: !gateways;
              id)
        in
        endpoints.(pod).(rack) <- ids
      end
      else begin
        let ids =
          Array.init p.hosts_per_rack (fun idx ->
              let id = add (Node.Host { pod; rack; idx }) in
              hosts := id :: !hosts;
              id)
        in
        endpoints.(pod).(rack) <- ids
      end
    done
  done;
  let tor_ids =
    Array.init p.pods (fun pod ->
        Array.init p.racks_per_pod (fun rack ->
            add (Node.Tor { pod; rack; gateway_tor = gateway_rack pod rack })))
  in
  let spine_ids =
    Array.init p.pods (fun pod ->
        Array.init p.spines_per_pod (fun group ->
            add (Node.Spine { pod; group; gateway_spine = gateway_pod pod })))
  in
  let core_ids =
    Array.init p.spines_per_pod (fun group ->
        Array.init p.cores_per_group (fun idx -> add (Node.Core { group; idx })))
  in
  let nodes =
    let arr = Array.of_list (List.rev !nodes) in
    Array.iteri (fun i n -> assert (n.Node.id = i)) arr;
    arr
  in
  let n = Array.length nodes in
  (* Per-node (neighbor, link) rows, collected in construction order
     and flattened into CSR below. *)
  let adjacency = Array.make n [] in
  let connect a b rate =
    let mk src dst =
      ( dst,
        Link.make ~ecn_threshold:p.ecn_threshold_bytes ~src ~dst ~rate_bps:rate
          ~prop_delay:p.prop_delay ~buffer_bytes:p.buffer_bytes )
    in
    adjacency.(a) <- mk a b :: adjacency.(a);
    adjacency.(b) <- mk b a :: adjacency.(b)
  in
  let tor_of = Array.make n (-1) in
  let tor_pos = Array.make n (-1) in
  (* Endpoint <-> ToR links. *)
  for pod = 0 to p.pods - 1 do
    for rack = 0 to p.racks_per_pod - 1 do
      let tor = tor_ids.(pod).(rack) in
      Array.iter
        (fun ep ->
          tor_of.(ep) <- tor;
          connect ep tor p.host_link_bps)
        endpoints.(pod).(rack)
    done
  done;
  (* ToR <-> spine (full bipartite per pod). *)
  for pod = 0 to p.pods - 1 do
    Array.iter
      (fun tor ->
        Array.iter (fun spine -> connect tor spine p.fabric_link_bps) spine_ids.(pod))
      tor_ids.(pod)
  done;
  (* Spine <-> core (group-wise). *)
  for group = 0 to p.spines_per_pod - 1 do
    Array.iter
      (fun core ->
        for pod = 0 to p.pods - 1 do
          connect spine_ids.(pod).(group) core p.fabric_link_bps
        done)
      core_ids.(group)
  done;
  let tors = Array.concat (Array.to_list tor_ids) in
  let spines = Array.concat (Array.to_list spine_ids) in
  let cores = Array.concat (Array.to_list core_ids) in
  Array.iteri (fun pos tor -> tor_pos.(tor) <- pos) tors;
  let endpoints_of_tor =
    Array.map
      (fun tor ->
        match nodes.(tor).Node.kind with
        | Node.Tor { pod; rack; _ } -> endpoints.(pod).(rack)
        | _ -> assert false)
      tors
  in
  let no_uplinks = [||] in
  let uplinks =
    Array.map
      (fun node ->
        match node.Node.kind with
        | Node.Tor { pod; _ } -> spine_ids.(pod)
        | Node.Spine { group; _ } -> core_ids.(group)
        | Node.Host _ | Node.Gateway _ | Node.Core _ -> no_uplinks)
      nodes
  in
  (* Flatten adjacency into CSR: sort each row by neighbor id (the
     binary search in [link] depends on it), then fill the flat
     offset/neighbor/link arrays. The FatTree constructor connects each
     node pair exactly once; the duplicate check makes that a hard
     invariant rather than a silent last-writer-wins. *)
  let rows =
    Array.map
      (fun l ->
        let row = Array.of_list l in
        Array.sort (fun (a, _) (b, _) -> Int.compare a b) row;
        Array.iteri
          (fun i (d, _) ->
            if i > 0 && fst row.(i - 1) = d then
              invalid_arg "Topology.build: duplicate link")
          row;
        row)
      adjacency
  in
  let csr_off = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    csr_off.(i + 1) <- csr_off.(i) + Array.length rows.(i)
  done;
  let num_links = csr_off.(n) in
  let csr_nbr = Array.make num_links (-1) in
  let csr_links =
    let seed = ref None in
    Array.iter
      (fun row -> if !seed = None && Array.length row > 0 then seed := Some (snd row.(0)))
      rows;
    match !seed with
    | None -> [||]
    | Some l -> Array.make num_links l
  in
  (* Fill the CSR and, in the same pass, the edge tables: each edge's
     slot follows from the two endpoints' coordinates. *)
  let coords = Array.map (fun node -> pack_coord node.Node.kind) nodes in
  let up_edges =
    Array.mapi
      (fun id ups ->
        if coord_tag coords.(id) <= tag_gateway then [| -1 |]
        else Array.make (Array.length ups) (-1))
      uplinks
  in
  let down_edges =
    Array.map
      (fun c ->
        let tag = coord_tag c in
        if tag = tag_spine then Array.make p.racks_per_pod (-1)
        else if tag = tag_core then Array.make p.pods (-1)
        else [||])
      coords
  in
  let ep_down = Array.make n (-1) in
  Array.iteri
    (fun i row ->
      let ci = coords.(i) in
      let ti = coord_tag ci in
      Array.iteri
        (fun j (d, l) ->
          let e = csr_off.(i) + j in
          csr_nbr.(e) <- d;
          csr_links.(e) <- l;
          let cd = coords.(d) in
          if ti <= tag_gateway then up_edges.(i).(0) <- e
          else if ti = tag_tor then
            if coord_tag cd <= tag_gateway then ep_down.(d) <- e
            else up_edges.(i).(coord_sub cd) <- e (* spine, by group *)
          else if ti = tag_spine then
            if coord_tag cd = tag_tor then down_edges.(i).(coord_sub cd) <- e
            else up_edges.(i).(coord_idx cd) <- e (* core, by idx *)
          else down_edges.(i).(coord_pod cd) <- e (* core -> spine, by pod *))
        row)
    rows;
  let filled = Array.for_all (Array.for_all (fun e -> e >= 0)) in
  if not (filled up_edges && filled down_edges) then
    invalid_arg "Topology.build: incomplete edge table";
  Array.iteri
    (fun id e ->
      if (e < 0) <> (coord_tag coords.(id) > tag_gateway) then
        invalid_arg "Topology.build: incomplete edge table")
    ep_down;
  {
    params = p;
    nodes;
    coords;
    hosts = Array.of_list (List.rev !hosts);
    gateways = Array.of_list (List.rev !gateways);
    tors;
    spines;
    cores;
    switches = Array.concat [ tors; spines; cores ];
    tor_of;
    endpoints_of_tor;
    tor_pos;
    tor_ids;
    spine_ids;
    core_ids;
    csr_off;
    csr_nbr;
    csr_links;
    neighbors = Array.map (Array.map fst) rows;
    uplinks;
    up_edges;
    down_edges;
    ep_down;
  }
