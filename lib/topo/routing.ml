let ecmp_hash ~salt ~a ~b =
  (* splitmix-style finalizer over the packed inputs, in native int
     arithmetic: the forwarding hot path calls this per hop, and boxed
     Int64 operations would allocate on every call without flambda.
     Multipliers are odd 61/62-bit constants derived from the
     splitmix64 ones. *)
  let z = (salt * 0x9E3779B9) lxor (a * 0x85EBCA6B) lxor (b * 0xC2B2AE35) in
  let z = (z lxor (z lsr 30)) * 0x3F58476D1CE4E5B9 in
  let z = (z lxor (z lsr 27)) * 0x14D049BB133111EB in
  let z = z lxor (z lsr 31) in
  z land max_int

let pick ~salt ~at ~dst (arr : int array) =
  arr.(ecmp_hash ~salt ~a:(at + dst) ~b:dst mod Array.length arr)

let blackhole = -1

(* [route] is the one case analysis behind [next_edge] and
   [next_edge_alive]. It reads both nodes' flat coordinates and returns
   the egress edge from the tables [Topology.build] precomputes, so
   every case is array indexing. With [alive], a forced hop (unique next
   hop) whose link is down yields [blackhole], and where ECMP siblings
   exist dead candidates are skipped by probing the candidate ring from
   the hashed index; with every link up the probe stops at its first
   candidate, so both variants agree hop for hop. Every helper is top
   level with its operands passed explicitly: a local closure would
   allocate on each call. [ecmp_hash]'s inputs fix every path, and so
   every golden transcript: they must not change. *)
let forced topo ~alive e =
  if alive && not (Topology.link_of_edge topo e).Link.up then blackhole else e

(* First live edge in ring order starting at [start]; [blackhole] if
   every candidate's link is dead. *)
let rec probe_ring topo (row : int array) start n i =
  if i = n then blackhole
  else
    let e = row.((start + i) mod n) in
    if (Topology.link_of_edge topo e).Link.up then e
    else probe_ring topo row start n (i + 1)

let ring topo ~alive (row : int array) start =
  if alive then probe_ring topo row start (Array.length row) 0 else row.(start)

let route topo ~alive ~at ~dst ~salt =
  if at = dst then invalid_arg "Routing.next_edge: already at destination";
  let n = Topology.num_nodes topo in
  if at lor dst < 0 || at >= n || dst >= n then
    invalid_arg "Routing.next_edge: no such node";
  let ca = Topology.coord topo at and cd = Topology.coord topo dst in
  let ta = Topology.coord_tag ca and td = Topology.coord_tag cd in
  if ta <= Topology.tag_gateway then
    forced topo ~alive (Topology.up_edges topo at).(0)
  else if ta = Topology.tag_tor then
    (* Deliver to an attached endpoint, else pick an uplink spine. *)
    if td <= Topology.tag_gateway && Topology.tor_of topo dst = at then
      forced topo ~alive (Topology.downlink_edge topo dst)
    else if td >= Topology.tag_spine then
      (* A spine in this pod or another, or a core: cores of group [g]
         are reachable only via spine [g]. *)
      forced topo ~alive (Topology.up_edges topo at).(Topology.coord_sub cd)
    else
      (* Any spine of this pod reaches any pod. *)
      let ups = Topology.up_edges topo at in
      ring topo ~alive ups (ecmp_hash ~salt ~a:at ~b:dst mod Array.length ups)
  else if ta = Topology.tag_spine then
    let pod = Topology.coord_pod ca and group = Topology.coord_sub ca in
    if td <= Topology.tag_tor && Topology.coord_pod cd = pod then
      (* Down to the destination's rack. *)
      forced topo ~alive (Topology.down_edges topo at).(Topology.coord_sub cd)
    else if td = Topology.tag_core && Topology.coord_sub cd = group then
      forced topo ~alive (Topology.up_edges topo at).(Topology.coord_idx cd)
    else if
      td = Topology.tag_core
      || (td = Topology.tag_spine && Topology.coord_sub cd <> group)
    then
      (* Wrong group: descend to a local ToR which re-ascends via the
         right group. Only possible for switch-addressed control
         packets that entered the fabric on the wrong group; one bounce
         corrects it. Any live-linked rack serves. *)
      let downs = Topology.down_edges topo at in
      ring topo ~alive downs
        (ecmp_hash ~salt ~a:at ~b:dst mod Array.length downs)
    else
      (* Another pod, same group (or endpoint): transit any core of
         this group. *)
      let cores = Topology.up_edges topo at in
      let k = Array.length cores in
      if k = 0 then
        invalid_arg "Routing.next_edge: destination unreachable (no cores)"
      else ring topo ~alive cores (ecmp_hash ~salt ~a:(at + dst) ~b:dst mod k)
  else if td = Topology.tag_core then
    invalid_arg "Routing.next_edge: core-to-core packets are not routable"
  else
    (* A core descends to its group's spine in the destination's pod. *)
    forced topo ~alive (Topology.down_edges topo at).(Topology.coord_pod cd)

let next_edge topo ~at ~dst ~salt = route topo ~alive:false ~at ~dst ~salt
let next_edge_alive topo ~at ~dst ~salt = route topo ~alive:true ~at ~dst ~salt
let next_hop topo ~at ~dst ~salt =
  Topology.edge_dst topo (next_edge topo ~at ~dst ~salt)

let next_hop_alive topo ~at ~dst ~salt =
  let e = next_edge_alive topo ~at ~dst ~salt in
  if e = blackhole then blackhole else Topology.edge_dst topo e

(* The original implementation: next hops recomputed from node
   coordinates on every call (including an [Array.init] of the core
   candidate set). Retained as the oracle for the edge-table path. *)
let next_hop_oracle topo ~at ~dst ~salt =
  if at = dst then invalid_arg "Routing.next_hop: already at destination";
  let p = Topology.params topo in
  let dst_kind = Topology.kind topo dst in
  match Topology.kind topo at with
  | Node.Host _ | Node.Gateway _ -> Topology.tor_of topo at
  | Node.Tor { pod; _ } -> (
      match dst_kind with
      | Node.Host { pod = dp; _ } | Node.Gateway { pod = dp; _ }
        when dp = pod && Topology.tor_of topo dst = at ->
          dst
      | Node.Spine { pod = dp; group; _ } when dp = pod ->
          Topology.spine_id topo ~pod ~group
      | Node.Core { group; _ } -> Topology.spine_id topo ~pod ~group
      | Node.Spine { group; _ } -> Topology.spine_id topo ~pod ~group
      | Node.Host _ | Node.Gateway _ | Node.Tor _ ->
          let group = ecmp_hash ~salt ~a:at ~b:dst mod p.Params.spines_per_pod in
          Topology.spine_id topo ~pod ~group)
  | Node.Spine { pod; group; _ } -> (
      let down_in_pod dp dst =
        match dst with
        | Node.Host { rack; _ } | Node.Gateway { rack; _ } ->
            Topology.tor_id topo ~pod:dp ~rack
        | Node.Tor { rack; _ } -> Topology.tor_id topo ~pod:dp ~rack
        | Node.Spine _ | Node.Core _ -> assert false
      in
      match dst_kind with
      | (Node.Host { pod = dp; _ } | Node.Gateway { pod = dp; _ } | Node.Tor { pod = dp; _ })
        when dp = pod ->
          down_in_pod pod dst_kind
      | Node.Core { group = g; idx } when g = group ->
          Topology.core_id topo ~group ~idx
      | Node.Core _ ->
          let rack = ecmp_hash ~salt ~a:at ~b:dst mod p.Params.racks_per_pod in
          Topology.tor_id topo ~pod ~rack
      | Node.Spine { group = g; _ } when g <> group ->
          let rack = ecmp_hash ~salt ~a:at ~b:dst mod p.Params.racks_per_pod in
          Topology.tor_id topo ~pod ~rack
      | Node.Host _ | Node.Gateway _ | Node.Tor _ | Node.Spine _ ->
          if p.Params.cores_per_group = 0 then
            invalid_arg "Routing.next_hop: destination unreachable (no cores)"
          else
            let cores =
              Array.init p.Params.cores_per_group (fun idx ->
                  Topology.core_id topo ~group ~idx)
            in
            pick ~salt ~at ~dst cores)
  | Node.Core { group; _ } -> (
      match dst_kind with
      | Node.Host { pod; _ } | Node.Gateway { pod; _ } | Node.Tor { pod; _ } ->
          Topology.spine_id topo ~pod ~group
      | Node.Spine { pod; group = _; _ } -> Topology.spine_id topo ~pod ~group
      | Node.Core _ ->
          invalid_arg "Routing.next_hop: core-to-core packets are not routable")

let path topo ~src ~dst ~salt =
  let rec go at acc guard =
    if guard > 64 then failwith "Routing.path: loop detected"
    else if at = dst then List.rev (dst :: acc)
    else go (next_hop topo ~at ~dst ~salt) (at :: acc) (guard + 1)
  in
  go src [] 0

let hop_count topo ~src ~dst ~salt =
  let rec go at n =
    if n > 64 then failwith "Routing.hop_count: loop detected"
    else if at = dst then n
    else go (next_hop topo ~at ~dst ~salt) (n + 1)
  in
  go src 0
