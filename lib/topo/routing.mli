(** Structural ECMP routing over the FatTree.

    Next hops are computed from node coordinates (no routing tables):
    up via a hash-selected spine/core, down via the unique descending
    path. The router returns the egress edge, which
    {!Topology.build}'s edge tables give by array indexing. The selection hash is deterministic in [(salt, hop)] so a
    flow follows a stable path (per-flow ECMP, as in the paper) while
    different flows spread across the fabric.

    Destinations may be endpoints or switches — the latter is how
    learning and invalidation packets reach a specific switch. *)

(** [next_edge topo ~at ~dst ~salt] is the edge ({!Topology.edge}) out
    of [at] on a path toward node [dst]: the directed link a switch
    forwards the packet onto, "out of port N".

    Raises [Invalid_argument] if [at = dst] (the packet has arrived),
    if [at] or [dst] is not a node, or if [dst] is unreachable from [at]
    (core-to-core, or a multi-pod path with no cores).

    This is the forwarding hot path: it reads both nodes' flat
    coordinates, resolves every case by indexing the edge tables
    precomputed at {!Topology.build} time ({!Topology.up_edges},
    {!Topology.down_edges}, {!Topology.downlink_edge}) and allocates
    nothing. *)
val next_edge : Topology.t -> at:int -> dst:int -> salt:int -> int

(** Sentinel returned by {!next_edge_alive} and {!next_hop_alive} when
    every candidate is behind a downed link. *)
val blackhole : int

(** [next_edge_alive topo ~at ~dst ~salt] is {!next_edge} made
    fault-aware: candidates whose link has [Link.up = false] are
    skipped by probing the ECMP candidate ring from the hashed index,
    and {!blackhole} is returned when no live candidate remains (a
    forced hop with a dead link, or all siblings dead). When every
    link is up it returns exactly [next_edge topo ~at ~dst ~salt] —
    link recovery therefore restores the pre-failure ECMP table
    (property-tested against {!next_hop_oracle}). Allocates nothing. *)
val next_edge_alive : Topology.t -> at:int -> dst:int -> salt:int -> int

(** [next_hop topo ~at ~dst ~salt] is the neighbor of [at] on a path
    toward [dst]: the destination of {!next_edge}. *)
val next_hop : Topology.t -> at:int -> dst:int -> salt:int -> int

(** [next_hop_alive topo ~at ~dst ~salt] is the destination of
    {!next_edge_alive}, or {!blackhole}. *)
val next_hop_alive : Topology.t -> at:int -> dst:int -> salt:int -> int

(** [next_hop_oracle] is the original implementation that recomputes
    candidate sets from node coordinates on every call (allocating the
    spine's core candidate array each time). It returns the same hop
    as {!next_hop} for every [(at, dst, salt)]; kept as the reference
    for property tests and micro-benchmarks. *)
val next_hop_oracle : Topology.t -> at:int -> dst:int -> salt:int -> int

(** [path topo ~src ~dst ~salt] is the full node path from [src] to
    [dst], inclusive of both ends. *)
val path : Topology.t -> src:int -> dst:int -> salt:int -> int list

(** [hop_count topo ~src ~dst ~salt] is the number of links on
    [path topo ~src ~dst ~salt], counted directly without building the
    path list. *)
val hop_count : Topology.t -> src:int -> dst:int -> salt:int -> int

(** [ecmp_hash ~salt ~a ~b] is the deterministic hash used for path
    selection; exposed for tests. *)
val ecmp_hash : salt:int -> a:int -> b:int -> int
