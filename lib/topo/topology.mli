(** FatTree topology instance: nodes, links, and index structures.

    Node ids double as PIPs ({!Netcore.Addr.Pip}). Endpoint nodes
    (hosts and gateways) hang off ToRs; ToRs connect to every spine in
    their pod; spine [g] of every pod connects to all core switches of
    group [g]. *)

type t

(** [build params] constructs the topology. Raises [Invalid_argument]
    via {!Params.validate} on bad parameters. *)
val build : Params.t -> t

val params : t -> Params.t

(** [num_nodes t] is the total node count (endpoints + switches). *)
val num_nodes : t -> int

(** [num_links t] is the total directed-link count (each physical cable
    is two directed links). *)
val num_links : t -> int

(** [node t id] is the node record. Raises [Invalid_argument] for out
    of range ids. *)
val node : t -> int -> Node.t

val kind : t -> int -> Node.kind

(** [pip t id] is the node's physical address. *)
val pip : t -> int -> Netcore.Addr.Pip.t

(** [node_of_pip t pip] is the inverse of {!pip}. *)
val node_of_pip : t -> Netcore.Addr.Pip.t -> int

(** Index accessors: all arrays are stable across calls. *)

val hosts : t -> int array
(** regular servers, in (pod, rack, idx) order *)

val gateways : t -> int array
val tors : t -> int array
val spines : t -> int array
val cores : t -> int array

(** [switches t] is ToRs, spines and cores concatenated. *)
val switches : t -> int array

(** [tor_of t id] is the ToR an endpoint attaches to.
    Raises [Invalid_argument] if [id] is a switch. *)
val tor_of : t -> int -> int

(** [endpoints_of_tor t tor] is the endpoints (hosts or gateways)
    attached to [tor]. *)
val endpoints_of_tor : t -> int -> int array

(** [tor_id t ~pod ~rack] / [spine_id t ~pod ~group] /
    [core_id t ~group ~idx] are structural lookups. *)
val tor_id : t -> pod:int -> rack:int -> int

val spine_id : t -> pod:int -> group:int -> int
val core_id : t -> group:int -> idx:int -> int

(** [role t id] is the switch category; raises [Invalid_argument] if
    [id] is not a switch. Reads the flat coordinates. *)
val role : t -> int -> Node.role

(** {2 Flat node coordinates}

    Every node's kind and position packed into one int, so the per-hop
    path reads them with one array load instead of chasing {!node} to
    its boxed {!Node.kind}. Decode with the [coord_*] functions. *)

(** Node tags, in tier order: endpoints ([tag_host], [tag_gateway])
    compare below switches ([tag_tor], [tag_spine], [tag_core]). *)
val tag_host : int

val tag_gateway : int
val tag_tor : int
val tag_spine : int
val tag_core : int

(** [coord t id] is node [id]'s packed coordinate. *)
val coord : t -> int -> int

val coord_tag : int -> int

(** [coord_pod c] is the pod, or [-1] for a core switch. *)
val coord_pod : int -> int

(** [coord_sub c] is the rack of an endpoint or ToR, the group of a
    spine or core. *)
val coord_sub : int -> int

(** [coord_idx c] is the index of an endpoint within its rack or of a
    core within its group; [0] for ToRs and spines. *)
val coord_idx : int -> int

(** [tag t id] / [pod t id] are [coord_tag] / [coord_pod] of
    [coord t id]. *)
val tag : t -> int -> int

val pod : t -> int -> int

(** [is_endpoint t id] holds for hosts and gateways. *)
val is_endpoint : t -> int -> bool

(** {2 Links and edges}

    An edge is a directed link's index in the CSR adjacency, in
    [0, num_links t). Routing returns the egress edge ({!Routing.next_edge})
    from the tables below, so forwarding never searches for a link. *)

(** [edge t ~src ~dst] is the edge between adjacent nodes. Raises
    [Not_found] if they are not adjacent. A binary search of [src]'s
    CSR row (at most max-degree entries); for cold paths such as fault
    actions. *)
val edge : t -> src:int -> dst:int -> int

(** [link t ~src ~dst] is [link_of_edge t (edge t ~src ~dst)]. *)
val link : t -> src:int -> dst:int -> Link.t

(** [link_of_edge t e] is edge [e]'s directed link: one array load. *)
val link_of_edge : t -> int -> Link.t

(** [edge_dst t e] is the node edge [e] leads to. *)
val edge_dst : t -> int -> int

(** [up_edges t id] is node [id]'s upward edges: for a ToR or spine,
    parallel to {!uplinks} (the edge to [(uplinks t id).(i)] is
    [(up_edges t id).(i)]); for an endpoint, its one uplink; [[||]] for
    cores. Treat as read-only. *)
val up_edges : t -> int -> int array

(** [down_edges t id] is node [id]'s downward edges: a spine's row is
    indexed by rack (the edge to its pod's ToR of that rack), a core's
    row by pod (the edge to its group's spine in that pod); [[||]]
    otherwise. Treat as read-only. *)
val down_edges : t -> int -> int array

(** [uplink_edge t ep] is the edge from endpoint [ep] to its ToR.
    Raises [Invalid_argument] if [ep] is a switch. *)
val uplink_edge : t -> int -> int

(** [downlink_edge t ep] is the edge from endpoint [ep]'s ToR to
    [ep]. Raises [Invalid_argument] if [ep] is a switch. *)
val downlink_edge : t -> int -> int

(** [iter_links t f] applies [f] to every directed link, in edge order
    (ascending source id, then ascending destination id). *)
val iter_links : t -> (Link.t -> unit) -> unit

(** [neighbors t id] is the adjacent node ids, sorted ascending. The
    returned rows are the topology's own CSR views — stable across
    calls; treat them as read-only. *)
val neighbors : t -> int -> int array

(** [uplinks t id] is the precomputed upward ECMP candidate table of
    node [id]: a ToR's row is its pod's spines indexed by group, a
    spine's row is its group's core switches indexed by idx, and
    endpoints/cores have an empty row. Rows are shared with the
    topology's internal indexes — treat them as read-only. Forwarding
    uses the parallel {!up_edges} rows. *)
val uplinks : t -> int -> int array
