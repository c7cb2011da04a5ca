(** Ground-truth V2P mapping store.

    This is the single-writer database held by the virtual-network
    control plane and served by the translation gateways. Caches
    anywhere else in the network may be stale; this store never is.
    Each entry carries a monotonically increasing version so tests can
    check that stale cached values predate the current one. *)

type t

(** [create ()] is an empty store. [initial_capacity] (default 1024)
    pre-sizes the table; pass the deployment's VM count so the install
    storm at setup writes each slot once instead of re-blitting the
    table ~log2(num_vms/1024) times. *)
val create : ?initial_capacity:int -> unit -> t

(** [install t vip pip] installs or overwrites the mapping (version is
    bumped on overwrite). Each entry is one {!Addr.Pair} word of
    (version, PIP). Raises [Invalid_argument] unless [vip < 2{^32}] and
    [pip < 2{^29}] (the {!Addr.Pair} ranges) and the entry has been
    written fewer than 2{^32} - 1 times, before changing anything. *)
val install : t -> Addr.Vip.t -> Addr.Pip.t -> unit

(** [lookup t vip] is the current physical location of [vip].
    Raises [Not_found] for unknown VIPs. *)
val lookup : t -> Addr.Vip.t -> Addr.Pip.t

(** [placement t i] is the PIP of the VIP numbered [i], as an int:
    one bounds-checked load, for a caller that owns a dense VIP space
    (the network numbers its VMs [0 .. num_vms - 1] and sizes the store
    to match). Raises [Invalid_argument] past the end of the table and
    [Not_found] for a VIP never installed. *)
val placement : t -> int -> int

(** [lookup_opt t vip] is [Some pip] or [None]. *)
val lookup_opt : t -> Addr.Vip.t -> Addr.Pip.t option

(** [version t vip] is the number of times [vip] has been (re)mapped;
    0 for unknown VIPs. *)
val version : t -> Addr.Vip.t -> int

(** [migrate t vip pip] atomically moves [vip]; equivalent to
    [install] but raises [Not_found] if [vip] was never installed
    (migration of an unknown VM is a logic error). *)
val migrate : t -> Addr.Vip.t -> Addr.Pip.t -> unit

(** [size t] is the number of installed mappings. *)
val size : t -> int

(** [iter t f] applies [f vip pip] to every installed mapping. *)
val iter : t -> (Addr.Vip.t -> Addr.Pip.t -> unit) -> unit
