(** Online statistics accumulators for experiment metrics. *)

module Summary : sig
  (** Streaming mean / min / max / count. O(1) memory. *)

  type t

  val create : unit -> t
  val add : t -> float -> unit

  (** [add_int t n] is [add t (float_of_int n)], and [add_ns t ns] is
      [add t (Time_ns.to_sec ns)] (the sample in seconds). Both take an
      int, so a caller in another module passes no boxed float: they
      allocate nothing in any build profile. *)
  val add_int : t -> int -> unit

  val add_ns : t -> int -> unit
  val count : t -> int
  val mean : t -> float

  (** [min t] / [max t] raise [Not_found] when no samples were added. *)
  val min : t -> float

  val max : t -> float
  val sum : t -> float

  (** [merge a b] is a fresh summary equivalent to having added both
      sample streams to one accumulator. Exact and commutative. *)
  val merge : t -> t -> t
end

module Reservoir : sig
  (** Sample store with exact percentiles. Keeps every sample by
      default (our experiments produce at most a few hundred thousand
      samples), or a uniform reservoir when [capacity] is given. *)

  type t

  val create : ?capacity:int -> Rng.t -> t

  (** [reserve t n] makes room to store [n] more samples, so the next
      [n] adds grow nothing. *)
  val reserve : t -> int -> unit

  val add : t -> float -> unit

  (** [add_ns t ns] is [add t (Time_ns.to_sec ns)]; see
      {!Summary.add_ns}. *)
  val add_ns : t -> int -> unit
  val count : t -> int
  val mean : t -> float

  (** [percentile t p] with [p] in [0,100]; exact over stored samples
      (nearest-rank). Raises [Not_found] when empty. *)
  val percentile : t -> float -> float

  (** [merge a b] is a fresh reservoir holding both sample sets —
      count, mean and percentiles all match single-stream accounting,
      in either argument order. Only defined for unbounded reservoirs
      (no [capacity]); raises [Invalid_argument] otherwise, since a
      subsampled reservoir has no exact merge. *)
  val merge : t -> t -> t
end

module Counter : sig
  (** Named integer counters, e.g. per-switch byte counts. *)

  type t

  val create : unit -> t
  val incr : t -> string -> int -> unit
  val get : t -> string -> int
  val to_list : t -> (string * int) list
end
