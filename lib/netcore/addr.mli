(** Virtual and physical addresses.

    A virtual IP (VIP) is a tenant-visible identifier with no location
    information; a physical IP (PIP) identifies a physical endpoint
    (server, gateway, or switch — switches are addressable so that
    learning and invalidation packets can be delivered to them, cf.
    §3.3 of the paper). Both are represented as dense integers so that
    caches and routing tables are plain arrays. *)

module Vip : sig
  type t = private int

  val of_int : int -> t
  val to_int : t -> int
  val equal : t -> t -> bool
  val compare : t -> t -> int
  val hash : t -> int

  (** [pp] renders as a dotted quad in 10.128.0.0/9 for readability. *)
  val pp : Format.formatter -> t -> unit
end

module Pip : sig
  type t = private int

  val of_int : int -> t
  val to_int : t -> int
  val equal : t -> t -> bool
  val compare : t -> t -> int
  val hash : t -> int

  (** [none] is a sentinel for "no physical address yet" (packets not
      yet resolved carry the gateway address instead; [none] is only
      used for optional-free fast paths). *)
  val none : t

  val is_none : t -> bool

  (** [pp] renders as a dotted quad in 192.0.0.0/8 for readability. *)
  val pp : Format.formatter -> t -> unit
end

(** One-word (VIP, PIP) facts.

    The paper's cache line is one register entry holding a 32-bit VIP
    key and a server index (P4model's [key_bits]); the simulator
    stores every (VIP, PIP) fact the same way, as one non-negative int
    with the VIP in bits 29-60 and the PIP in bits 0-28. Cache lines,
    mapping cells and packet riders are all built by {!pack}, so each
    fact costs one word wherever it is kept. *)
module Pair : sig
  val vip_bits : int
  (** 32: the VIP half holds any value in [\[0, 2{^32})]. *)

  val pip_bits : int
  (** 29: the PIP half holds any value in [\[0, 2{^29})], more than the
      simulator's 24-bit node space. *)

  val none : int
  (** [-1], the mark for "no fact" where a word may be empty (a packet
      rider); never the result of {!pack}. *)

  val pack : int -> int -> int
  (** [pack vip pip] is the pair as one non-negative int. The high
      half may hold any other 32-bit key in place of a VIP ({!Mapping}
      keeps a version there). Raises [Invalid_argument] unless
      [0 <= vip < 2{^32}] and [0 <= pip < 2{^29}]. *)

  val vip : int -> int
  (** [vip w] is the high half of a packed pair; [vip none] is [-1]. *)

  val pip : int -> int
  (** [pip w] is the low half of a packed pair. *)
end
