(** Wire format for SwitchV2P tunneled packets.

    The paper carries its protocol metadata in tunnel-header option
    fields (Geneve options, RFC 8926, over an IP-in-IP encapsulation).
    This module defines a concrete binary layout and
    encoders/decoders, so that the in-memory {!Packet.t} used by the
    simulator corresponds to real bytes a switch would parse:

    {v
    outer IPv4 (20B: src/dst PIP, protocol = 4)
    option block:
      flags      (1B: resolved | misdelivery | gw_visited | retransmit)
      kind       (1B: data | ack | learning | invalidation)
      hit_switch (4B, 0xffffffff = none)
      TLVs: each 1B type, 1B length, payload
        0x01 misdelivery stale PIP (4B)
        0x02 spilled entry (8B: vip, pip)
        0x03 promotion (8B)
        0x04 mapping payload (8B)
    inner IPv4 (20B: src/dst VIP)
    payload length (4B) — payload bytes themselves are not materialized
    seq (4B), flow id (4B), packet id (4B)
    v}

    Learning/invalidation state that is semantically per-hop
    ([hops]) or simulator-only ([sent_at]) is {e not} encoded; decoded
    packets have those fields zeroed. *)

(** [encode pkt] serializes the packet's headers and options. *)
val encode : Packet.t -> bytes

(** [decode b] parses a packet back. [sent_at] is restored as zero and
    [hops] as 0 (not wire state). Raises [Invalid_argument] on
    malformed input (truncation, unknown kind or TLV, bad lengths, a
    spill/promotion/mapping TLV carrying a negative signed 32-bit
    word — [-1] is the in-memory "no rider" mark — or a PIP of
    2{^29} or more, beyond the {!Addr.Pair} range), or a payload
    length of 2{^24} or more (the in-memory size field's range). *)
val decode : bytes -> Packet.t

(** [header_bytes pkt] is the encoded size — the tunnel overhead the
    packet would add on a real wire. *)
val header_bytes : Packet.t -> int
