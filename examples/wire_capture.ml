(* Wire-format walkthrough: encode the packets of a small trace to
   their on-the-wire bytes (IP-in-IP + SwitchV2P option TLVs), decode
   them back, and show what each protocol rider costs in header bytes —
   the concrete layout behind the simulator's packet records.

   Also round-trips the trace itself through the CSV format, the way an
   externally captured trace would be imported.

   Run with: dune exec examples/wire_capture.exe *)

module Packet = Netcore.Packet
module Vip = Netcore.Addr.Vip
module Pip = Netcore.Addr.Pip

let hex bytes =
  String.concat " "
    (List.init (Bytes.length bytes) (fun i ->
         Printf.sprintf "%02x" (Char.code (Bytes.get bytes i))))

let show name pkt =
  let b = Netcore.Wire.encode pkt in
  Printf.printf "%-28s %3d header bytes\n" name (Bytes.length b);
  Printf.printf "  %s%s\n"
    (hex (Bytes.sub b 0 (min 40 (Bytes.length b))))
    (if Bytes.length b > 40 then " ..." else "");
  let decoded = Netcore.Wire.decode b in
  assert (Vip.equal decoded.Packet.dst_vip pkt.Packet.dst_vip);
  assert (Packet.resolved decoded = Packet.resolved pkt)

let () =
  print_endline "SwitchV2P wire format (outer IPv4 | options | inner IPv4):\n";
  let base =
    Packet.make_data ~id:1 ~flow_id:7 ~seq:0 ~size:1500
      ~src_vip:(Vip.of_int 10) ~dst_vip:(Vip.of_int 20)
      ~src_pip:(Pip.of_int 100) ~dst_pip:(Pip.of_int 200) ~now:0
  in
  show "plain unresolved data" base;

  let resolved = Netcore.Wire.decode (Netcore.Wire.encode base) in
  Packet.set_resolved resolved true;
  resolved.Packet.hit_switch <- 42;
  show "resolved (cache hit)" resolved;

  let riders = Netcore.Wire.decode (Netcore.Wire.encode resolved) in
  riders.Packet.spill_vip <- 33;
  riders.Packet.spill_pip <- 133;
  riders.Packet.promo_vip <- 44;
  riders.Packet.promo_pip <- 144;
  show "with spill + promotion" riders;

  let tagged = Netcore.Wire.decode (Netcore.Wire.encode base) in
  tagged.Packet.misdelivery <- 99;
  show "misdelivery-tagged" tagged;

  let learning =
    Packet.make_control ~id:2 ~kind:Packet.Learning
      ~mapping:(Vip.of_int 20, Pip.of_int 200)
      ~src_pip:(Pip.of_int 1) ~dst_pip:(Pip.of_int 2) ~now:0
  in
  show "learning packet" learning;

  (* Trace CSV round trip. *)
  print_endline "\nTrace CSV import/export:";
  let rng = Dessim.Rng.create 3 in
  let flows =
    Workloads.Tracegen.hadoop rng ~num_vms:64 ~num_flows:5 ~load:0.3
      ~agg_bps:1e12
  in
  let csv = Workloads.Trace_io.to_string flows in
  print_string csv;
  let back = Workloads.Trace_io.of_string csv in
  Printf.printf "round-tripped %d flows; characterization:\n"
    (List.length back);
  Format.printf "%a@." Workloads.Trace_stats.pp
    (Workloads.Trace_stats.analyze back)
