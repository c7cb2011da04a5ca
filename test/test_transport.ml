(* Tests for the windowed transport and UDP sender, driven through a
   fake "network" that we control packet-by-packet. *)

module Transport = Netsim.Transport
module Engine = Dessim.Engine
module Time_ns = Dessim.Time_ns
module Flow = Netcore.Flow
module Packet = Netcore.Packet
module Vip = Netcore.Addr.Vip
module Pip = Netcore.Addr.Pip

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

type world = {
  eng : Engine.t;
  tr : Transport.t;
  data_sent : (int * int * bool) list ref; (* flow, seq, retransmit *)
  acks_sent : (int * int) list ref;
  completed : (int * Time_ns.t) list ref;
  firsts : (int * Time_ns.t) list ref;
  timers : (int * int) list ref; (* flow, start generation; newest first *)
}

(* The transport's two timers, as typed engine events. *)
let ev_pace = 0
let ev_rto = 1

let dispatch tr ~code ~a ~b =
  if code = ev_pace then Transport.paced tr ~flow_id:a ~seq:b
  else Transport.timed_out tr ~flow_id:a ~gen:b

(* Build a transport whose send callbacks just log; the test decides
   when packets "arrive" by calling [deliver_data]/[deliver_ack]. *)
let make_world ?mode () =
  let eng = Engine.create () in
  let data_sent = ref [] and acks_sent = ref [] in
  let completed = ref [] and firsts = ref [] and timers = ref [] in
  let cb =
    {
      Transport.now = (fun () -> Engine.now eng);
      timeout =
        (fun delay ~flow_id ~gen ->
          timers := (flow_id, gen) :: !timers;
          Engine.schedule_event_after eng ~delay ~code:ev_rto ~a:flow_id ~b:gen);
      pace =
        (fun delay ~flow_id ~seq ->
          Engine.schedule_event_after eng ~delay ~code:ev_pace ~a:flow_id ~b:seq);
      send_data =
        (fun flow ~seq ~size:_ ~retransmit ->
          data_sent := (flow.Flow.id, seq, retransmit) :: !data_sent);
      send_ack =
        (fun flow ~seq ~ecn_echo:_ ->
          acks_sent := (flow.Flow.id, seq) :: !acks_sent);
      flow_done =
        (fun flow ~fct -> completed := (flow.Flow.id, fct) :: !completed);
      first_packet =
        (fun flow ~latency -> firsts := (flow.Flow.id, latency) :: !firsts);
    }
  in
  let tr = Transport.create ?mode ~window:4 ~rto:(Time_ns.of_us 100) cb in
  Engine.set_handler eng (dispatch tr);
  { eng; tr; data_sent; acks_sent; completed; firsts; timers }

let flow ?(id = 1) ~packets () =
  Flow.make ~id ~src_vip:(Vip.of_int 1) ~dst_vip:(Vip.of_int 2)
    ~size_bytes:(packets * Packet.mtu) ~start:0 Flow.Tcpish

let mk_pkt ~kind ~flow_id ~seq =
  match kind with
  | `Data ->
      Packet.make_data ~id:0 ~flow_id ~seq ~size:Packet.mtu
        ~src_vip:(Vip.of_int 1) ~dst_vip:(Vip.of_int 2)
        ~src_pip:(Pip.of_int 0) ~dst_pip:(Pip.of_int 1) ~now:0
  | `Ack ->
      Packet.make_ack ~id:0 ~flow_id ~seq ~src_vip:(Vip.of_int 2)
        ~dst_vip:(Vip.of_int 1) ~src_pip:(Pip.of_int 1)
        ~dst_pip:(Pip.of_int 0) ~now:0

let test_initial_window () =
  let w = make_world () in
  Transport.start w.tr (flow ~packets:10 ());
  (* window=4 caps the initial burst below IW10. *)
  checki "initial burst" 4 (List.length !(w.data_sent))

let test_ack_clocking () =
  let w = make_world () in
  Transport.start w.tr (flow ~packets:10 ());
  Transport.on_ack w.tr (mk_pkt ~kind:`Ack ~flow_id:1 ~seq:0);
  checki "one more sent" 5 (List.length !(w.data_sent));
  Transport.on_ack w.tr (mk_pkt ~kind:`Ack ~flow_id:1 ~seq:1);
  checki "and another" 6 (List.length !(w.data_sent))

let test_duplicate_ack_ignored () =
  let w = make_world () in
  Transport.start w.tr (flow ~packets:10 ());
  Transport.on_ack w.tr (mk_pkt ~kind:`Ack ~flow_id:1 ~seq:0);
  let n = List.length !(w.data_sent) in
  Transport.on_ack w.tr (mk_pkt ~kind:`Ack ~flow_id:1 ~seq:0);
  checki "dup ack sends nothing" n (List.length !(w.data_sent))

let test_receiver_acks_and_completes () =
  let w = make_world () in
  let f = flow ~packets:3 () in
  Transport.start w.tr f;
  for seq = 0 to 2 do
    Transport.on_data w.tr (mk_pkt ~kind:`Data ~flow_id:1 ~seq)
  done;
  checki "acks per data packet" 3 (List.length !(w.acks_sent));
  checki "flow completed" 1 (List.length !(w.completed));
  checki "one first-packet record" 1 (List.length !(w.firsts));
  checki "completed counter" 1 (Transport.flows_completed w.tr)

let test_duplicate_data_acked_but_not_recounted () =
  let w = make_world () in
  Transport.start w.tr (flow ~packets:2 ());
  Transport.on_data w.tr (mk_pkt ~kind:`Data ~flow_id:1 ~seq:0);
  Transport.on_data w.tr (mk_pkt ~kind:`Data ~flow_id:1 ~seq:0);
  checki "both acked" 2 (List.length !(w.acks_sent));
  checki "not complete" 0 (List.length !(w.completed));
  Transport.on_data w.tr (mk_pkt ~kind:`Data ~flow_id:1 ~seq:1);
  checki "now complete" 1 (List.length !(w.completed))

let test_reordering_detected () =
  let w = make_world () in
  Transport.start w.tr (flow ~packets:3 ());
  Transport.on_data w.tr (mk_pkt ~kind:`Data ~flow_id:1 ~seq:2);
  Transport.on_data w.tr (mk_pkt ~kind:`Data ~flow_id:1 ~seq:0);
  Transport.on_data w.tr (mk_pkt ~kind:`Data ~flow_id:1 ~seq:1);
  checki "two reordered arrivals" 2 (Transport.reordering_events w.tr);
  checki "still completes" 1 (List.length !(w.completed))

let test_rto_retransmits () =
  let w = make_world () in
  Transport.start w.tr (flow ~packets:4 ());
  checki "initial burst" 4 (List.length !(w.data_sent));
  (* No acks arrive; let two RTOs elapse (the first timeout check sees
     progress_stamp = n_acked = 0 and fires). *)
  Engine.run_until w.eng ~limit:(Time_ns.of_us 250);
  let retransmits =
    List.filter (fun (_, _, r) -> r) !(w.data_sent) |> List.length
  in
  checkb "retransmitted unacked packets" true (retransmits >= 4)

let test_no_rto_after_completion () =
  let w = make_world () in
  Transport.start w.tr (flow ~packets:2 ());
  Transport.on_ack w.tr (mk_pkt ~kind:`Ack ~flow_id:1 ~seq:0);
  Transport.on_ack w.tr (mk_pkt ~kind:`Ack ~flow_id:1 ~seq:1);
  Engine.run_until w.eng ~limit:(Time_ns.of_ms 10);
  let retransmits =
    List.filter (fun (_, _, r) -> r) !(w.data_sent) |> List.length
  in
  checki "no retransmissions after full ack" 0 retransmits;
  checki "timers drained" 0 (Engine.pending w.eng)

(* A restart of a flow id leaves the first start's timer queued. The
   timer carries its start's generation, so it must find the flow's
   current start and do nothing: no resend, no re-arm. *)
let test_stale_rto_ignored () =
  let w = make_world () in
  Transport.start w.tr (flow ~packets:4 ());
  Transport.start w.tr (flow ~packets:4 ());
  let stale, current =
    match !(w.timers) with
    | [ (1, current); (1, stale) ] -> (stale, current)
    | _ -> Alcotest.fail "expected one timer per start"
  in
  checkb "a restart takes a new generation" true (stale <> current);
  let sent = List.length !(w.data_sent) and pending = Engine.pending w.eng in
  Transport.timed_out w.tr ~flow_id:1 ~gen:stale;
  checki "stale timer resends nothing" sent (List.length !(w.data_sent));
  checki "stale timer does not re-arm" pending (Engine.pending w.eng);
  Transport.timed_out w.tr ~flow_id:1 ~gen:current;
  checki "current timer resends the window" (sent + 4)
    (List.length !(w.data_sent));
  checki "current timer re-arms" (pending + 1) (Engine.pending w.eng)

let test_first_packet_latency_measured () =
  let w = make_world () in
  Transport.start w.tr (flow ~packets:2 ());
  Engine.schedule w.eng ~at:(Time_ns.of_us 7) (fun () ->
      Transport.on_data w.tr (mk_pkt ~kind:`Data ~flow_id:1 ~seq:1));
  Engine.run_until w.eng ~limit:(Time_ns.of_us 7);
  (match !(w.firsts) with
  | [ (1, lat) ] -> checki "latency = arrival - start" (Time_ns.of_us 7) lat
  | _ -> Alcotest.fail "expected one first-packet record");
  checkb "any seq counts as first" true (Transport.has_received_any w.tr ~flow_id:1)

let test_udp_paced_sending () =
  let w = make_world () in
  (* 2 packets at a rate of one MTU per 12 us. *)
  let f =
    Flow.make ~id:3 ~src_vip:(Vip.of_int 1) ~dst_vip:(Vip.of_int 2)
      ~size_bytes:(2 * Packet.mtu) ~start:0
      (Flow.Udp { rate_bps = float_of_int (Packet.mtu * 8) /. 12e-6 })
  in
  Transport.start w.tr f;
  checki "first packet immediately" 1 (List.length !(w.data_sent));
  Engine.run_until w.eng ~limit:(Time_ns.of_us 13);
  checki "second packet after interval" 2 (List.length !(w.data_sent));
  Engine.run_until w.eng ~limit:(Time_ns.of_ms 1);
  checki "no extra packets" 2 (List.length !(w.data_sent))

let test_udp_no_acks () =
  let w = make_world () in
  let f =
    Flow.make ~id:3 ~src_vip:(Vip.of_int 1) ~dst_vip:(Vip.of_int 2)
      ~size_bytes:Packet.mtu ~start:0 (Flow.Udp { rate_bps = 1e9 })
  in
  Transport.start w.tr f;
  Transport.on_data w.tr
    (Packet.make_data ~id:0 ~flow_id:3 ~seq:0 ~size:Packet.mtu
       ~src_vip:(Vip.of_int 1) ~dst_vip:(Vip.of_int 2) ~src_pip:(Pip.of_int 0)
       ~dst_pip:(Pip.of_int 1) ~now:0);
  checki "no acks for UDP" 0 (List.length !(w.acks_sent));
  checki "completes when all data arrives" 1 (List.length !(w.completed))

(* --- DCTCP --- *)

let ack ?(ecn = false) ~flow_id ~seq () =
  let p = mk_pkt ~kind:`Ack ~flow_id ~seq in
  Packet.set_ecn p ecn;
  p

let test_dctcp_clean_acks_grow_window () =
  let w = make_world ~mode:Transport.Dctcp () in
  Transport.start w.tr (flow ~packets:20 ());
  let c0 = Option.get (Transport.cwnd w.tr ~flow_id:1) in
  Transport.on_ack w.tr (ack ~flow_id:1 ~seq:0 ());
  Transport.on_ack w.tr (ack ~flow_id:1 ~seq:1 ());
  let c1 = Option.get (Transport.cwnd w.tr ~flow_id:1) in
  checkb "slow start grows cwnd" true (c1 >= c0)

let test_dctcp_mark_exits_slow_start () =
  let w = make_world ~mode:Transport.Dctcp () in
  Transport.start w.tr (flow ~packets:40 ());
  let before = Option.get (Transport.cwnd w.tr ~flow_id:1) in
  Transport.on_ack w.tr (ack ~ecn:true ~flow_id:1 ~seq:0 ());
  let after = Option.get (Transport.cwnd w.tr ~flow_id:1) in
  checkb "marked ack halves cwnd" true (after < before || before = 1)

let test_dctcp_alpha_tracks_marking () =
  let w = make_world ~mode:Transport.Dctcp () in
  Transport.start w.tr (flow ~packets:4000 ());
  (* All acks marked: alpha stays pinned near 1 and cwnd collapses to
     the floor. *)
  for seq = 0 to 199 do
    Transport.on_ack w.tr (ack ~ecn:true ~flow_id:1 ~seq ())
  done;
  let alpha = Option.get (Transport.alpha w.tr ~flow_id:1) in
  checkb "alpha saturates high" true (alpha > 0.8);
  checkb "cwnd at floor" true (Option.get (Transport.cwnd w.tr ~flow_id:1) <= 2)

let test_dctcp_alpha_decays_without_marks () =
  let w = make_world ~mode:Transport.Dctcp () in
  Transport.start w.tr (flow ~packets:4000 ());
  (* One marked window, then many clean windows: alpha decays. *)
  Transport.on_ack w.tr (ack ~ecn:true ~flow_id:1 ~seq:0 ());
  for seq = 1 to 300 do
    Transport.on_ack w.tr (ack ~flow_id:1 ~seq ())
  done;
  let alpha = Option.get (Transport.alpha w.tr ~flow_id:1) in
  checkb "alpha decays toward 0" true (alpha < 0.3)

let test_windowed_ignores_marks () =
  let w = make_world () in
  Transport.start w.tr (flow ~packets:20 ());
  let before = Option.get (Transport.cwnd w.tr ~flow_id:1) in
  Transport.on_ack w.tr (ack ~ecn:true ~flow_id:1 ~seq:0 ());
  let after = Option.get (Transport.cwnd w.tr ~flow_id:1) in
  checkb "windowed mode never shrinks" true (after >= before)

let test_unknown_flow_ignored () =
  let w = make_world () in
  Transport.on_data w.tr (mk_pkt ~kind:`Data ~flow_id:77 ~seq:0);
  Transport.on_ack w.tr (mk_pkt ~kind:`Ack ~flow_id:77 ~seq:0);
  checki "nothing happens" 0 (List.length !(w.acks_sent))

(* Regression: a sequence number outside [0, total) used to index the
   receive/ack bitmaps unchecked and raise [Invalid_argument], killing
   the event loop. Such packets must be ignored, and the flow must
   still complete normally afterwards. *)
let test_out_of_range_seq_ignored () =
  let w = make_world () in
  Transport.start w.tr (flow ~packets:2 ());
  List.iter
    (fun seq ->
      Transport.on_data w.tr (mk_pkt ~kind:`Data ~flow_id:1 ~seq);
      Transport.on_ack w.tr (mk_pkt ~kind:`Ack ~flow_id:1 ~seq))
    [ -1; 2; 1_000_000; min_int; max_int ];
  checki "no acks for garbage data" 0 (List.length !(w.acks_sent));
  checki "no completion" 0 (List.length !(w.completed));
  (* The flow still works. *)
  Transport.on_data w.tr (mk_pkt ~kind:`Data ~flow_id:1 ~seq:0);
  Transport.on_data w.tr (mk_pkt ~kind:`Data ~flow_id:1 ~seq:1);
  checki "valid data acked" 2 (List.length !(w.acks_sent));
  checki "flow completes" 1 (List.length !(w.completed))

(* --- lossy channels ------------------------------------------------- *)

(* A closed loop: data and ACKs traverse a lossy channel with a fixed
   propagation delay, the loss decisions coming from
   [Fault.step_packed] — exactly the channel models the network layer
   installs on links. The transport must complete the flow under loss
   (liveness) with a retransmit count in a sane band (no retransmit
   storms). Fixed seeds keep the assertions exact. *)
let run_lossy ~packets ~model ~seed =
  let eng = Engine.create () in
  let rng = Dessim.Rng.create seed in
  let state = ref 0 in
  let drop () =
    let packed = Dessim.Fault.step_packed model ~state:!state rng in
    state := packed lsr 1;
    packed land 1 = 1
  in
  let delay = Time_ns.of_us 5 in
  let retransmits = ref 0 and completed = ref 0 in
  let tr_ref = ref None in
  let tr () = Option.get !tr_ref in
  let cb =
    {
      Transport.now = (fun () -> Engine.now eng);
      timeout =
        (fun delay ~flow_id ~gen ->
          Engine.schedule_event_after eng ~delay ~code:ev_rto ~a:flow_id ~b:gen);
      pace = (fun _ ~flow_id:_ ~seq:_ -> assert false (* TCP only *));
      send_data =
        (fun f ~seq ~size:_ ~retransmit ->
          if retransmit then incr retransmits;
          if not (drop ()) then
            Engine.schedule_after eng ~delay (fun () ->
                Transport.on_data (tr ())
                  (mk_pkt ~kind:`Data ~flow_id:f.Flow.id ~seq)));
      send_ack =
        (fun f ~seq ~ecn_echo:_ ->
          if not (drop ()) then
            Engine.schedule_after eng ~delay (fun () ->
                Transport.on_ack (tr ())
                  (mk_pkt ~kind:`Ack ~flow_id:f.Flow.id ~seq)));
      flow_done = (fun _f ~fct:_ -> incr completed);
      first_packet = (fun _f ~latency:_ -> ());
    }
  in
  tr_ref := Some (Transport.create ~window:4 ~rto:(Time_ns.of_us 100) cb);
  Engine.set_handler eng (dispatch (tr ()));
  Transport.start (tr ()) (flow ~packets ());
  Engine.run_until eng ~limit:(Time_ns.of_ms 100);
  (!completed, !retransmits)

let check_lossy ~name ~model ~seed ~max_retx =
  let completed, retx = run_lossy ~packets:30 ~model ~seed in
  checki (name ^ ": flow completes under loss") 1 completed;
  if retx > max_retx then
    Alcotest.failf "%s: %d retransmits exceeds the %d bound" name retx max_retx

let test_loss_1pct () =
  check_lossy ~name:"bernoulli 1%" ~model:(Dessim.Fault.Bernoulli 0.01) ~seed:5
    ~max_retx:20

let test_loss_10pct () =
  let model = Dessim.Fault.Bernoulli 0.1 in
  check_lossy ~name:"bernoulli 10%" ~model ~seed:6 ~max_retx:120;
  let _, retx = run_lossy ~packets:30 ~model ~seed:6 in
  checkb "10% loss actually forces retransmissions" true (retx > 0)

let test_loss_gilbert_elliott () =
  let model =
    Dessim.Fault.Gilbert_elliott
      {
        Dessim.Fault.p_enter_bad = 0.05;
        p_exit_bad = 0.3;
        loss_good = 0.0;
        loss_bad = 0.5;
      }
  in
  check_lossy ~name:"gilbert-elliott" ~model ~seed:7 ~max_retx:150

(* --- flow-store growth policy ------------------------------------- *)

(* Regression: a single sparse flow id used to double the dense lane
   all the way to dense_cap = 2^20 option slots (~8 MB per lane, all
   boxed). Growth is now population-gated, so one sparse id spills to
   the hashtable and the lanes stay at their initial size. *)
let test_sparse_flow_id_spills () =
  let w = make_world () in
  Transport.start w.tr (flow ~id:900_000 ~packets:2 ());
  let sd, rd = Transport.dense_capacities w.tr in
  checki "sender lane unchanged" 256 sd;
  checki "receiver lane unchanged" 256 rd;
  (* The spilled flow is fully functional. *)
  checkb "sender addressable" true (Transport.cwnd w.tr ~flow_id:900_000 <> None);
  Transport.on_data w.tr (mk_pkt ~kind:`Data ~flow_id:900_000 ~seq:0);
  checkb "receiver saw data" true
    (Transport.has_received_any w.tr ~flow_id:900_000);
  Transport.on_ack w.tr (mk_pkt ~kind:`Ack ~flow_id:900_000 ~seq:0);
  checkb "ack landed" true (Transport.cwnd w.tr ~flow_id:900_000 <> None)

let test_dense_growth_resumes_and_migrates () =
  let w = make_world () in
  (* One sparse id spills without growing the lane... *)
  Transport.start w.tr (flow ~id:2000 ~packets:1 ());
  let sd0, _ = Transport.dense_capacities w.tr in
  checki "sparse id did not grow lane" 256 sd0;
  (* ...a genuinely dense population still doubles as before, and the
     growth that first covers id 2000 re-homes it out of the spill
     table (store_find never probes the hashtable for in-range ids). *)
  for id = 0 to 1199 do
    Transport.start w.tr (flow ~id ~packets:1 ())
  done;
  let sd1, rd1 = Transport.dense_capacities w.tr in
  checki "sender lane grew for dense ids" 2048 sd1;
  checki "receiver lane grew for dense ids" 2048 rd1;
  checkb "migrated sender addressable" true
    (Transport.cwnd w.tr ~flow_id:2000 <> None);
  Transport.on_data w.tr (mk_pkt ~kind:`Data ~flow_id:2000 ~seq:0);
  checkb "migrated receiver completes" true
    (Transport.receiver_done w.tr ~flow_id:2000)

(* --- oracle: the flat transport against the record-based model ------- *)

(* Random operation sequences drive [Transport] and [Transport_ref] (the
   record-based transport it replaced, test/transport_ref.ml) side by
   side. Both log every callback; after each operation the logs (sent
   packets, ACKs, completions, first-packet latencies), the per-flow
   cwnd/alpha and receiver state, the reordering and completion counts
   and the number of queued timers must agree. A few flow ids and short
   flows make restarts, duplicates, out-of-range sequence numbers and
   timeouts with and without progress common. *)

module Ref = Transport_ref

type op =
  | Start of int * int * int (* flow id, packets, bytes in the last packet *)
  | Data of int * int * bool (* flow id, seq, CE mark *)
  | Ack of int * int * bool (* flow id, seq, ECN echo *)
  | Fire of int (* run queued timer k (mod their number) *)

let op_to_string = function
  | Start (id, n, last) -> Printf.sprintf "start %d %dp+%dB" id n last
  | Data (id, seq, ce) -> Printf.sprintf "data %d.%d%s" id seq (if ce then "ce" else "")
  | Ack (id, seq, ce) -> Printf.sprintf "ack %d.%d%s" id seq (if ce then "ece" else "")
  | Fire k -> Printf.sprintf "fire %d" k

let oracle_ids = 4

let gen_op =
  let open QCheck.Gen in
  let id = int_bound (oracle_ids - 1) and seq = int_range (-1) 10 in
  frequency
    [
      ( 1,
        map3 (fun id n last -> Start (id, n, last)) id (int_range 1 10)
          (int_range 1 Packet.mtu) );
      (4, map3 (fun id seq ce -> Data (id, seq, ce)) id seq bool);
      (4, map3 (fun id seq ce -> Ack (id, seq, ce)) id seq bool);
      (1, map (fun k -> Fire k) (int_bound 7));
    ]

let arb_ops =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map op_to_string ops))
    QCheck.Gen.(list_size (int_range 1 150) gen_op)

(* One implementation under the harness: operations in, observations
   out. *)
type side = {
  d_start : Flow.t -> unit;
  d_data : Packet.t -> unit;
  d_ack : Packet.t -> unit;
  d_fire : int -> unit;
  d_timers : unit -> int;
  d_flow : int -> string;
  d_totals : unit -> int * int;
  d_log : Buffer.t;
}

let logging log =
  let data (f : Flow.t) ~seq ~size ~retransmit =
    Printf.bprintf log "D%d.%d/%d%s " f.Flow.id seq size
      (if retransmit then "r" else "")
  and ack (f : Flow.t) ~seq ~ecn_echo =
    Printf.bprintf log "A%d.%d%s " f.Flow.id seq (if ecn_echo then "e" else "")
  and fin (f : Flow.t) ~fct = Printf.bprintf log "C%d@%d " f.Flow.id fct
  and first (f : Flow.t) ~latency =
    Printf.bprintf log "F%d@%d " f.Flow.id latency
  in
  (data, ack, fin, first)

let flow_summary ~cwnd ~alpha ~any ~fin ~distinct =
  Printf.sprintf "cwnd=%s alpha=%s any=%b done=%b distinct=%d"
    (match cwnd with Some c -> string_of_int c | None -> "-")
    (match alpha with Some a -> Printf.sprintf "%h" a | None -> "-")
    any fin distinct

(* Remove queued timer [k] (mod their number) and return it. *)
let take_timer timers k =
  match !timers with
  | [] -> None
  | l ->
      let k = k mod List.length l in
      timers := List.filteri (fun i _ -> i <> k) l;
      Some (List.nth l k)

let flat_side mode clock =
  let log = Buffer.create 256 in
  let timers = ref [] in
  let data, ack, fin, first = logging log in
  let tr =
    Transport.create ~mode ~window:4 ~rto:(Time_ns.of_us 100)
      {
        Transport.now = (fun () -> !clock);
        timeout = (fun _ ~flow_id ~gen -> timers := !timers @ [ (flow_id, gen) ]);
        pace = (fun _ ~flow_id:_ ~seq:_ -> ());
        send_data = data;
        send_ack = ack;
        flow_done = fin;
        first_packet = first;
      }
  in
  {
    d_start = Transport.start tr;
    d_data = Transport.on_data tr;
    d_ack = Transport.on_ack tr;
    d_fire =
      (fun k ->
        Option.iter
          (fun (flow_id, gen) -> Transport.timed_out tr ~flow_id ~gen)
          (take_timer timers k));
    d_timers = (fun () -> List.length !timers);
    d_flow =
      (fun flow_id ->
        flow_summary ~cwnd:(Transport.cwnd tr ~flow_id)
          ~alpha:(Transport.alpha tr ~flow_id)
          ~any:(Transport.has_received_any tr ~flow_id)
          ~fin:(Transport.receiver_done tr ~flow_id)
          ~distinct:(Transport.received_distinct tr ~flow_id));
    d_totals =
      (fun () -> (Transport.flows_completed tr, Transport.reordering_events tr));
    d_log = log;
  }

let ref_side mode clock =
  let log = Buffer.create 256 in
  let timers = ref [] in
  let data, ack, fin, first = logging log in
  let mode = match mode with Transport.Windowed -> Ref.Windowed | Dctcp -> Ref.Dctcp in
  let tr =
    Ref.create ~mode ~window:4 ~rto:(Time_ns.of_us 100)
      {
        Ref.now = (fun () -> !clock);
        schedule = (fun _ f -> timers := !timers @ [ f ]);
        pace = (fun _ ~flow_id:_ ~seq:_ -> ());
        send_data = data;
        send_ack = ack;
        flow_done = fin;
        first_packet = first;
      }
  in
  {
    d_start = Ref.start tr;
    d_data = Ref.on_data tr;
    d_ack = Ref.on_ack tr;
    d_fire = (fun k -> Option.iter (fun f -> f ()) (take_timer timers k));
    d_timers = (fun () -> List.length !timers);
    d_flow =
      (fun flow_id ->
        flow_summary ~cwnd:(Ref.cwnd tr ~flow_id) ~alpha:(Ref.alpha tr ~flow_id)
          ~any:(Ref.has_received_any tr ~flow_id)
          ~fin:(Ref.receiver_done tr ~flow_id)
          ~distinct:(Ref.received_distinct tr ~flow_id));
    d_totals = (fun () -> (Ref.flows_completed tr, Ref.reordering_events tr));
    d_log = log;
  }

let apply clock d = function
  | Start (id, n, last) ->
      d.d_start
        (Flow.make ~id ~src_vip:(Vip.of_int 1) ~dst_vip:(Vip.of_int 2)
           ~size_bytes:(((n - 1) * Packet.mtu) + last)
           ~start:!clock Flow.Tcpish)
  | Data (id, seq, ce) ->
      let p = mk_pkt ~kind:`Data ~flow_id:id ~seq in
      Packet.set_ecn p ce;
      d.d_data p
  | Ack (id, seq, ce) -> d.d_ack (ack ~ecn:ce ~flow_id:id ~seq ())
  | Fire k -> d.d_fire k

let observe d =
  let completed, reordering = d.d_totals () in
  Printf.sprintf "log=[%s] timers=%d completed=%d reordering=%d flows=[%s]"
    (Buffer.contents d.d_log) (d.d_timers ()) completed reordering
    (String.concat "; " (List.init oracle_ids d.d_flow))

let agrees_with_reference mode ops =
  let clock = ref 0 in
  let flat = flat_side mode clock and model = ref_side mode clock in
  List.iteri
    (fun i op ->
      clock := !clock + Time_ns.of_us 1;
      apply clock flat op;
      apply clock model op;
      let a = observe flat and b = observe model in
      if a <> b then
        QCheck.Test.fail_reportf "after op %d (%s):@.flat:  %s@.model: %s" i
          (op_to_string op) a b;
      Buffer.clear flat.d_log;
      Buffer.clear model.d_log)
    ops;
  true

let oracle_test name mode =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name arb_ops (agrees_with_reference mode))

let () =
  Alcotest.run "transport"
    [
      ( "reliable",
        [
          Alcotest.test_case "initial window" `Quick test_initial_window;
          Alcotest.test_case "ack clocking" `Quick test_ack_clocking;
          Alcotest.test_case "duplicate acks" `Quick test_duplicate_ack_ignored;
          Alcotest.test_case "receiver completion" `Quick test_receiver_acks_and_completes;
          Alcotest.test_case "duplicate data" `Quick test_duplicate_data_acked_but_not_recounted;
          Alcotest.test_case "reordering detection" `Quick test_reordering_detected;
          Alcotest.test_case "RTO retransmission" `Quick test_rto_retransmits;
          Alcotest.test_case "timers stop after completion" `Quick test_no_rto_after_completion;
          Alcotest.test_case "stale RTO ignored" `Quick test_stale_rto_ignored;
          Alcotest.test_case "first-packet latency" `Quick test_first_packet_latency_measured;
        ] );
      ( "udp",
        [
          Alcotest.test_case "paced sending" `Quick test_udp_paced_sending;
          Alcotest.test_case "no acks" `Quick test_udp_no_acks;
        ] );
      ( "dctcp",
        [
          Alcotest.test_case "clean acks grow window" `Quick test_dctcp_clean_acks_grow_window;
          Alcotest.test_case "mark exits slow start" `Quick test_dctcp_mark_exits_slow_start;
          Alcotest.test_case "alpha tracks marking" `Quick test_dctcp_alpha_tracks_marking;
          Alcotest.test_case "alpha decays" `Quick test_dctcp_alpha_decays_without_marks;
          Alcotest.test_case "windowed ignores marks" `Quick test_windowed_ignores_marks;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "unknown flow" `Quick test_unknown_flow_ignored;
          Alcotest.test_case "out-of-range seq" `Quick
            test_out_of_range_seq_ignored;
        ] );
      ( "flow-store",
        [
          Alcotest.test_case "sparse id spills" `Quick
            test_sparse_flow_id_spills;
          Alcotest.test_case "dense growth resumes and migrates" `Quick
            test_dense_growth_resumes_and_migrates;
        ] );
      ( "oracle",
        [
          oracle_test "windowed agrees with the record model" Transport.Windowed;
          oracle_test "dctcp agrees with the record model" Transport.Dctcp;
        ] );
      ( "loss",
        [
          Alcotest.test_case "1% bernoulli" `Quick test_loss_1pct;
          Alcotest.test_case "10% bernoulli" `Quick test_loss_10pct;
          Alcotest.test_case "gilbert-elliott bursts" `Quick
            test_loss_gilbert_elliott;
        ] );
    ]
