module Time_ns = Dessim.Time_ns
module Flow = Netcore.Flow
module Packet = Netcore.Packet

type callbacks = {
  now : unit -> Time_ns.t;
  timeout : Time_ns.t -> flow_id:int -> gen:int -> unit;
  pace : Time_ns.t -> flow_id:int -> seq:int -> unit;
  send_data : Flow.t -> seq:int -> size:int -> retransmit:bool -> unit;
  send_ack : Flow.t -> seq:int -> ecn_echo:bool -> unit;
  flow_done : Flow.t -> fct:Time_ns.t -> unit;
  first_packet : Flow.t -> latency:Time_ns.t -> unit;
}

type mode = Windowed | Dctcp

(* --- flow-id map ---------------------------------------------------------

   Flow id -> row, [-1] when absent. Flow ids are caller-assigned and in
   practice dense small ints (experiments number flows sequentially),
   so the common case is a flat int array: lookup is a bounds check and
   a load, no hashing. Dense growth is population-gated: the array only
   grows to cover an id while [id < 4 x ids-ever-stored] (so a genuinely
   dense id space doubles), and everything else spills into a
   hashtable. Without the gate one sparse id (flow 10^6 in an otherwise
   empty map) would commit ~2^20 slots. When later growth makes a
   spilled id dense-addressable, the grow migrates it out of the
   hashtable, so an id inside the dense range lives only in the dense
   array and [map_find] stays one compare and one load. *)

type idmap = {
  mutable dense : int array;
  mutable population : int; (* ids ever stored (dense + spilled) *)
  big : (int, int) Hashtbl.t;
}

let dense_cap = 1 lsl 20

let map_create () =
  { dense = Array.make 256 (-1); population = 0; big = Hashtbl.create 16 }

let map_resize m ncap =
  let cap = Array.length m.dense in
  let nd = Array.make ncap (-1) in
  Array.blit m.dense 0 nd 0 cap;
  m.dense <- nd;
  (* Re-home previously spilled ids that the grown array now covers. *)
  if Hashtbl.length m.big > 0 then begin
    let moved = ref [] in
    Hashtbl.iter (fun id r -> if id < ncap then moved := (id, r) :: !moved) m.big;
    List.iter
      (fun (id, r) ->
        Hashtbl.remove m.big id;
        nd.(id) <- r)
      !moved
  end

let[@inline] map_find m id =
  if id >= 0 && id < Array.length m.dense then Array.unsafe_get m.dense id
  else if Hashtbl.length m.big = 0 then -1
  else match Hashtbl.find m.big id with r -> r | exception Not_found -> -1

(* [id] must be absent. *)
let map_add m id r =
  if id >= 0 && id < Array.length m.dense then m.dense.(id) <- r
  else if id >= 0 && id < dense_cap && id < 4 * (m.population + 1) then begin
    let c = ref (2 * Array.length m.dense) in
    while id >= !c do
      c := 2 * !c
    done;
    map_resize m !c;
    m.dense.(id) <- r
  end
  else Hashtbl.replace m.big id r;
  m.population <- m.population + 1

(* --- per-flow tables -----------------------------------------------------

   One row per flow id, holding both the sender and the receiver side
   (an instance may hold only one: the sharded runtime starts them on
   different shards). A row's ints live at [st.(stride * row + f)],
   its congestion window and DCTCP estimate at [win.(2 * row)] and
   [win.(2 * row + 1)] (a float array, so updates are unboxed), and its
   flow descriptors in [s_flow]/[r_flow]. The per-packet ACK and
   receive maps are regions of two shared byte arenas. A restart of a
   flow id reuses its row and takes fresh arena regions.

   Nothing here is allocated per flow once {!reserve} has sized the
   tables for a workload; without it they double on demand. *)

let f_gen = 0 (* sender starts so far; an RTO event carries the value *)
let f_flags = 1
let f_s_total = 2 (* sender: packets in the flow *)
let f_next_seq = 3
let f_n_acked = 4
let f_inflight = 5
let f_win_acks = 6 (* DCTCP: acks in the current observation window *)
let f_win_marks = 7 (* DCTCP: CE-echo acks in the window *)
let f_stamp = 8 (* n_acked at the last timeout check *)
let f_ack_off = 9 (* offset of the ACK map in the [acked] arena *)
let f_interval = 10 (* UDP: pacing interval, ns *)
let f_r_total = 11 (* receiver: packets in the flow *)
let f_n_recv = 12 (* distinct sequence numbers received *)
let f_max_seq = 13
let f_recv_off = 14 (* offset of the receive map in the [recvd] arena *)
let stride = 15

let fl_reliable = 1 (* a reliable sender is started *)
let fl_udp = 2 (* a UDP pacer is started *)
let fl_done = 4 (* every packet of the reliable sender acked *)
let fl_slow_start = 8
let fl_receiver = 16 (* a receiver is started *)
let fl_got_first = 32
let fl_r_done = 64
let sender_bits = fl_reliable lor fl_udp lor fl_done lor fl_slow_start
let receiver_bits = fl_receiver lor fl_got_first lor fl_r_done

type arena = { mutable buf : Bytes.t; mutable used : int }

let arena_create () = { buf = Bytes.empty; used = 0 }

let arena_ensure a n =
  if a.used + n > Bytes.length a.buf then begin
    let nb = Bytes.make (max (a.used + n) (2 * Bytes.length a.buf)) '\000' in
    Bytes.blit a.buf 0 nb 0 a.used;
    a.buf <- nb
  end

(* A zeroed region of [n] bytes: nothing past [used] was ever written. *)
let arena_take a n =
  arena_ensure a n;
  let off = a.used in
  a.used <- off + n;
  off

let no_flow =
  Flow.make ~id:(-1) ~src_vip:(Netcore.Addr.Vip.of_int 0)
    ~dst_vip:(Netcore.Addr.Vip.of_int 0) ~size_bytes:1 ~start:Time_ns.zero
    Flow.Tcpish

type t = {
  cb : callbacks;
  mode : mode;
  window : int;
  rto : Time_ns.t;
  ids : idmap;
  mutable rows : int;
  mutable st : int array;
  mutable win : Float.Array.t;
  mutable s_flow : Flow.t array;
  mutable r_flow : Flow.t array;
  acked : arena;
  recvd : arena;
  mutable completed : int;
  mutable reordering : int;
}

let initial_cwnd = 10.0 (* RFC 6928 IW10 *)
let dctcp_g = 1.0 /. 16.0 (* alpha EWMA gain, RFC 8257 *)

let create ?(mode = Windowed) ?(window = 64) ?(rto = Time_ns.of_us 500) cb =
  {
    cb;
    mode;
    window;
    rto;
    ids = map_create ();
    rows = 0;
    st = [||];
    win = Float.Array.create 0;
    s_flow = [||];
    r_flow = [||];
    acked = arena_create ();
    recvd = arena_create ();
    completed = 0;
    reordering = 0;
  }

let rows_ensure t n =
  let cap = Array.length t.s_flow in
  if n > cap then begin
    let ncap = max n (2 * cap) in
    let st = Array.make (stride * ncap) 0 in
    Array.blit t.st 0 st 0 (stride * t.rows);
    t.st <- st;
    let win = Float.Array.make (2 * ncap) 0.0 in
    Float.Array.blit t.win 0 win 0 (2 * t.rows);
    t.win <- win;
    let grow a =
      let na = Array.make ncap no_flow in
      Array.blit a 0 na 0 t.rows;
      na
    in
    t.s_flow <- grow t.s_flow;
    t.r_flow <- grow t.r_flow
  end

let reserve t ~flows ~ack_packets ~recv_packets ~max_id =
  rows_ensure t (t.rows + flows);
  arena_ensure t.acked ack_packets;
  arena_ensure t.recvd recv_packets;
  let m = t.ids in
  if
    max_id >= Array.length m.dense
    && max_id < dense_cap
    && max_id < 4 * (m.population + flows)
  then map_resize m (max (max_id + 1) (2 * Array.length m.dense))

(* The row of flow [id], created (all fields zero) on first sight. *)
let row_of t id =
  let r = map_find t.ids id in
  if r >= 0 then r
  else begin
    let r = t.rows in
    rows_ensure t (r + 1);
    t.rows <- r + 1;
    map_add t.ids id r;
    r
  end

(* Field access re-reads [t.st] every time: a callback may start a flow
   and so regrow the table under the caller. The accessors are forced
   inline: left to ocamlopt without flambda they stayed calls, and an
   ACK cost ~120 ns against ~45 ns inlined (a 100-flow loop of
   [on_ack], 2-core VM). *)
let[@inline] get t r f = t.st.((stride * r) + f)
let[@inline] set t r f v = t.st.((stride * r) + f) <- v
let[@inline] has t r bit = get t r f_flags land bit <> 0
let[@inline] flag_on t r bit = set t r f_flags (get t r f_flags lor bit)
let[@inline] flag_off t r bit = set t r f_flags (get t r f_flags land lnot bit)

let packet_size (flow : Flow.t) seq =
  let total = Flow.packet_count flow in
  if seq < total - 1 then flow.Flow.pkt_bytes
  else
    let rem = flow.Flow.size_bytes - ((total - 1) * flow.Flow.pkt_bytes) in
    if rem <= 0 then flow.Flow.pkt_bytes else rem

let flows_completed t = t.completed
let reordering_events t = t.reordering

let has_received_any t ~flow_id =
  let r = map_find t.ids flow_id in
  r >= 0 && has t r fl_got_first

let receiver_done t ~flow_id =
  let r = map_find t.ids flow_id in
  r >= 0 && has t r fl_r_done

let received_distinct t ~flow_id =
  let r = map_find t.ids flow_id in
  if r >= 0 then get t r f_n_recv else 0

let[@inline] effective_cwnd t r =
  Int.max 1 (Int.min t.window (int_of_float (Float.Array.get t.win (2 * r))))

(* Reliable sender: keep the congestion window full. *)
let pump t r =
  let w = effective_cwnd t r in
  let flow = t.s_flow.(r) in
  while
    (not (has t r fl_done))
    && get t r f_inflight < w
    && get t r f_next_seq < get t r f_s_total
  do
    let seq = get t r f_next_seq in
    set t r f_next_seq (seq + 1);
    set t r f_inflight (get t r f_inflight + 1);
    t.cb.send_data flow ~seq ~size:(packet_size flow seq) ~retransmit:false
  done

let arm_timeout t r =
  t.cb.timeout t.rto ~flow_id:t.s_flow.(r).Flow.id ~gen:(get t r f_gen)

let timed_out t ~flow_id ~gen =
  let r = map_find t.ids flow_id in
  if r >= 0 && get t r f_gen = gen && has t r fl_reliable && not (has t r fl_done)
  then begin
    if get t r f_n_acked = get t r f_stamp then begin
      (* No progress over a full RTO: go-back-N from the lowest unacked
         sequence. *)
      Float.Array.set t.win (2 * r)
        (Float.min initial_cwnd (float_of_int t.window));
      flag_on t r fl_slow_start;
      let flow = t.s_flow.(r) in
      let off = get t r f_ack_off in
      let resent = ref 0 in
      let seq = ref 0 in
      while !resent < t.window && !seq < get t r f_next_seq do
        if Bytes.get t.acked.buf (off + !seq) = '\000' then begin
          incr resent;
          t.cb.send_data flow ~seq:!seq ~size:(packet_size flow !seq)
            ~retransmit:true
        end;
        incr seq
      done
    end;
    set t r f_stamp (get t r f_n_acked);
    arm_timeout t r
  end

(* Reset the sender half of row [r] for a fresh start of [flow]. *)
let sender_reset t r flow kind =
  t.s_flow.(r) <- flow;
  set t r f_gen (get t r f_gen + 1);
  set t r f_flags ((get t r f_flags land lnot sender_bits) lor kind);
  set t r f_s_total (Flow.packet_count flow);
  set t r f_next_seq 0;
  set t r f_n_acked 0;
  set t r f_inflight 0;
  set t r f_win_acks 0;
  set t r f_win_marks 0;
  set t r f_stamp 0

let start_reliable t flow =
  let r = row_of t flow.Flow.id in
  sender_reset t r flow (fl_reliable lor fl_slow_start);
  set t r f_ack_off (arena_take t.acked (get t r f_s_total));
  Float.Array.set t.win (2 * r) (Float.min initial_cwnd (float_of_int t.window));
  Float.Array.set t.win ((2 * r) + 1) 1.0;
  pump t r;
  arm_timeout t r

let send_paced t r seq =
  if seq < get t r f_s_total then begin
    let flow = t.s_flow.(r) in
    t.cb.send_data flow ~seq ~size:(packet_size flow seq) ~retransmit:false;
    t.cb.pace (get t r f_interval) ~flow_id:flow.Flow.id ~seq:(seq + 1)
  end

let paced t ~flow_id ~seq =
  let r = map_find t.ids flow_id in
  if r >= 0 && has t r fl_udp then send_paced t r seq
  else invalid_arg "Transport.paced: no UDP sender for this flow"

let start_udp t flow rate_bps =
  let r = row_of t flow.Flow.id in
  sender_reset t r flow fl_udp;
  set t r f_interval
    (Time_ns.of_rate_bytes ~bits_per_sec:rate_bps flow.Flow.pkt_bytes);
  send_paced t r 0

let start_receiver t flow =
  let r = row_of t flow.Flow.id in
  t.r_flow.(r) <- flow;
  set t r f_flags ((get t r f_flags land lnot receiver_bits) lor fl_receiver);
  set t r f_r_total (Flow.packet_count flow);
  set t r f_n_recv 0;
  set t r f_max_seq (-1);
  set t r f_recv_off (arena_take t.recvd (get t r f_r_total))

let start_sender t flow =
  match flow.Flow.proto with
  | Flow.Tcpish -> start_reliable t flow
  | Flow.Udp { rate_bps } -> start_udp t flow rate_bps

let start t flow =
  start_receiver t flow;
  start_sender t flow

let on_data t (pkt : Packet.t) =
  let r = map_find t.ids pkt.Packet.flow_id in
  let seq = pkt.Packet.seq in
  (* A sequence number outside [0, total) would index out of the
     receive map; a corrupted or mis-filled packet must not crash the
     receiver. *)
  if r >= 0 && has t r fl_receiver && seq >= 0 && seq < get t r f_r_total then begin
    let flow = t.r_flow.(r) in
    if not (has t r fl_got_first) then begin
      flag_on t r fl_got_first;
      t.cb.first_packet flow
        ~latency:(Time_ns.sub (t.cb.now ()) flow.Flow.start)
    end;
    (* No callback runs from here to the ACK, so [st] stays current. *)
    let st = t.st and i = stride * r in
    let at = st.(i + f_recv_off) + seq in
    let recvd = t.recvd.buf in
    let fresh = Bytes.get recvd at = '\000' in
    if fresh then begin
      let max_seq = st.(i + f_max_seq) in
      if seq < max_seq then t.reordering <- t.reordering + 1;
      if seq > max_seq then st.(i + f_max_seq) <- seq;
      Bytes.set recvd at '\001';
      st.(i + f_n_recv) <- st.(i + f_n_recv) + 1
    end;
    (match flow.Flow.proto with
    | Flow.Tcpish -> t.cb.send_ack flow ~seq ~ecn_echo:(Packet.ecn pkt)
    | Flow.Udp _ -> ());
    if fresh && get t r f_n_recv = get t r f_r_total && not (has t r fl_r_done)
    then begin
      flag_on t r fl_r_done;
      t.completed <- t.completed + 1;
      t.cb.flow_done flow ~fct:(Time_ns.sub (t.cb.now ()) flow.Flow.start)
    end
  end

(* The DCTCP control law (RFC 8257): per observation window (one cwnd
   of acks), alpha <- (1-g) alpha + g F where F is the marked-ack
   fraction; a window containing marks cuts cwnd by alpha/2. *)
let dctcp_on_ack t r ~marked =
  let w = t.win and c = 2 * r in
  let cap = float_of_int t.window in
  set t r f_win_acks (get t r f_win_acks + 1);
  if marked then set t r f_win_marks (get t r f_win_marks + 1);
  if has t r fl_slow_start then begin
    if marked then begin
      flag_off t r fl_slow_start;
      Float.Array.set w c (Float.max 2.0 (Float.Array.get w c /. 2.0))
    end
    else Float.Array.set w c (Float.min cap (Float.Array.get w c +. 1.0))
  end;
  let acks = get t r f_win_acks in
  if acks >= effective_cwnd t r then begin
    let marks = get t r f_win_marks in
    let f = float_of_int marks /. float_of_int acks in
    let alpha =
      ((1.0 -. dctcp_g) *. Float.Array.get w (c + 1)) +. (dctcp_g *. f)
    in
    Float.Array.set w (c + 1) alpha;
    if not (has t r fl_slow_start) then begin
      if marks > 0 then
        Float.Array.set w c
          (Float.max 2.0 (Float.Array.get w c *. (1.0 -. (alpha /. 2.0))))
      else Float.Array.set w c (Float.min cap (Float.Array.get w c +. 1.0))
    end;
    set t r f_win_acks 0;
    set t r f_win_marks 0
  end

let[@inline] windowed_on_ack t r =
  let c = 2 * r in
  let cwnd = Float.Array.get t.win c in
  if cwnd < float_of_int t.window then Float.Array.set t.win c (cwnd +. 1.0)

let on_ack t (pkt : Packet.t) =
  let r = map_find t.ids pkt.Packet.flow_id in
  let seq = pkt.Packet.seq in
  if r >= 0 then begin
    (* No callback runs before [pump], so [st] stays current. *)
    let st = t.st and i = stride * r in
    if
      st.(i + f_flags) land (fl_reliable lor fl_done) = fl_reliable
      && seq >= 0
      && seq < st.(i + f_s_total)
      && Bytes.get t.acked.buf (st.(i + f_ack_off) + seq) = '\000'
    then begin
      Bytes.set t.acked.buf (st.(i + f_ack_off) + seq) '\001';
      let n_acked = st.(i + f_n_acked) + 1 in
      st.(i + f_n_acked) <- n_acked;
      st.(i + f_inflight) <- st.(i + f_inflight) - 1;
      (match t.mode with
      | Windowed -> windowed_on_ack t r
      | Dctcp -> dctcp_on_ack t r ~marked:(Packet.ecn pkt));
      if n_acked = st.(i + f_s_total) then flag_on t r fl_done else pump t r
    end
  end

let dense_capacities t =
  let n = Array.length t.ids.dense in
  (n, n)

let cwnd t ~flow_id =
  let r = map_find t.ids flow_id in
  if r >= 0 && has t r fl_reliable then Some (effective_cwnd t r) else None

let alpha t ~flow_id =
  let r = map_find t.ids flow_id in
  if r >= 0 && has t r fl_reliable then Some (Float.Array.get t.win ((2 * r) + 1))
  else None
