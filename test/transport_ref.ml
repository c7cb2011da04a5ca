(* Reference model for [Netsim.Transport]: the record-based transport
   that the flat, flow-indexed tables replaced. One record per sender,
   receiver and UDP pacer, each in a flow-id keyed option store, per-flow
   [Bytes] bitmaps, and one RTO closure per flow per RTO period. It is
   slower and allocates per flow, but every field has a name, so
   test_transport.ml checks the flat transport against it on random
   operation sequences.

   It differs from the code it was taken from in one respect, on
   purpose: a timer re-checks that its sender is still the flow's
   current one, so a timer from an earlier start of the same flow id
   does nothing. The flat transport has the same rule (RTO events carry
   the start generation); the old closure kept retransmitting for the
   replaced sender. *)

module Time_ns = Dessim.Time_ns
module Flow = Netcore.Flow
module Packet = Netcore.Packet

type callbacks = {
  now : unit -> Time_ns.t;
  schedule : Time_ns.t -> (unit -> unit) -> unit;
  pace : Time_ns.t -> flow_id:int -> seq:int -> unit;
  send_data : Flow.t -> seq:int -> size:int -> retransmit:bool -> unit;
  send_ack : Flow.t -> seq:int -> ecn_echo:bool -> unit;
  flow_done : Flow.t -> fct:Time_ns.t -> unit;
  first_packet : Flow.t -> latency:Time_ns.t -> unit;
}

type mode = Windowed | Dctcp

(* The window state that changes per ACK, in an all-float record: its
   fields are stored unboxed, where a [mutable float] field of the
   mixed [sender] record would box a fresh float (and run the write
   barrier on a long-lived block) on every update. *)
type window = {
  mutable cwnd : float; (* congestion window (packets), capped at t.window *)
  mutable alpha : float; (* DCTCP congestion estimate *)
}

type sender = {
  s_flow : Flow.t;
  total : int;
  mutable next_seq : int;
  acked : Bytes.t;
  mutable n_acked : int;
  mutable inflight : int;
  w : window;
  mutable in_slow_start : bool;
  mutable win_acks : int; (* acks in the current observation window *)
  mutable win_marks : int; (* CE-echo acks in the window *)
  mutable done_ : bool;
  mutable progress_stamp : int; (* n_acked at last timeout check *)
}

(* A constant-rate UDP sender: each paced send is a typed engine event
   (flow id, seq) that [paced] resolves back to this record. *)
type pacer = { p_flow : Flow.t; p_total : int; p_interval : Time_ns.t }

type receiver = {
  r_flow : Flow.t;
  r_total : int;
  received : Bytes.t;
  mutable n_received : int;
  mutable max_seq_seen : int;
  mutable got_first : bool;
  mutable r_done : bool;
}

(* Flow-id keyed store. Flow ids are caller-assigned and in practice
   dense small ints (experiments number flows sequentially), so the
   common case is a flat array: lookup is a bounds check and a load,
   no hashing. Dense growth is population-gated: the array only grows
   to cover an id while [id < 4 x entries-ever-stored] (so a genuinely
   dense id space doubles as before), and everything else spills into
   a hashtable. Without the gate, one sparse id — e.g. flow 10^6 in an
   otherwise empty store — committed ~2^20 boxed option slots (~8 MB)
   per lane. When later growth makes a spilled id dense-addressable,
   [store_grow] migrates it out of the hashtable, preserving the
   invariant that an id inside the dense range lives only in the dense
   array — so [store_find] stays one compare and one load. *)
type 'a store = {
  mutable dense : 'a option array;
  mutable population : int; (* entries ever stored (dense + spilled) *)
  big : (int, 'a) Hashtbl.t;
}

let dense_cap = 1 lsl 20

let store_create () =
  { dense = Array.make 256 None; population = 0; big = Hashtbl.create 16 }

let store_grow st id =
  let cap = Array.length st.dense in
  let ncap =
    let c = ref (2 * cap) in
    while id >= !c do
      c := 2 * !c
    done;
    !c
  in
  let nd = Array.make ncap None in
  Array.blit st.dense 0 nd 0 cap;
  st.dense <- nd;
  (* Re-home previously spilled ids that the grown array now covers. *)
  if Hashtbl.length st.big > 0 then begin
    let moved = ref [] in
    Hashtbl.iter
      (fun id v -> if id < ncap then moved := (id, v) :: !moved)
      st.big;
    List.iter
      (fun (id, v) ->
        Hashtbl.remove st.big id;
        nd.(id) <- Some v)
      !moved
  end

let store_set st id v =
  if id >= 0 && id < Array.length st.dense then begin
    if st.dense.(id) = None then st.population <- st.population + 1;
    st.dense.(id) <- Some v
  end
  else if id >= 0 && id < dense_cap && id < 4 * (st.population + 1) then begin
    store_grow st id;
    (* [store_grow] may have migrated this very id out of the spill
       table; only a genuinely fresh id counts toward the population. *)
    if st.dense.(id) = None then st.population <- st.population + 1;
    st.dense.(id) <- Some v
  end
  else begin
    if not (Hashtbl.mem st.big id) then st.population <- st.population + 1;
    Hashtbl.replace st.big id v
  end

let store_find st id =
  if id >= 0 && id < Array.length st.dense then Array.unsafe_get st.dense id
  else Hashtbl.find_opt st.big id

type t = {
  cb : callbacks;
  mode : mode;
  window : int;
  rto : Time_ns.t;
  senders : sender store;
  pacers : pacer store;
  receivers : receiver store;
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
    senders = store_create ();
    pacers = store_create ();
    receivers = store_create ();
    completed = 0;
    reordering = 0;
  }

let packet_size (flow : Flow.t) seq =
  let total = Flow.packet_count flow in
  if seq < total - 1 then flow.Flow.pkt_bytes
  else
    let rem = flow.Flow.size_bytes - ((total - 1) * flow.Flow.pkt_bytes) in
    if rem <= 0 then flow.Flow.pkt_bytes else rem

let flows_completed t = t.completed
let reordering_events t = t.reordering

let has_received_any t ~flow_id =
  match store_find t.receivers flow_id with
  | None -> false
  | Some r -> r.got_first

let receiver_done t ~flow_id =
  match store_find t.receivers flow_id with
  | None -> false
  | Some r -> r.r_done

let received_distinct t ~flow_id =
  match store_find t.receivers flow_id with
  | None -> 0
  | Some r -> r.n_received

let effective_cwnd t s = Int.max 1 (Int.min t.window (int_of_float s.w.cwnd))

(* Reliable sender: keep the congestion window full. *)
let pump t s =
  let w = effective_cwnd t s in
  while (not s.done_) && s.inflight < w && s.next_seq < s.total do
    let seq = s.next_seq in
    s.next_seq <- seq + 1;
    s.inflight <- s.inflight + 1;
    t.cb.send_data s.s_flow ~seq ~size:(packet_size s.s_flow seq)
      ~retransmit:false
  done

let current t s =
  match store_find t.senders s.s_flow.Flow.id with
  | Some s' -> s' == s
  | None -> false

let rec arm_timeout t s =
  t.cb.schedule t.rto (fun () ->
      if current t s && not s.done_ then begin
        if s.n_acked = s.progress_stamp then begin
          (* No progress over a full RTO: go-back-N from the lowest
             unacked sequence. *)
          s.w.cwnd <- Float.min initial_cwnd (float_of_int t.window);
          s.in_slow_start <- true;
          let resent = ref 0 in
          let seq = ref 0 in
          while !resent < t.window && !seq < s.next_seq do
            if Bytes.get s.acked !seq = '\000' then begin
              incr resent;
              t.cb.send_data s.s_flow ~seq:!seq
                ~size:(packet_size s.s_flow !seq)
                ~retransmit:true
            end;
            incr seq
          done
        end;
        s.progress_stamp <- s.n_acked;
        arm_timeout t s
      end)

let start_reliable t flow =
  let total = Flow.packet_count flow in
  let s =
    {
      s_flow = flow;
      total;
      next_seq = 0;
      acked = Bytes.make total '\000';
      n_acked = 0;
      inflight = 0;
      w = { cwnd = Float.min initial_cwnd (float_of_int t.window); alpha = 1.0 };
      in_slow_start = true;
      win_acks = 0;
      win_marks = 0;
      done_ = false;
      progress_stamp = 0;
    }
  in
  store_set t.senders flow.Flow.id s;
  pump t s;
  arm_timeout t s

let send_paced t p seq =
  if seq < p.p_total then begin
    t.cb.send_data p.p_flow ~seq ~size:(packet_size p.p_flow seq)
      ~retransmit:false;
    t.cb.pace p.p_interval ~flow_id:p.p_flow.Flow.id ~seq:(seq + 1)
  end

let paced t ~flow_id ~seq =
  match store_find t.pacers flow_id with
  | Some p -> send_paced t p seq
  | None -> invalid_arg "Transport.paced: no UDP sender for this flow"

let start_udp t flow rate_bps =
  let p =
    {
      p_flow = flow;
      p_total = Flow.packet_count flow;
      p_interval =
        Time_ns.of_rate_bytes ~bits_per_sec:rate_bps flow.Flow.pkt_bytes;
    }
  in
  store_set t.pacers flow.Flow.id p;
  send_paced t p 0

let make_receiver flow =
  let total = Flow.packet_count flow in
  {
    r_flow = flow;
    r_total = total;
    received = Bytes.make total '\000';
    n_received = 0;
    max_seq_seen = -1;
    got_first = false;
    r_done = false;
  }

let start_receiver t flow = store_set t.receivers flow.Flow.id (make_receiver flow)

let start_sender t flow =
  match flow.Flow.proto with
  | Flow.Tcpish -> start_reliable t flow
  | Flow.Udp { rate_bps } -> start_udp t flow rate_bps

let start t flow =
  start_receiver t flow;
  start_sender t flow

let on_data t (pkt : Packet.t) =
  match store_find t.receivers pkt.Packet.flow_id with
  | None -> ()
  | Some r when pkt.Packet.seq >= 0 && pkt.Packet.seq < r.r_total ->
      let seq = pkt.Packet.seq in
      if not r.got_first then begin
        r.got_first <- true;
        t.cb.first_packet r.r_flow
          ~latency:(Time_ns.sub (t.cb.now ()) r.r_flow.Flow.start)
      end;
      let fresh = Bytes.get r.received seq = '\000' in
      if fresh then begin
        if seq < r.max_seq_seen then t.reordering <- t.reordering + 1;
        if seq > r.max_seq_seen then r.max_seq_seen <- seq;
        Bytes.set r.received seq '\001';
        r.n_received <- r.n_received + 1
      end;
      (match r.r_flow.Flow.proto with
      | Flow.Tcpish -> t.cb.send_ack r.r_flow ~seq ~ecn_echo:(Packet.ecn pkt)
      | Flow.Udp _ -> ());
      if fresh && r.n_received = r.r_total && not r.r_done then begin
        r.r_done <- true;
        t.completed <- t.completed + 1;
        t.cb.flow_done r.r_flow
          ~fct:(Time_ns.sub (t.cb.now ()) r.r_flow.Flow.start)
      end
  | _ ->
      (* A sequence number outside [0, total) would index out of the
         bitmap; a corrupted or mis-filled packet must not crash the
         receiver. *)
      ()

(* The DCTCP control law (RFC 8257): per observation window (one cwnd
   of acks), alpha <- (1-g) alpha + g F where F is the marked-ack
   fraction; a window containing marks cuts cwnd by alpha/2. *)
let dctcp_on_ack t s ~marked =
  s.win_acks <- s.win_acks + 1;
  if marked then s.win_marks <- s.win_marks + 1;
  if s.in_slow_start then begin
    if marked then begin
      s.in_slow_start <- false;
      s.w.cwnd <- Float.max 2.0 (s.w.cwnd /. 2.0)
    end
    else s.w.cwnd <- Float.min (float_of_int t.window) (s.w.cwnd +. 1.0)
  end;
  if s.win_acks >= effective_cwnd t s then begin
    let f = float_of_int s.win_marks /. float_of_int s.win_acks in
    s.w.alpha <- ((1.0 -. dctcp_g) *. s.w.alpha) +. (dctcp_g *. f);
    if not s.in_slow_start then begin
      if s.win_marks > 0 then
        s.w.cwnd <- Float.max 2.0 (s.w.cwnd *. (1.0 -. (s.w.alpha /. 2.0)))
      else s.w.cwnd <- Float.min (float_of_int t.window) (s.w.cwnd +. 1.0)
    end;
    s.win_acks <- 0;
    s.win_marks <- 0
  end

let windowed_on_ack t s =
  if s.w.cwnd < float_of_int t.window then s.w.cwnd <- s.w.cwnd +. 1.0

let on_ack t (pkt : Packet.t) =
  match store_find t.senders pkt.Packet.flow_id with
  | None -> ()
  | Some s ->
      let seq = pkt.Packet.seq in
      if
        (not s.done_) && seq >= 0 && seq < s.total
        && Bytes.get s.acked seq = '\000'
      then begin
        Bytes.set s.acked seq '\001';
        s.n_acked <- s.n_acked + 1;
        s.inflight <- s.inflight - 1;
        (match t.mode with
        | Windowed -> windowed_on_ack t s
        | Dctcp -> dctcp_on_ack t s ~marked:(Packet.ecn pkt));
        if s.n_acked = s.total then s.done_ <- true else pump t s
      end

let dense_capacities t =
  (Array.length t.senders.dense, Array.length t.receivers.dense)

let cwnd t ~flow_id =
  match store_find t.senders flow_id with
  | Some s -> Some (effective_cwnd t s)
  | None -> None

let alpha t ~flow_id =
  match store_find t.senders flow_id with
  | Some s -> Some s.w.alpha
  | None -> None
