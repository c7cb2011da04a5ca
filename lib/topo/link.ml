type t = {
  src : int;
  dst : int;
  rate_bps : float;
  prop_delay : Dessim.Time_ns.t;
  buffer_bytes : int;
  ecn_threshold : int option;
  mutable busy_until : Dessim.Time_ns.t;
  mutable queued_bytes : int;
  mutable drops : int;
  mutable marked : int;
  (* Serialization-time memo: traffic uses very few distinct packet
     sizes (MTU, ack, control), and the float divide in
     [Time_ns.of_rate_bytes] is measurable per packet. Caching the
     last (bytes, ns) pair keeps results bit-identical to computing
     fresh every time. *)
  mutable ser_bytes : int;
  mutable ser_ns : Dessim.Time_ns.t;
  (* Fault-injection state, driven by Dessim.Fault plans. *)
  mutable up : bool;
  mutable loss : Dessim.Fault.loss_model;
  mutable loss_state : int;
  mutable corrupt_next : int;
}

type tx = { arrival : Dessim.Time_ns.t; ce_marked : bool }

let make ~ecn_threshold ~src ~dst ~rate_bps ~prop_delay ~buffer_bytes =
  {
    src;
    dst;
    rate_bps;
    prop_delay;
    buffer_bytes;
    ecn_threshold;
    busy_until = Dessim.Time_ns.zero;
    queued_bytes = 0;
    drops = 0;
    marked = 0;
    ser_bytes = -1;
    ser_ns = Dessim.Time_ns.zero;
    up = true;
    loss = Dessim.Fault.No_loss;
    loss_state = 0;
    corrupt_next = 0;
  }

let serialization_time t bytes =
  if bytes = t.ser_bytes then t.ser_ns
  else begin
    let ns = Dessim.Time_ns.of_rate_bytes ~bits_per_sec:t.rate_bps bytes in
    t.ser_bytes <- bytes;
    t.ser_ns <- ns;
    ns
  end

let dropped = -1

let transmit_packed t ~now ~bytes =
  if t.queued_bytes + bytes > t.buffer_bytes then begin
    t.drops <- t.drops + 1;
    dropped
  end
  else begin
    (* DCTCP step marking: judge the queue as seen on enqueue. *)
    let ce =
      match t.ecn_threshold with
      | Some k when t.queued_bytes > k ->
          t.marked <- t.marked + 1;
          1
      | Some _ | None -> 0
    in
    let start = Dessim.Time_ns.max now t.busy_until in
    let ser = serialization_time t bytes in
    let done_ser = Dessim.Time_ns.add start ser in
    t.busy_until <- done_ser;
    t.queued_bytes <- t.queued_bytes + bytes;
    (* Arrival fits in 62 bits (2^62 ns ~ 146 years of simulated time),
       so the CE bit rides in bit 0 without loss. *)
    (Dessim.Time_ns.add done_ser t.prop_delay lsl 1) lor ce
  end

let packed_arrival p = p lsr 1
let packed_ce p = p land 1 = 1

let transmit t ~now ~bytes =
  let p = transmit_packed t ~now ~bytes in
  if p = dropped then None
  else Some { arrival = packed_arrival p; ce_marked = packed_ce p }

let delivered t ~bytes = t.queued_bytes <- t.queued_bytes - bytes

let reset t =
  t.busy_until <- Dessim.Time_ns.zero;
  t.queued_bytes <- 0;
  t.drops <- 0;
  t.marked <- 0;
  t.up <- true;
  t.loss <- Dessim.Fault.No_loss;
  t.loss_state <- 0;
  t.corrupt_next <- 0

let loss_step t rng =
  match t.loss with
  | Dessim.Fault.No_loss -> false
  | m ->
      let packed = Dessim.Fault.step_packed m ~state:t.loss_state rng in
      t.loss_state <- packed lsr 1;
      packed land 1 = 1

let take_corrupt t =
  t.corrupt_next > 0
  && begin
       t.corrupt_next <- t.corrupt_next - 1;
       true
     end

let queueing_delay t ~now =
  if Dessim.Time_ns.compare t.busy_until now > 0 then
    Dessim.Time_ns.sub t.busy_until now
  else Dessim.Time_ns.zero
