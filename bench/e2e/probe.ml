(* Per-layer tracing from outside the simulator. A traced trial wraps
   the workload's scheme through its public record: the pipeline
   becomes one stage that times [Pipeline.run] of the original, host
   resolution is timed, and the misdelivery / mapping-update hooks are
   counted. Nothing here allocates on the per-packet path, and every
   verdict passes through unchanged, so a traced run simulates exactly
   what an untraced one does. Routing and the event queue are not
   reachable from outside, so they are measured afterwards by replay:
   sampled next-hop queries go back through [Routing.next_hop], and the
   default engine runs a hold model at the run's measured queue depth. *)

module Pipeline = Netsim.Pipeline
module Scheme = Netsim.Scheme
module Engine = Dessim.Engine
module Packet = Netcore.Packet
module Verdict = Switchv2p.Verdict
module Json = Dessim.Telemetry.Json

(* Aggregated span: count, total and a log2 histogram of durations —
   bucket [b >= 1] holds durations in [2^(b-1), 2^b) ns, bucket 0 holds
   zero-length spans. *)
type span = {
  name : string;
  parent : string option;
  mutable count : int;
  mutable total_ns : int;
  hist : int array;
}

let span ?parent name = { name; parent; count = 0; total_ns = 0; hist = Array.make 64 0 }

let rec bits n acc = if n = 0 then acc else bits (n lsr 1) (acc + 1)

let record s ns =
  s.count <- s.count + 1;
  s.total_ns <- s.total_ns + ns;
  let b = bits ns 0 in
  s.hist.(b) <- s.hist.(b) + 1

let seconds s = float_of_int s.total_ns /. 1e9
let mean_seconds s = if s.count = 0 then 0.0 else seconds s /. float_of_int s.count

type t = {
  setup_topo : span;
  setup_workload : span;
  setup_scheme : span;
  setup_network : span;
  run : span;
  pipeline : span;
  resolve : span;
  mutable misdeliveries : int;
  mutable mapping_updates : int;
  mutable pending_sum : int;
  mutable pending_max : int;
  mutable routed : int;  (** pipeline verdicts that route onward *)
  mutable hops : int array;  (** one in eight routed (at, dst, salt) *)
  mutable n_hops : int;
}

let create () =
  {
    setup_topo = span "setup.topo";
    setup_workload = span "setup.workload";
    setup_scheme = span "setup.scheme";
    setup_network = span "setup.network";
    run = span "run";
    pipeline = span ~parent:"run" "run.pipeline";
    resolve = span ~parent:"run" "run.resolve_at_host";
    misdeliveries = 0;
    mapping_updates = 0;
    pending_sum = 0;
    pending_max = 0;
    routed = 0;
    hops = Array.make (3 * 65536) 0;
    n_hops = 0;
  }

let spans t =
  [
    t.setup_topo;
    t.setup_workload;
    t.setup_scheme;
    t.setup_network;
    t.run;
    t.pipeline;
    t.resolve;
  ]

let push_hop t ~at ~dst ~salt =
  let i = 3 * t.n_hops in
  if i + 3 > Array.length t.hops then begin
    let grown = Array.make (2 * Array.length t.hops) 0 in
    Array.blit t.hops 0 grown 0 i;
    t.hops <- grown
  end;
  t.hops.(i) <- at;
  t.hops.(i + 1) <- dst;
  t.hops.(i + 2) <- salt;
  t.n_hops <- t.n_hops + 1

(* The network's ECMP salt for a packet: its flow, or its own id for
   flowless control packets. *)
let salt_of (pkt : Packet.t) =
  if pkt.Packet.flow_id >= 0 then pkt.Packet.flow_id else pkt.Packet.id

let wrap t (s : Scheme.t) =
  let inner = s.Scheme.pipeline in
  let timed (env : Pipeline.env) ~switch ~from pkt =
    let depth = Engine.pending env.Pipeline.engine in
    t.pending_sum <- t.pending_sum + depth;
    if depth > t.pending_max then t.pending_max <- depth;
    let t0 = Clock.now_ns () in
    let v = Pipeline.run inner env ~switch ~from pkt in
    record t.pipeline (Clock.now_ns () - t0);
    let tag = Verdict.tag v in
    if tag = Verdict.tag_forward || tag = Verdict.tag_delay then begin
      let dst = Topo.Topology.node_of_pip env.Pipeline.topo pkt.Packet.dst_pip in
      if dst <> switch then begin
        if t.routed land 7 = 0 then push_hop t ~at:switch ~dst ~salt:(salt_of pkt);
        t.routed <- t.routed + 1
      end
    end;
    v
  in
  let pipeline =
    Pipeline.make
      ~attach:(Pipeline.attach inner)
      ~prepare:(Pipeline.prepare inner)
      ~reset:(fun ~switch -> Pipeline.reset_switch inner ~switch)
      [
        Pipeline.stage ~kind:Pipeline.Classify "timed"
          ~probe:(fun tel ~now_sec -> Pipeline.probe inner tel ~now_sec)
          timed;
      ]
  in
  {
    s with
    Scheme.pipeline;
    resolve_at_host =
      (fun env ~host ~flow_id ~dst_vip ->
        let t0 = Clock.now_ns () in
        let r = s.Scheme.resolve_at_host env ~host ~flow_id ~dst_vip in
        record t.resolve (Clock.now_ns () - t0);
        r);
    on_misdelivery =
      (fun env ~host pkt ->
        t.misdeliveries <- t.misdeliveries + 1;
        s.Scheme.on_misdelivery env ~host pkt);
    on_mapping_update =
      (fun env vip ~old_pip ~new_pip ->
        t.mapping_updates <- t.mapping_updates + 1;
        s.Scheme.on_mapping_update env vip ~old_pip ~new_pip);
  }

let pending_mean t =
  if t.pipeline.count = 0 then 0.0
  else float_of_int t.pending_sum /. float_of_int t.pipeline.count

(* Mean ns per [Routing.next_hop] over the sampled queries, replayed
   until at least a million calls have been timed. *)
let routing_ns_per_next_hop t topo =
  if t.n_hops = 0 then 0.0
  else begin
    let reps = max 1 (1_000_000 / t.n_hops) in
    let h = t.hops in
    let sink = ref 0 in
    let t0 = Clock.now_ns () in
    for _ = 1 to reps do
      for i = 0 to t.n_hops - 1 do
        let j = 3 * i in
        sink :=
          !sink
          lxor Topo.Routing.next_hop topo ~at:h.(j) ~dst:h.(j + 1) ~salt:h.(j + 2)
      done
    done;
    let ns = Clock.now_ns () - t0 in
    ignore (Sys.opaque_identity !sink);
    float_of_int ns /. float_of_int (reps * t.n_hops)
  end

(* Hold model on a fresh default engine: [pending] events stay queued,
   each one executed reschedules itself after an exponential delay of
   mean [mean_delay_ns], until [events] have run. Returns ns per event
   executed. *)
let hold_ns_per_event ~pending ~mean_delay_ns ~events =
  let engine = Engine.create () in
  let rng = Dessim.Rng.create 1 in
  let delays =
    Array.init 4096 (fun _ ->
        int_of_float (-.mean_delay_ns *. log (1.0 -. Dessim.Rng.float rng)))
  in
  let depth = max 1 (int_of_float (Float.round pending)) in
  let remaining = ref (max 0 (events - depth)) in
  let next = ref 0 in
  let draw () =
    incr next;
    delays.(!next land 4095)
  in
  Engine.set_handler engine (fun ~code:_ ~a:_ ~b:_ ->
      if !remaining > 0 then begin
        decr remaining;
        Engine.schedule_event_after engine ~delay:(draw ()) ~code:0 ~a:0 ~b:0
      end);
  for _ = 1 to depth do
    Engine.schedule_event engine ~at:(draw ()) ~code:0 ~a:0 ~b:0
  done;
  let t0 = Clock.now_ns () in
  Engine.run engine;
  let ns = Clock.now_ns () - t0 in
  float_of_int ns /. float_of_int (max 1 (Engine.executed engine))

(* Cost of one empty span: two clock reads plus the aggregate update. *)
let empty_span_ns () =
  let s = span "empty" in
  let n = 1_000_000 in
  let t0 = Clock.now_ns () in
  for _ = 1 to n do
    let a = Clock.now_ns () in
    record s (Clock.now_ns () - a)
  done;
  float_of_int (Clock.now_ns () - t0) /. float_of_int n

let spans_json t =
  let all = spans t in
  let child_ns name =
    List.fold_left
      (fun acc s -> if s.parent = Some name then acc + s.total_ns else acc)
      0 all
  in
  Json.List
    (List.map
       (fun s ->
         let hist =
           List.filter_map Fun.id
             (List.init (Array.length s.hist) (fun b ->
                  if s.hist.(b) = 0 then None
                  else
                    let lo = if b = 0 then 0 else 1 lsl (b - 1) in
                    Some (Json.List [ Json.Int lo; Json.Int s.hist.(b) ])))
         in
         Json.Obj
           [
             ("name", Json.Str s.name);
             ( "parent",
               match s.parent with Some p -> Json.Str p | None -> Json.Null );
             ("count", Json.Int s.count);
             ("total_ns", Json.Int s.total_ns);
             ("self_ns", Json.Int (s.total_ns - child_ns s.name));
             ("hist_log2_ns", Json.List hist);
           ])
       all)
