(* Tests for the discrete-event simulation substrate: RNG, the
   engine and its heap, distributions, statistics, time. *)

module Rng = Dessim.Rng
module Engine = Dessim.Engine
module Dist = Dessim.Dist
module Stats = Dessim.Stats
module Time_ns = Dessim.Time_ns

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* --- Time --- *)

let test_time_units () =
  checki "us" 1_000 (Time_ns.of_us 1);
  checki "ms" 1_000_000 (Time_ns.of_ms 1);
  checki "sec" 1_000_000_000 (Time_ns.of_sec 1.0);
  check (Alcotest.float 1e-9) "roundtrip" 1.5 (Time_ns.to_sec (Time_ns.of_sec 1.5))

let test_time_rate () =
  (* 1500 B at 100 Gb/s = 120 ns. *)
  checki "mtu at 100G" 120 (Time_ns.of_rate_bytes ~bits_per_sec:100e9 1500);
  (* Tiny packets still take at least 1 ns. *)
  checki "minimum" 1 (Time_ns.of_rate_bytes ~bits_per_sec:1e15 1)

let test_time_arith () =
  checki "add" 5 (Time_ns.add 2 3);
  checki "sub" 2 (Time_ns.sub 5 3);
  checki "max" 5 (Time_ns.max 5 3);
  checki "min" 3 (Time_ns.min 5 3)

(* --- RNG --- *)

let test_rng_deterministic () =
  let a = Rng.create 1 and b = Rng.create 1 in
  for _ = 1 to 100 do
    checki "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_seeds_differ () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let xs = List.init 20 (fun _ -> Rng.int a 1_000_000) in
  let ys = List.init 20 (fun _ -> Rng.int b 1_000_000) in
  checkb "different streams" true (xs <> ys)

let test_rng_int_range () =
  let rng = Rng.create 3 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 7 in
    checkb "in range" true (v >= 0 && v < 7)
  done

let test_rng_float_range () =
  let rng = Rng.create 4 in
  for _ = 1 to 10_000 do
    let v = Rng.float rng in
    checkb "in [0,1)" true (v >= 0.0 && v < 1.0)
  done

let test_rng_bernoulli_extremes () =
  let rng = Rng.create 5 in
  for _ = 1 to 100 do
    checkb "p=0 never" false (Rng.bernoulli rng 0.0)
  done;
  for _ = 1 to 100 do
    checkb "p=1 always" true (Rng.bernoulli rng 1.0)
  done

let test_rng_bernoulli_rate () =
  let rng = Rng.create 6 in
  let hits = ref 0 in
  let n = 100_000 in
  for _ = 1 to n do
    if Rng.bernoulli rng 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  checkb "close to 0.3" true (Float.abs (rate -. 0.3) < 0.01)

let test_rng_split_independent () =
  let a = Rng.create 7 in
  let b = Rng.split a in
  let xs = List.init 20 (fun _ -> Rng.int a 1_000_000) in
  let ys = List.init 20 (fun _ -> Rng.int b 1_000_000) in
  checkb "split streams differ" true (xs <> ys)

let test_rng_shuffle_permutation () =
  let rng = Rng.create 8 in
  let a = Array.init 100 Fun.id in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check (Alcotest.array Alcotest.int) "is a permutation"
    (Array.init 100 Fun.id) sorted

let test_rng_invalid () =
  let rng = Rng.create 9 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0));
  Alcotest.check_raises "empty choose" (Invalid_argument "Rng.choose: empty array")
    (fun () -> ignore (Rng.choose rng [||]))

(* The streams are pinned: the first 16 draws of each kind, for two
   seeds, captured from the boxed-[int64] generator this one replaced.
   Any change to the state representation must reproduce them. *)
let pinned_int64 =
  [
    ( 42,
      [
        -7450291807549245335L; 2958219263312191191L; 3069497704473277141L;
        885919558081284366L; -353919125003956057L; 4337243929683858115L;
        5152897204343404489L; 2820384354626331986L; -4414613273027670835L;
        4497339579670313847L; -4345211542386587372L; -2098947937136382188L;
        -1845073873574444724L; 1482940387686048950L; 700186318760072552L;
        -2693559979281954569L;
      ] );
    ( 7,
      [
        -8774268681488515761L; 5573481420429128725L; -1088427420777695408L;
        -2154039811576856741L; -6203870116991129099L; 6356872459430266104L;
        7350602455885783398L; -7292045186689573744L; -3479047613037813530L;
        1613712488631262144L; -1615696404408695004L; 3139284951441052361L;
        -109919309315196042L; -7876530903962661552L; 4681804011161508313L;
        -3662424523995147477L;
      ] );
  ]

let pinned_float =
  [
    ( 42,
      [
        0x1.31367e26140c7p-1; 0x1.486da5f92b86cp-3; 0x1.54c85f31d00d8p-3;
        0x1.896d649de031p-5; 0x1.f62d40dca5d82p-1; 0x1.e187e2fea8348p-3;
        0x1.1e0b12d313f7cp-2; 0x1.392025051c93p-3; 0x1.8578493c50ec1p-1;
        0x1.f34e1428846dcp-3; 0x1.87656a3f8c3d9p-1; 0x1.c5be13f199e4dp-1;
        0x1.ccc9f62cda7b8p-1; 0x1.494766cf71b6p-4; 0x1.36f1f7e8c90ap-5;
        0x1.b53d1af09b619p-1;
      ] );
    ( 7,
      [
        0x1.0c77123e98157p-1; 0x1.3563ef4a0babcp-2; 0x1.e1ca420e19806p-1;
        0x1.c436a0686dd2fp-1; 0x1.53ced9ff082a5p-1; 0x1.60e097496b38p-2;
        0x1.980a57f430be8p-2; 0x1.359ae713428abp-1; 0x1.9f6fe141e86bcp-1;
        0x1.6650ef5667a58p-4; 0x1.d327c95c6cbp-1; 0x1.5c87d83edafc8p-3;
        0x1.fcf2f9f0ec9f7p-1; 0x1.2561e1bfbdd69p-1; 0x1.03e46fc5851f6p-2;
        0x1.9a58e8997d2e2p-1;
      ] );
  ]

let pinned_int1000 =
  [
    ( 42,
      [
        236; 595; 570; 183; 875; 57; 244; 993; 486; 923; 218; 810; 542; 475;
        276; 619;
      ] );
    ( 7,
      [
        23; 362; 200; 533; 354; 52; 699; 32; 139; 72; 402; 180; 883; 128;
        156; 165;
      ] );
  ]

let test_rng_pinned_streams () =
  let draws seed f =
    let r = Rng.create seed in
    List.init 16 (fun _ -> f r)
  in
  List.iter
    (fun (seed, want) ->
      check Alcotest.(list int64) "int64 draws" want (draws seed Rng.int64))
    pinned_int64;
  List.iter
    (fun (seed, want) ->
      check Alcotest.(list (float 0.0)) "float draws" want (draws seed Rng.float))
    pinned_float;
  List.iter
    (fun (seed, want) ->
      check Alcotest.(list int) "int 1000 draws" want
        (draws seed (fun r -> Rng.int r 1000)))
    pinned_int1000

(* [int] and [bernoulli] return immediates, so they allocate nothing in
   every build profile. [float] returns a float: across a module
   boundary it is boxed unless the call is inlined, which the dev
   profile's -opaque forbids, so there one box (2 words) per draw is
   the expected cost. The loops are written out, not passed as
   closures, so the float accumulator stays unboxed. *)
let test_rng_draws_allocation_free () =
  let r = Rng.create 42 in
  let n = 100_000 in
  let zero = Alcotest.float 0.0 in
  let sink = ref 0 in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    sink := !sink + Rng.int r 1000
  done;
  check zero "int" 0.0 (Gc.minor_words () -. w0);
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    if Rng.bernoulli r 0.5 then incr sink
  done;
  check zero "bernoulli" 0.0 (Gc.minor_words () -. w0);
  let acc = ref 0.0 in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    acc := !acc +. Rng.float r
  done;
  let words = Gc.minor_words () -. w0 in
  if Build_profile.name = "dev" then
    checkb "float: at most the boxed result" true
      (words <= 2.0 *. float_of_int n)
  else check zero "float" 0.0 words;
  ignore (Sys.opaque_identity (!sink, !acc))

(* --- Heap ---

   The engine's binary heap, driven as a priority queue: a typed event
   at key [k] carrying payload [v] in its [a] operand. Dispatch order
   must be a stable sort by key (FIFO among ties). *)

let pq ?reserve () =
  let eng = Engine.create ?reserve () in
  let out = ref [] in
  Engine.set_handler eng (fun ~code:_ ~a ~b:_ -> out := (Engine.now eng, a) :: !out);
  let push k v = Engine.schedule_event eng ~at:k ~code:0 ~a:v ~b:0 in
  let drain () =
    Engine.run eng;
    let r = List.rev !out in
    out := [];
    r
  in
  (eng, push, drain)

let kv = Alcotest.(list (pair int int))

let test_heap_ordering () =
  let _, push, drain = pq () in
  let rng = Rng.create 10 in
  let keys = List.init 1000 (fun _ -> Rng.int rng 10_000) in
  List.iter (fun k -> push k k) keys;
  check (Alcotest.list Alcotest.int) "sorted ascending" (List.sort compare keys)
    (List.map fst (drain ()))

let test_heap_fifo_ties () =
  let eng = Engine.create () in
  let log = ref [] in
  List.iter
    (fun s -> Engine.schedule eng ~at:5 (fun () -> log := s :: !log))
    [ "a"; "b"; "c" ];
  Engine.run eng;
  check (Alcotest.list Alcotest.string) "insertion order among ties"
    [ "a"; "b"; "c" ] (List.rev !log)

let test_heap_empty () =
  let eng = Engine.create () in
  checki "pending" 0 (Engine.pending eng);
  checki "next_at of empty" max_int (Engine.next_at eng);
  Engine.run eng;
  checki "run on empty executes nothing" 0 (Engine.executed eng);
  Engine.run_until eng ~limit:7;
  checki "run_until on empty still advances the clock" 7 (Engine.now eng);
  checki "nothing executed" 0 (Engine.executed eng)

let test_heap_interleaved () =
  let eng, push, drain = pq () in
  push 3 3;
  push 1 1;
  checki "peek min" 1 (Engine.next_at eng);
  Engine.run_until eng ~limit:1;
  checki "one popped" 1 (Engine.pending eng);
  push 2 2;
  Engine.run_until eng ~limit:2;
  checki "next after 2" 3 (Engine.next_at eng);
  check kv "pops in key order" [ (1, 1); (2, 2); (3, 3) ] (drain ())

(* Tie order depends only on scheduling order, so it stays FIFO after
   the queue has drained and refilled. *)
let test_heap_ties_after_drain () =
  let _, push, drain = pq () in
  push 5 0;
  push 5 1;
  ignore (drain ());
  List.iter (push 7) [ 10; 11; 12 ];
  check kv "FIFO order after a drain" [ (7, 10); (7, 11); (7, 12) ] (drain ())

let test_heap_reserve () =
  (* Growth from a one-record queue and a pre-sized one must both stay
     sorted and keep every element across the doubling copies. *)
  List.iter
    (fun reserve ->
      let _, push, drain = pq ~reserve () in
      for i = 511 downto 0 do
        push i i
      done;
      List.iteri (fun i (k, _) -> checki "sorted" i k) (drain ()))
    [ 1; 512 ];
  let _, push, drain = pq ~reserve:1 () in
  push 2 20;
  push 1 10;
  push 3 30;
  check kv "survives growth" [ (1, 10); (2, 20); (3, 30) ] (drain ())

let heap_qcheck =
  QCheck.Test.make ~name:"heap pops sorted" ~count:200
    QCheck.(list (int_bound 100_000))
    (fun keys ->
      let _, push, drain = pq () in
      List.iter (fun k -> push k 0) keys;
      List.map fst (drain ()) = List.sort compare keys)

(* Pops must equal a *stable* sort by key: payloads tag each push with
   its position, so any tie broken out of insertion order shows up as a
   payload mismatch even though the key sequence looks fine. *)
let heap_qcheck_stable =
  QCheck.Test.make ~name:"heap pop order = stable sort by key" ~count:200
    QCheck.(list (int_bound 50))
    (fun keys ->
      let _, push, drain = pq () in
      List.iteri (fun i k -> push k i) keys;
      drain ()
      = List.stable_sort
          (fun (k1, _) (k2, _) -> compare k1 k2)
          (List.mapi (fun i k -> (k, i)) keys))

let heap_qcheck_fifo_ties =
  QCheck.Test.make ~name:"heap FIFO among equal keys" ~count:200
    QCheck.(pair (int_bound 1000) small_nat)
    (fun (key, n) ->
      let eng, push, drain = pq () in
      for i = 0 to n - 1 do
        push key i
      done;
      drain () = List.init n (fun i -> (key, i)) && Engine.pending eng = 0)

(* Random pushes interleaved with run_until windows, against a
   stable-sorted reference list: after every step the dispatched
   prefix, [pending] and [next_at] must agree with the model. *)
let heap_qcheck_interleaved =
  let op =
    QCheck.(
      oneof
        [
          map (fun k -> `Push k) (int_bound 20);
          map (fun d -> `Window d) (int_bound 8);
        ])
  in
  QCheck.Test.make ~name:"heap interleaved schedule/run_until = model"
    ~count:300 (QCheck.list op) (fun ops ->
      let eng = Engine.create ~reserve:1 () in
      let out = ref [] in
      Engine.set_handler eng (fun ~code:_ ~a ~b:_ ->
          out := (Engine.now eng, a) :: !out);
      let model = ref [] and popped = ref [] and next = ref 0 in
      let agrees () =
        !out = !popped
        && Engine.pending eng = List.length !model
        && Engine.next_at eng = (match !model with [] -> max_int | (k, _) :: _ -> k)
      in
      List.for_all
        (fun o ->
          (match o with
          | `Push d ->
              let k = Engine.now eng + d in
              Engine.schedule_event eng ~at:k ~code:0 ~a:!next ~b:0;
              model :=
                List.stable_sort
                  (fun (k1, _) (k2, _) -> compare k1 k2)
                  (!model @ [ (k, !next) ]);
              incr next
          | `Window d ->
              let limit = Engine.now eng + d in
              Engine.run_until eng ~limit;
              let due, rest = List.partition (fun (k, _) -> k <= limit) !model in
              popped := List.rev_append due !popped;
              model := rest);
          agrees ())
        ops
      &&
      (Engine.run eng;
       !out = List.rev_append !model !popped))

(* --- Engine --- *)

let test_engine_order () =
  let eng = Engine.create () in
  let log = ref [] in
  Engine.schedule eng ~at:30 (fun () -> log := 30 :: !log);
  Engine.schedule eng ~at:10 (fun () -> log := 10 :: !log);
  Engine.schedule eng ~at:20 (fun () -> log := 20 :: !log);
  Engine.run eng;
  check (Alcotest.list Alcotest.int) "timestamp order" [ 10; 20; 30 ]
    (List.rev !log);
  checki "clock at last event" 30 (Engine.now eng)

let test_engine_nested_scheduling () =
  let eng = Engine.create () in
  let log = ref [] in
  Engine.schedule eng ~at:10 (fun () ->
      log := `A :: !log;
      Engine.schedule_after eng ~delay:5 (fun () -> log := `B :: !log));
  Engine.schedule eng ~at:12 (fun () -> log := `C :: !log);
  Engine.run eng;
  checkb "nested event runs in order" true (List.rev !log = [ `A; `C; `B ])

let test_engine_past_rejected () =
  let eng = Engine.create () in
  Engine.schedule eng ~at:10 (fun () ->
      Alcotest.check_raises "past" (Invalid_argument "Engine.schedule: event in the past")
        (fun () -> Engine.schedule eng ~at:5 (fun () -> ())));
  Engine.run eng

let test_engine_run_until () =
  let eng = Engine.create () in
  let log = ref [] in
  List.iter
    (fun t -> Engine.schedule eng ~at:t (fun () -> log := t :: !log))
    [ 10; 20; 30; 40 ];
  Engine.run_until eng ~limit:25;
  check (Alcotest.list Alcotest.int) "only events <= limit" [ 10; 20 ]
    (List.rev !log);
  checki "clock advanced to limit" 25 (Engine.now eng);
  checki "pending remain" 2 (Engine.pending eng);
  Engine.run_until eng ~limit:100;
  checki "drained" 0 (Engine.pending eng);
  checki "executed total" 4 (Engine.executed eng)

(* The reference scheduler: a list kept stably sorted by timestamp, so
   ties dispatch in scheduling order. Events are closures; typed events
   become closures over the same handler. *)
module Model = struct
  type t = {
    mutable q : (int * (unit -> unit)) list;
    mutable now : int;
    mutable executed : int;
  }

  let create () = { q = []; now = 0; executed = 0 }

  let schedule m ~at f =
    m.q <- List.stable_sort (fun (a, _) (b, _) -> compare a b) (m.q @ [ (at, f) ])

  let rec drain m ~limit =
    match m.q with
    | (at, f) :: rest when at <= limit ->
        m.q <- rest;
        m.now <- at;
        m.executed <- m.executed + 1;
        f ();
        drain m ~limit
    | _ -> ()

  let run_until m ~limit =
    drain m ~limit;
    m.now <- max m.now limit
end

(* A queue under test, seen through the operations the oracle drives. *)
type queue = {
  now : unit -> int;
  typed : at:int -> code:int -> a:int -> b:int -> unit;
  thunk : at:int -> (unit -> unit) -> unit;
  run_until : limit:int -> unit;
  run : unit -> unit;
  counts : unit -> int * int;  (** executed, pending *)
}

let engine_queue on_typed =
  let eng = Engine.create ~reserve:1 () in
  Engine.set_handler eng on_typed;
  {
    now = (fun () -> Engine.now eng);
    typed = (fun ~at ~code ~a ~b -> Engine.schedule_event eng ~at ~code ~a ~b);
    thunk = (fun ~at f -> Engine.schedule eng ~at f);
    run_until = (fun ~limit -> Engine.run_until eng ~limit);
    run = (fun () -> Engine.run eng);
    counts = (fun () -> (Engine.executed eng, Engine.pending eng));
  }

let model_queue on_typed =
  let m = Model.create () in
  {
    now = (fun () -> m.Model.now);
    typed =
      (fun ~at ~code ~a ~b -> Model.schedule m ~at (fun () -> on_typed ~code ~a ~b));
    thunk = (fun ~at f -> Model.schedule m ~at f);
    run_until = (fun ~limit -> Model.run_until m ~limit);
    run = (fun () -> Model.drain m ~limit:max_int);
    counts = (fun () -> (m.Model.executed, List.length m.Model.q));
  }

(* The engine's oracle: a random schedule played on the engine and on
   the model must give byte-identical traces. The delay table yields
   equal-timestamp ties (0, and repeated delays from the same clock)
   next to near and far futures; typed and thunk events interleave;
   first-generation typed events respawn from inside the handler with
   delay 0-2, and every thunk spawns a zero-delay typed event; and
   run_until windows interleave with scheduling, so events are queued
   on a parked, non-empty queue. *)
let engine_model_oracle =
  let delays = [| 0; 0; 1; 3; 12; 900; 16_384; 1_000_000; 5_000_000 |] in
  let op =
    QCheck.(
      frequency
        [
          ( 4,
            map
              (fun (d, code, a) -> `Sched (delays.(d), code, a))
              (triple (int_bound (Array.length delays - 1)) (int_bound 3) small_nat)
          );
          (1, map (fun w -> `Window w) (int_bound 20_000));
        ])
  in
  QCheck.Test.make ~name:"engine trace = stable-sort model" ~count:200
    (QCheck.list op) (fun ops ->
      let play make =
        let b = Buffer.create 1024 in
        let addf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
        let self = ref None in
        let on_typed ~code ~a ~b:gen =
          let q = Option.get !self in
          let now = q.now () in
          addf "e t=%d c=%d a=%d\n" now code a;
          if gen = 0 then q.typed ~at:(now + (a mod 3)) ~code ~a ~b:1
        in
        let q = make on_typed in
        self := Some q;
        List.iter
          (function
            | `Sched (delay, code, a) ->
                let at = q.now () + delay in
                if code = 3 then
                  q.thunk ~at (fun () ->
                      let now = q.now () in
                      addf "f t=%d a=%d\n" now a;
                      q.typed ~at:now ~code:9 ~a ~b:1)
                else q.typed ~at ~code ~a ~b:0
            | `Window w -> q.run_until ~limit:(q.now () + w))
          ops;
        q.run ();
        let executed, pending = q.counts () in
        addf "now=%d executed=%d pending=%d\n" (q.now ()) executed pending;
        Buffer.contents b
      in
      String.equal (play engine_queue) (play model_queue))

(* --- Distributions --- *)

let test_exponential_mean () =
  let rng = Rng.create 11 in
  let n = 50_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Dist.exponential rng ~mean:42.0
  done;
  let mean = !sum /. float_of_int n in
  checkb "mean close to 42" true (Float.abs (mean -. 42.0) < 1.0)

let test_zipf_skew () =
  let rng = Rng.create 12 in
  let z = Dist.Zipf.create ~n:100 ~alpha:1.2 in
  let counts = Array.make 101 0 in
  for _ = 1 to 50_000 do
    let r = Dist.Zipf.sample z rng in
    counts.(r) <- counts.(r) + 1
  done;
  checkb "rank 1 most popular" true (counts.(1) > counts.(2));
  checkb "rank 2 beats rank 50" true (counts.(2) > counts.(50));
  checkb "all in range" true
    (Array.for_all (fun c -> c >= 0) counts)

let test_empirical_validation () =
  Alcotest.check_raises "empty" (Invalid_argument "Empirical.create: empty knots")
    (fun () -> ignore (Dist.Empirical.create []));
  Alcotest.check_raises "not ending at 1"
    (Invalid_argument "Empirical.create: last probability must be 1.0")
    (fun () -> ignore (Dist.Empirical.create [ (1.0, 0.5) ]));
  Alcotest.check_raises "unsorted"
    (Invalid_argument "Empirical.create: probabilities not sorted") (fun () ->
      ignore (Dist.Empirical.create [ (1.0, 0.7); (2.0, 0.3); (3.0, 1.0) ]))

let test_empirical_bounds () =
  let rng = Rng.create 13 in
  let d = Dist.Empirical.create [ (10.0, 0.2); (100.0, 0.8); (1000.0, 1.0) ] in
  for _ = 1 to 10_000 do
    let v = Dist.Empirical.sample d rng in
    checkb "within knot range" true (v >= 10.0 && v <= 1000.0)
  done

let test_empirical_mean_close_to_sample_mean () =
  let rng = Rng.create 14 in
  let d = Dist.Empirical.create [ (10.0, 0.3); (100.0, 0.9); (500.0, 1.0) ] in
  let n = 100_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Dist.Empirical.sample d rng
  done;
  let sample_mean = !sum /. float_of_int n in
  let analytic = Dist.Empirical.mean d in
  checkb "analytic ~ sampled" true
    (Float.abs (sample_mean -. analytic) /. analytic < 0.05)

(* --- Stats --- *)

let test_summary () =
  let s = Stats.Summary.create () in
  List.iter (Stats.Summary.add s) [ 1.0; 2.0; 3.0; 4.0 ];
  checki "count" 4 (Stats.Summary.count s);
  check (Alcotest.float 1e-9) "mean" 2.5 (Stats.Summary.mean s);
  check (Alcotest.float 1e-9) "min" 1.0 (Stats.Summary.min s);
  check (Alcotest.float 1e-9) "max" 4.0 (Stats.Summary.max s);
  check (Alcotest.float 1e-9) "sum" 10.0 (Stats.Summary.sum s)

let test_summary_empty () =
  let s = Stats.Summary.create () in
  check (Alcotest.float 1e-9) "mean of empty" 0.0 (Stats.Summary.mean s);
  Alcotest.check_raises "min of empty" Not_found (fun () ->
      ignore (Stats.Summary.min s))

(* The int entry points record exactly what [add] records for the
   converted sample: [add_int n] is [float_of_int n], [add_ns ns] is
   [Time_ns.to_sec ns], bit for bit. *)
let test_stats_int_entry_points () =
  let exact = Alcotest.float 0.0 in
  let samples = [ 1; 999; 123_456_789; 42; 7_000_000_001 ] in
  let s_int = Stats.Summary.create () and s_ns = Stats.Summary.create () in
  let f_int = Stats.Summary.create () and f_ns = Stats.Summary.create () in
  let r_ns = Stats.Reservoir.create (Rng.create 18) in
  let r_f = Stats.Reservoir.create (Rng.create 18) in
  List.iter
    (fun n ->
      Stats.Summary.add_int s_int n;
      Stats.Summary.add f_int (float_of_int n);
      Stats.Summary.add_ns s_ns n;
      Stats.Summary.add f_ns (Time_ns.to_sec n);
      Stats.Reservoir.add_ns r_ns n;
      Stats.Reservoir.add r_f (Time_ns.to_sec n))
    samples;
  List.iter
    (fun (name, a, b) ->
      checki (name ^ " count") (Stats.Summary.count b) (Stats.Summary.count a);
      check exact (name ^ " sum") (Stats.Summary.sum b) (Stats.Summary.sum a);
      check exact (name ^ " mean") (Stats.Summary.mean b) (Stats.Summary.mean a);
      check exact (name ^ " min") (Stats.Summary.min b) (Stats.Summary.min a);
      check exact (name ^ " max") (Stats.Summary.max b) (Stats.Summary.max a))
    [ ("add_int", s_int, f_int); ("add_ns", s_ns, f_ns) ];
  check exact "reservoir mean" (Stats.Reservoir.mean r_f) (Stats.Reservoir.mean r_ns);
  check exact "reservoir p50"
    (Stats.Reservoir.percentile r_f 50.0)
    (Stats.Reservoir.percentile r_ns 50.0)

let test_reservoir_percentiles () =
  let r = Stats.Reservoir.create (Rng.create 15) in
  for i = 1 to 100 do
    Stats.Reservoir.add r (float_of_int i)
  done;
  check (Alcotest.float 1e-9) "p50" 50.0 (Stats.Reservoir.percentile r 50.0);
  check (Alcotest.float 1e-9) "p99" 99.0 (Stats.Reservoir.percentile r 99.0);
  check (Alcotest.float 1e-9) "p100" 100.0 (Stats.Reservoir.percentile r 100.0);
  check (Alcotest.float 1e-9) "mean" 50.5 (Stats.Reservoir.mean r)

let test_reservoir_capacity () =
  let r = Stats.Reservoir.create ~capacity:10 (Rng.create 16) in
  for i = 1 to 1000 do
    Stats.Reservoir.add r (float_of_int i)
  done;
  checki "sees all" 1000 (Stats.Reservoir.count r);
  (* Percentile still answerable from the sample. *)
  let p50 = Stats.Reservoir.percentile r 50.0 in
  checkb "p50 plausible" true (p50 > 0.0 && p50 <= 1000.0)

let test_reservoir_empty () =
  let r = Stats.Reservoir.create (Rng.create 17) in
  Alcotest.check_raises "empty percentile" Not_found (fun () ->
      ignore (Stats.Reservoir.percentile r 50.0));
  Alcotest.check (Alcotest.float 1e-9) "empty mean" 0.0 (Stats.Reservoir.mean r)

let test_rng_copy_divergence () =
  let a = Rng.create 21 in
  ignore (Rng.int a 10);
  let b = Rng.copy a in
  (* Copies continue the same stream... *)
  checki "same next draw" (Rng.int (Rng.copy a) 1_000_000) (Rng.int b 1_000_000)

let test_counter () =
  let c = Stats.Counter.create () in
  Stats.Counter.incr c "a" 2;
  Stats.Counter.incr c "a" 3;
  Stats.Counter.incr c "b" 1;
  checki "a" 5 (Stats.Counter.get c "a");
  checki "b" 1 (Stats.Counter.get c "b");
  checki "absent" 0 (Stats.Counter.get c "zzz");
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "to_list sorted"
    [ ("a", 5); ("b", 1) ]
    (Stats.Counter.to_list c)

let () =
  Alcotest.run "dessim"
    [
      ( "time",
        [
          Alcotest.test_case "units" `Quick test_time_units;
          Alcotest.test_case "serialization time" `Quick test_time_rate;
          Alcotest.test_case "arithmetic" `Quick test_time_arith;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_rng_seeds_differ;
          Alcotest.test_case "int range" `Quick test_rng_int_range;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "bernoulli extremes" `Quick test_rng_bernoulli_extremes;
          Alcotest.test_case "bernoulli rate" `Quick test_rng_bernoulli_rate;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "shuffle is permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "invalid arguments" `Quick test_rng_invalid;
          Alcotest.test_case "copy continues stream" `Quick test_rng_copy_divergence;
          Alcotest.test_case "pinned streams" `Quick test_rng_pinned_streams;
          Alcotest.test_case "draws allocation-free" `Quick
            test_rng_draws_allocation_free;
        ] );
      ( "heap",
        [
          Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "FIFO among ties" `Quick test_heap_fifo_ties;
          Alcotest.test_case "empty behavior" `Quick test_heap_empty;
          Alcotest.test_case "interleaved push/pop" `Quick test_heap_interleaved;
          Alcotest.test_case "ties stay FIFO after a drain" `Quick
            test_heap_ties_after_drain;
          Alcotest.test_case "reserve" `Quick test_heap_reserve;
          QCheck_alcotest.to_alcotest heap_qcheck;
          QCheck_alcotest.to_alcotest heap_qcheck_stable;
          QCheck_alcotest.to_alcotest heap_qcheck_fifo_ties;
          QCheck_alcotest.to_alcotest heap_qcheck_interleaved;
        ] );
      ( "engine",
        [
          Alcotest.test_case "event order (heap)" `Quick test_engine_order;
          Alcotest.test_case "nested scheduling (heap)" `Quick
            test_engine_nested_scheduling;
          Alcotest.test_case "past events rejected (heap)" `Quick
            test_engine_past_rejected;
          Alcotest.test_case "run_until (heap)" `Quick test_engine_run_until;
          QCheck_alcotest.to_alcotest engine_model_oracle;
        ] );
      ( "dist",
        [
          Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
          Alcotest.test_case "zipf skew" `Quick test_zipf_skew;
          Alcotest.test_case "empirical validation" `Quick test_empirical_validation;
          Alcotest.test_case "empirical bounds" `Quick test_empirical_bounds;
          Alcotest.test_case "empirical mean" `Quick test_empirical_mean_close_to_sample_mean;
        ] );
      ( "stats",
        [
          Alcotest.test_case "summary" `Quick test_summary;
          Alcotest.test_case "summary empty" `Quick test_summary_empty;
          Alcotest.test_case "reservoir percentiles" `Quick test_reservoir_percentiles;
          Alcotest.test_case "reservoir capacity" `Quick test_reservoir_capacity;
          Alcotest.test_case "reservoir empty" `Quick test_reservoir_empty;
          Alcotest.test_case "counter" `Quick test_counter;
          Alcotest.test_case "int entry points" `Quick test_stats_int_entry_points;
        ] );
    ]
