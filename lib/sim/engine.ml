(* One scheduler: a binary heap of fixed-stride records interleaved in
   ONE unboxed int array: slot i occupies ev.[stride*i .. stride*i+4]
   as (key, seq, code, a, b). Interleaving matters: a heap node is then
   a single cache line, where parallel per-field arrays cost five cache
   touches per node visited during a sift. O(log n) per operation.

   Events execute in exactly (key, seq) order — FIFO among timestamp
   ties, across both event forms — so transcripts are deterministic
   (the golden tests and the QCheck model test in test_dessim.ml
   enforce this).

   Closures never enter the queue: a thunk event stores its closure in
   a free-listed side table and queues the slot index as an operand.
   Keeping the queue all-int means sifting performs no pointer stores,
   so the hot path never runs the GC write barrier ([caml_modify]) —
   which profiling showed dominating a heap with an in-line closure
   lane. *)

type handler = code:int -> a:int -> b:int -> unit

type sched = Heap

(* Codes are >= 0 for typed events; [thunk_code] marks closure events
   (whose [a] operand is the thunk-table slot). *)
let thunk_code = -1

let stride = 5

let nop () = ()

let sched_name Heap = "heap"

let no_handler ~code ~a:_ ~b:_ =
  invalid_arg
    (Printf.sprintf
       "Engine: typed event %d scheduled but no handler installed" code)

type t = {
  mutable next_seq : int;
  mutable clock : Time_ns.t;
  mutable executed : int;
  mutable handler : handler;
  (* Binary heap: stride fields per event, see above. *)
  mutable ev : int array;
  mutable heap_size : int;
  (* Side table for thunk events: slot -> closure, plus a stack of free
     slots. Both arrays grow together, so [thunk_free_top <= thunk_len
     <= capacity] always holds. *)
  mutable thunks : (unit -> unit) array;
  mutable thunk_len : int;
  mutable thunk_free : int array;
  mutable thunk_free_top : int;
  mutable thunks_scheduled : int;
}

let create ?(reserve = 4096) () =
  let cap = max reserve 1 in
  {
    next_seq = 0;
    clock = Time_ns.zero;
    executed = 0;
    handler = no_handler;
    ev = Array.make (stride * cap) 0;
    heap_size = 0;
    thunks = Array.make 64 nop;
    thunk_len = 0;
    thunk_free = Array.make 64 0;
    thunk_free_top = 0;
    thunks_scheduled = 0;
  }

let now t = t.clock
let set_handler t h = t.handler <- h
let sched _ = Heap

let thunk_grow t =
  let cap = Array.length t.thunks in
  let ncap = cap * 2 in
  let nthunks = Array.make ncap nop in
  Array.blit t.thunks 0 nthunks 0 t.thunk_len;
  t.thunks <- nthunks;
  let nfree = Array.make ncap 0 in
  Array.blit t.thunk_free 0 nfree 0 t.thunk_free_top;
  t.thunk_free <- nfree

let thunk_store t f =
  let slot =
    if t.thunk_free_top > 0 then begin
      t.thunk_free_top <- t.thunk_free_top - 1;
      t.thunk_free.(t.thunk_free_top)
    end
    else begin
      if t.thunk_len = Array.length t.thunks then thunk_grow t;
      let s = t.thunk_len in
      t.thunk_len <- s + 1;
      s
    end
  in
  t.thunks.(slot) <- f;
  t.thunks_scheduled <- t.thunks_scheduled + 1;
  slot

(* --- binary heap -------------------------------------------------------

   The sift loops use unsafe array access, applied directly so the
   compiler emits the specialized inline load/store (an aliased
   [Array.unsafe_get] degrades to the generic out-of-line primitive).
   Every index is [stride * h + f] with [h < t.heap_size <=
   length/stride] and [f < stride], maintained by the heap shape
   invariant — the bounds checks were pure overhead on the hottest
   loop in the simulator. The rest of the build keeps its bounds
   checks, which cost nothing measurable; checking these two loops
   too grew bench/e2e's run_s by 11-24% across its four
   workloads (median of 10 alternating pairs, 2-core VM).

   The [int array] annotations on the helpers that take the record
   array as a parameter are load-bearing: left unannotated the
   parameter generalizes to ['a array] and every key comparison
   compiles to a polymorphic-compare C call (measured 5x slower on
   a scheduler-only loop). *)

(* Sift up from record slot [idx], moving later events down into the
   hole. *)
let sift_up (ev : int array) idx ~at ~seq ~code ~a ~b =
  let i = ref (stride * idx) in
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = stride * (((!i / stride) - 1) / 2) in
    let pk = Array.unsafe_get ev parent in
    if at < pk || (at = pk && seq < Array.unsafe_get ev (parent + 1)) then begin
      Array.unsafe_set ev !i pk;
      Array.unsafe_set ev (!i + 1) (Array.unsafe_get ev (parent + 1));
      Array.unsafe_set ev (!i + 2) (Array.unsafe_get ev (parent + 2));
      Array.unsafe_set ev (!i + 3) (Array.unsafe_get ev (parent + 3));
      Array.unsafe_set ev (!i + 4) (Array.unsafe_get ev (parent + 4));
      i := parent
    end
    else continue := false
  done;
  Array.unsafe_set ev !i at;
  Array.unsafe_set ev (!i + 1) seq;
  Array.unsafe_set ev (!i + 2) code;
  Array.unsafe_set ev (!i + 3) a;
  Array.unsafe_set ev (!i + 4) b

(* Remove the root of an [n]-record heap: re-insert the last element
   from the top, moving earlier children up into the hole. The caller
   reads the root fields before calling and decrements its count
   after. *)
let sift_delete_min (ev : int array) n =
  let n = n - 1 in
  let last = stride * n in
  let key = Array.unsafe_get ev last
  and seq = Array.unsafe_get ev (last + 1)
  and code = Array.unsafe_get ev (last + 2)
  and a = Array.unsafe_get ev (last + 3)
  and b = Array.unsafe_get ev (last + 4) in
  if n > 0 then begin
    let sn = stride * n in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + stride in
      if l >= sn then continue := false
      else begin
        let r = l + stride in
        let c =
          if
            r < sn
            && (Array.unsafe_get ev r < Array.unsafe_get ev l
               || (Array.unsafe_get ev r = Array.unsafe_get ev l
                  && Array.unsafe_get ev (r + 1) < Array.unsafe_get ev (l + 1))
               )
          then r
          else l
        in
        let ck = Array.unsafe_get ev c in
        if ck < key || (ck = key && Array.unsafe_get ev (c + 1) < seq) then begin
          Array.unsafe_set ev !i ck;
          Array.unsafe_set ev (!i + 1) (Array.unsafe_get ev (c + 1));
          Array.unsafe_set ev (!i + 2) (Array.unsafe_get ev (c + 2));
          Array.unsafe_set ev (!i + 3) (Array.unsafe_get ev (c + 3));
          Array.unsafe_set ev (!i + 4) (Array.unsafe_get ev (c + 4));
          i := c
        end
        else continue := false
      end
    done;
    Array.unsafe_set ev !i key;
    Array.unsafe_set ev (!i + 1) seq;
    Array.unsafe_set ev (!i + 2) code;
    Array.unsafe_set ev (!i + 3) a;
    Array.unsafe_set ev (!i + 4) b
  end

let heap_grow t =
  let nev = Array.make (2 * Array.length t.ev) 0 in
  Array.blit t.ev 0 nev 0 (stride * t.heap_size);
  t.ev <- nev

let heap_push t ~at ~seq ~code ~a ~b =
  if stride * t.heap_size = Array.length t.ev then heap_grow t;
  let n = t.heap_size in
  t.heap_size <- n + 1;
  sift_up t.ev n ~at ~seq ~code ~a ~b

let heap_remove_min t =
  let n = t.heap_size in
  t.heap_size <- n - 1;
  sift_delete_min t.ev n

(* --- enqueue ---------------------------------------------------------- *)

let enqueue t ~at ~code ~a ~b =
  if at < t.clock then invalid_arg "Engine.schedule: event in the past";
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  heap_push t ~at ~seq ~code ~a ~b

let schedule t ~at f =
  (* Validate before storing the thunk so a rejected schedule does not
     leak a table slot. *)
  if at < t.clock then invalid_arg "Engine.schedule: event in the past";
  enqueue t ~at ~code:thunk_code ~a:(thunk_store t f) ~b:0

let schedule_after t ~delay f = schedule t ~at:(Time_ns.add t.clock delay) f

let schedule_event t ~at ~code ~a ~b =
  if code < 0 then invalid_arg "Engine.schedule_event: negative code";
  enqueue t ~at ~code ~a ~b

let schedule_event_after t ~delay ~code ~a ~b =
  schedule_event t ~at:(Time_ns.add t.clock delay) ~code ~a ~b

(* --- dispatch --------------------------------------------------------- *)

let exec_thunk t slot =
  let f = t.thunks.(slot) in
  t.thunks.(slot) <- nop;
  t.thunk_free.(t.thunk_free_top) <- slot;
  t.thunk_free_top <- t.thunk_free_top + 1;
  f ()

let heap_step t =
  let ev = t.ev in
  let at = ev.(0) in
  let code = ev.(2) in
  let a = ev.(3) in
  let b = ev.(4) in
  heap_remove_min t;
  t.clock <- at;
  t.executed <- t.executed + 1;
  if code >= 0 then t.handler ~code ~a ~b else exec_thunk t a

let run t =
  while t.heap_size > 0 do
    heap_step t
  done

let run_until t ~limit =
  (* Int comparison directly on the root key: the old polymorphic [>]
     ran the generic comparison once per event. *)
  while t.heap_size > 0 && t.ev.(0) <= limit do
    heap_step t
  done;
  t.clock <- Time_ns.max t.clock limit

let pending t = t.heap_size
let executed t = t.executed
let thunks_scheduled t = t.thunks_scheduled

(* Earliest pending timestamp, or [max_int] when the queue is empty.
   Used by the domain-sharded runtime to agree on the next conservative
   window — never on the single-shard dispatch path. *)
let next_at t = if t.heap_size = 0 then max_int else t.ev.(0)
