(* Accumulators keep their floats in all-float records, whose fields
   are stored unboxed: a [mutable x : float] field in a mixed record
   boxes a fresh float on every write. The [add_int]/[add_ns] entry
   points take ints, so no float crosses a module boundary (where it
   would be boxed at the call unless the caller inlines across
   modules) on the per-delivery path. *)

(* [Time_ns.to_sec], written out: seconds from integer nanoseconds. *)
let[@inline] sec_of_ns ns = float_of_int ns /. 1e9

module Summary = struct
  (* All-float: [count] is exact as a float below 2^53 samples. *)
  type t = {
    mutable count : float;
    mutable sum : float;
    mutable min : float;
    mutable max : float;
  }

  let create () =
    { count = 0.0; sum = 0.0; min = infinity; max = neg_infinity }

  let[@inline] add t x =
    t.count <- t.count +. 1.0;
    t.sum <- t.sum +. x;
    if x < t.min then t.min <- x;
    if x > t.max then t.max <- x

  let add_int t n = add t (float_of_int n)
  let add_ns t ns = add t (sec_of_ns ns)
  let count t = int_of_float t.count
  let mean t = if t.count = 0.0 then 0.0 else t.sum /. t.count
  let min t = if t.count = 0.0 then raise Not_found else t.min
  let max t = if t.count = 0.0 then raise Not_found else t.max
  let sum t = t.sum

  (* Exact and commutative: count/sum are additive, min/max associative
     (the empty-summary sentinels are the identities). *)
  let merge a b =
    {
      count = a.count +. b.count;
      sum = a.sum +. b.sum;
      min = Stdlib.min a.min b.min;
      max = Stdlib.max a.max b.max;
    }
end

module Reservoir = struct
  type acc = { mutable total : float }

  type t = {
    mutable data : float array;
    mutable size : int;
    mutable seen : int;
    sum : acc;
    capacity : int option;
    rng : Rng.t;
    mutable sorted : bool;
  }

  let create ?capacity rng =
    {
      data = [||];
      size = 0;
      seen = 0;
      sum = { total = 0.0 };
      capacity;
      rng;
      sorted = true;
    }

  let resize t ncap =
    let ndata = Array.make ncap 0.0 in
    Array.blit t.data 0 ndata 0 t.size;
    t.data <- ndata

  (* Make slot [i] (at most [size]) writable; the caller stores the
     sample itself, so the float is never passed (boxed) to a call. *)
  let claim t i =
    if i = t.size then begin
      if t.size = Array.length t.data then
        resize t (if t.size = 0 then 256 else t.size * 2);
      t.size <- t.size + 1
    end;
    t.sorted <- false

  let reserve t n =
    let cap = Array.length t.data in
    if t.size + n > cap then resize t (Stdlib.max (t.size + n) (2 * cap))

  let[@inline] store t i x =
    claim t i;
    t.data.(i) <- x

  let[@inline] add t x =
    t.seen <- t.seen + 1;
    t.sum.total <- t.sum.total +. x;
    match t.capacity with
    | None -> store t t.size x
    | Some cap ->
        if t.size < cap then store t t.size x
        else begin
          let j = Rng.int t.rng t.seen in
          if j < cap then store t j x
        end

  let add_ns t ns = add t (sec_of_ns ns)
  let count t = t.seen

  let mean t =
    if t.seen = 0 then 0.0 else t.sum.total /. float_of_int t.seen

  (* Only defined for unbounded reservoirs (capacity [None]), where the
     stored samples are exactly the observed samples: the merge is a
     concatenation, so count/sum/percentiles all match single-stream
     accounting regardless of argument order (percentile sorts). A
     capacity-bounded reservoir has no exact merge — subsampling is not
     closed under union — so that case is rejected rather than silently
     approximated. *)
  let merge a b =
    (match (a.capacity, b.capacity) with
    | None, None -> ()
    | _ -> invalid_arg "Stats.Reservoir.merge: bounded reservoir");
    let data = Array.make (Stdlib.max 1 (a.size + b.size)) 0.0 in
    Array.blit a.data 0 data 0 a.size;
    Array.blit b.data 0 data a.size b.size;
    {
      data;
      size = a.size + b.size;
      seen = a.seen + b.seen;
      sum = { total = a.sum.total +. b.sum.total };
      capacity = None;
      rng = a.rng;
      sorted = false;
    }

  let percentile t p =
    if t.size = 0 then raise Not_found;
    if not t.sorted then begin
      let sub = Array.sub t.data 0 t.size in
      Array.sort compare sub;
      Array.blit sub 0 t.data 0 t.size;
      t.sorted <- true
    end;
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int t.size)) in
    let idx = Stdlib.max 0 (Stdlib.min (t.size - 1) (rank - 1)) in
    t.data.(idx)
end

module Counter = struct
  type t = (string, int ref) Hashtbl.t

  let create () : t = Hashtbl.create 64

  let incr t key n =
    match Hashtbl.find_opt t key with
    | Some r -> r := !r + n
    | None -> Hashtbl.add t key (ref n)

  let get t key = match Hashtbl.find_opt t key with Some r -> !r | None -> 0

  let to_list t =
    Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
end
