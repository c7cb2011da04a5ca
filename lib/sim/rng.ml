(* The 64-bit state lives unboxed in an 8-byte buffer. A
   [{ mutable state : int64 }] record boxes a fresh Int64 on every
   write (about 8 words per draw), and the learning-packet coin is
   drawn once per resolved packet at a gateway-ToR. The accessors are
   the compiler's own primitives (what [Bytes.get/set_int64_ne] are
   built on), so they compile to plain loads and stores in every build
   profile, with or without cross-module inlining; with [mix64] and
   [next] inlined the Int64 arithmetic of a draw stays in registers:
   [int], [float] and [bernoulli] allocate nothing. The buffer is only
   ever read back through the same accessor, so its byte order is
   irrelevant. *)

type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let of_state s =
  let t = Bytes.create 8 in
  set64 t 0 s;
  t

let create seed = of_state (mix64 (Int64.of_int seed))

let[@inline] next t =
  let s = Int64.add (get64 t 0) golden_gamma in
  set64 t 0 s;
  mix64 s

let split t = of_state (next t)
let copy t = Bytes.copy t
let int64 t = next t

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection-free for our purposes: 63 usable bits dwarf any bound we
     use, so modulo bias is negligible; use the top bits for quality. *)
  let v = Int64.to_int (Int64.shift_right_logical (next t) 1) land max_int in
  v mod bound

let[@inline] float t =
  let v = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  v /. 9007199254740992.0 (* 2^53 *)

let bool t = Int64.to_int (next t) land 1 <> 0
let bernoulli t p = float t < p

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let choose t a =
  if Array.length a = 0 then invalid_arg "Rng.choose: empty array";
  a.(int t (Array.length a))
