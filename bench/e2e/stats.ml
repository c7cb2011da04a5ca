(* Order statistics over trials. Quartiles follow Python's
   [statistics.quantiles(xs, n=4)] (the "exclusive" method), so the
   spreads printed here match what a reader recomputes from the raw
   values. *)

type summary = { median : float; q1 : float; q3 : float; n : int }

let sorted xs = Array.of_list (List.sort Float.compare xs)

let median_of (a : float array) =
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Cut point [i] of [parts] equal-probability intervals. *)
let quantile (a : float array) ~parts i =
  let n = Array.length a in
  if n = 1 then a.(0)
  else
    let m = n + 1 in
    let j = max 1 (min (n - 1) (i * m / parts)) in
    let delta = float_of_int ((i * m) - (j * parts)) in
    let parts = float_of_int parts in
    ((a.(j - 1) *. (parts -. delta)) +. (a.(j) *. delta)) /. parts

let median xs = median_of (sorted xs)

let summarize = function
  | [] -> invalid_arg "Stats.summarize: no samples"
  | xs ->
      let a = sorted xs in
      {
        median = median_of a;
        q1 = quantile a ~parts:4 1;
        q3 = quantile a ~parts:4 3;
        n = Array.length a;
      }

(* Interquartile range as a share of the median. *)
let spread s = if s.median = 0.0 then 0.0 else (s.q3 -. s.q1) /. Float.abs s.median
