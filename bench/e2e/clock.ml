(** Monotonic clock in nanoseconds; allocation-free. *)
external now_ns : unit -> (int[@untagged])
  = "e2e_clock_ns_byte" "e2e_clock_ns"
[@@noalloc]

let seconds_since t0 = float_of_int (now_ns () - t0) /. 1e9
