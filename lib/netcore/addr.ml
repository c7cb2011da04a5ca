let pp_quad ~base ppf i =
  Format.fprintf ppf "%d.%d.%d.%d" base
    ((i lsr 16) land 0xff)
    ((i lsr 8) land 0xff)
    (i land 0xff)

module Vip = struct
  type t = int

  let of_int i =
    if i < 0 then invalid_arg "Vip.of_int: negative";
    i

  let to_int t = t
  let equal (a : t) b = a = b
  let compare (a : t) (b : t) = Stdlib.compare a b
  let hash (t : t) = t
  let pp = pp_quad ~base:10
end

module Pip = struct
  type t = int

  let of_int i =
    if i < 0 then invalid_arg "Pip.of_int: negative";
    i

  let to_int t = t
  let equal (a : t) b = a = b
  let compare (a : t) (b : t) = Stdlib.compare a b
  let hash (t : t) = t
  let none = max_int
  let is_none t = t = max_int
  let pp ppf t = if is_none t then Format.pp_print_string ppf "<none>" else pp_quad ~base:192 ppf t
end

module Pair = struct
  let vip_bits = 32
  let pip_bits = 29
  let pip_mask = (1 lsl pip_bits) - 1
  let none = -1

  (* One test covers both ranges and negative inputs: [lsr] moves a
     sign bit into the tested high bits. *)
  let[@inline] pack vip pip =
    if (vip lsr vip_bits) lor (pip lsr pip_bits) <> 0 then
      invalid_arg "Addr.Pair.pack: VIP or PIP out of range";
    (vip lsl pip_bits) lor pip

  let[@inline] vip w = w asr pip_bits
  let[@inline] pip w = w land pip_mask
end
