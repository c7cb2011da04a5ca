(* The first [n] keys other than 0 whose line in every way of a
   [ways] x [sub] access-bit table is key 0's line (way [w] hashes the
   key xor [w * 0x27220A95], as [Switchv2p.Cache] does): inserting them
   must fill another way or evict. *)
let keys ~ways ~sub n =
  let lines v =
    List.init ways (fun w -> Switchv2p.Cache.mix (v lxor (w * 0x27220A95)) mod sub)
  in
  let target = lines 0 in
  let rec go v acc =
    if List.length acc = n then List.rev acc
    else if v > 1_000_000 then Alcotest.fail "not enough collisions"
    else go (v + 1) (if lines v = target then v :: acc else acc)
  in
  go 1 []
