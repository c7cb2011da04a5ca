(* Dense-array store: VIPs are small dense integers (the simulator
   numbers VMs 0..num_vms-1), so the mapping is one flat lane indexed
   by VIP. Each cell is an [Addr.Pair] of (version, PIP), so [lookup]
   is one bounds check and one load, no hashing and no allocation; a
   version starts at 1, so a cell of 0 marks an absent entry. The lane
   doubles on demand so sparse test VIPs still work. *)

module Pair = Addr.Pair

type t = {
  mutable cells : int array; (* Pair (version, PIP); 0 = never installed *)
  mutable installed : int;
}

let create ?(initial_capacity = 1024) () =
  { cells = Array.make (max 1 initial_capacity) 0; installed = 0 }

let ensure t vip =
  let cap = Array.length t.cells in
  if vip >= cap then begin
    let ncap =
      let c = ref (2 * cap) in
      while vip >= !c do
        c := 2 * !c
      done;
      !c
    in
    let ncells = Array.make ncap 0 in
    Array.blit t.cells 0 ncells 0 cap;
    t.cells <- ncells
  end

let cell t vip = if vip < Array.length t.cells then t.cells.(vip) else 0

let install t vip pip =
  let vip = Addr.Vip.to_int vip in
  if vip lsr Pair.vip_bits <> 0 then
    invalid_arg "Mapping.install: VIP out of range";
  let old = cell t vip in
  (* Packing checks the PIP before anything is written. *)
  let c = Pair.pack (Pair.vip old + 1) (Addr.Pip.to_int pip) in
  ensure t vip;
  if old = 0 then t.installed <- t.installed + 1;
  t.cells.(vip) <- c

let placement t i =
  let c = t.cells.(i) in
  if c = 0 then raise Not_found else Pair.pip c

let lookup t vip =
  let c = cell t (Addr.Vip.to_int vip) in
  if c = 0 then raise Not_found else Addr.Pip.of_int (Pair.pip c)

let lookup_opt t vip =
  let c = cell t (Addr.Vip.to_int vip) in
  if c = 0 then None else Some (Addr.Pip.of_int (Pair.pip c))

let version t vip = Pair.vip (cell t (Addr.Vip.to_int vip))

let migrate t vip pip =
  if cell t (Addr.Vip.to_int vip) = 0 then raise Not_found
  else install t vip pip

let size t = t.installed

let iter t f =
  for vip = 0 to Array.length t.cells - 1 do
    let c = t.cells.(vip) in
    if c <> 0 then f (Addr.Vip.of_int vip) (Addr.Pip.of_int (Pair.pip c))
  done
