module Flow = Netcore.Flow
module Vip = Netcore.Addr.Vip
module Pip = Netcore.Addr.Pip
module Resources = P4model.Resources

(* Cache-geometry frontier: hit rate vs. actual SRAM bits, per
   geometry x locality x cache %. Each geometry's footprint is costed
   through the per-stage [P4model.Resources] bit decomposition (tags +
   values + replacement/sketch metadata), so points with the same slot
   count but different metadata land at different x positions. *)

type point = {
  geometry : string;
  locality : float;
  cache_pct : int;
  slots : int;
  sram_bits : int;
  refs : int;
  hits : int;
  hit_rate : float;
}

type t = {
  geometries : string list;
  localities : float list;
  cache_pcts : int list;
  points : point list;
}

let default_geometries =
  [
    "direct";
    "dleft2";
    "dleft4";
    "2way-lru";
    "4way-lru";
    "direct+tinylfu";
    "dleft4+tinylfu";
  ]

let default_localities = [ 0.1; 0.5; 0.9 ]
let default_cache_pcts = [ 50; 200; 800 ]

(* Reference stream per ToR: every flow generates [packet_count]
   touches of its destination VIP at the sender's ToR. Packets of
   concurrent flows interleave — each reference is stamped with an
   approximate send time (flow start + one RTT-ish gap per packet) and
   the per-ToR stream is replayed in time order, so the caches see the
   realistic mix rather than one flow at a time. *)
let packet_gap_ns = 12_000 (* ~ one base RTT between a flow's packets *)

let streams_per_tor (setup : Setup.t) flows =
  let topo = setup.Setup.topo in
  let params = Topo.Topology.params topo in
  let vms_per_host = params.Topo.Params.vms_per_host in
  let hosts = Topo.Topology.hosts topo in
  let per_tor : (int, (int * Vip.t) list ref) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (f : Flow.t) ->
      let host = hosts.(Vip.to_int f.Flow.src_vip / vms_per_host) in
      let tor = Topo.Topology.tor_of topo host in
      let stream =
        match Hashtbl.find_opt per_tor tor with
        | Some s -> s
        | None ->
            let s = ref [] in
            Hashtbl.add per_tor tor s;
            s
      in
      let start = Dessim.Time_ns.to_ns f.Flow.start in
      for k = 0 to Flow.packet_count f - 1 do
        stream := (start + (k * packet_gap_ns), f.Flow.dst_vip) :: !stream
      done)
    flows;
  Hashtbl.fold
    (fun tor s acc ->
      let ordered =
        List.sort (fun (ta, _) (tb, _) -> compare ta tb) !s |> List.map snd
      in
      (tor, ordered) :: acc)
    per_tor []

(* One cache instance replaying a reference stream: [lookup] returns
   hit/miss, inserting on miss; [used_slots]/[sram_bits] record what
   the organization actually occupies at this per-ToR budget. [None]
   when the organization does not fit in [slots] lines (a 4-way table
   needs at least 4); capacity is rounded down to a multiple of the
   way count. *)
type sim = {
  lookup : Vip.t -> bool; (* true = hit; miss inserts *)
  used_slots : int;
  sram_bits : int;
}

let table_sim ~ways ~tinylfu ~slots =
  if slots < ways then None
  else
    let c = Switchv2p.Geo_cache.create ~ways ~tinylfu ~slots in
    let slots = Switchv2p.Geo_cache.slots c in
    let sketch =
      if tinylfu then Some (Resources.sketch_of_slots slots) else None
    in
    Some
      {
        lookup =
          (fun vip ->
            if Switchv2p.Geo_cache.lookup c vip >= 0 then true
            else begin
              ignore
                (Switchv2p.Geo_cache.insert c ~admission:`All vip (Pip.of_int 1));
              false
            end);
        used_slots = slots;
        sram_bits = Resources.geometry_bits ~slots ?sketch (Resources.G_table ways);
      }

let assoc_sim ~ways ~slots =
  if slots < ways then None
  else
    let slots = slots - (slots mod ways) in
    let c = Switchv2p.Assoc_cache.create ~ways ~slots in
    Some
      {
        lookup =
          (fun vip ->
            if Switchv2p.Assoc_cache.lookup c vip >= 0 then true
            else begin
              ignore (Switchv2p.Assoc_cache.insert c vip (Pip.of_int 1) : int);
              false
            end);
        used_slots = slots;
        sram_bits = Resources.geometry_bits ~slots (Resources.G_assoc ways);
      }

let geometry ~slots = function
  | "direct" -> table_sim ~ways:1 ~tinylfu:false ~slots
  | "direct+tinylfu" -> table_sim ~ways:1 ~tinylfu:true ~slots
  | "dleft2" -> table_sim ~ways:2 ~tinylfu:false ~slots
  | "dleft4" -> table_sim ~ways:4 ~tinylfu:false ~slots
  | "dleft4+tinylfu" -> table_sim ~ways:4 ~tinylfu:true ~slots
  | "2way-lru" -> assoc_sim ~ways:2 ~slots
  | "4way-lru" -> assoc_sim ~ways:4 ~slots
  | name -> invalid_arg ("Cache_geometry: unknown geometry " ^ name)

let flows_per_vm = 8.0

let locality_flows (setup : Setup.t) ~locality =
  let rng = Dessim.Rng.create setup.Setup.seed in
  Workloads.Locality_gen.flows rng ~num_vms:setup.Setup.num_vms
    ~num_flows:
      (int_of_float (flows_per_vm *. float_of_int setup.Setup.num_vms))
    ~load:Setup.load ~agg_bps:setup.Setup.agg_bps ~locality

let run ?(scale = `Small) ?(geometries = default_geometries)
    ?(localities = default_localities) ?(cache_pcts = default_cache_pcts) () =
  let setup = Setup.ft8 scale in
  let num_tors = Array.length (Topo.Topology.tors setup.Setup.topo) in
  let points =
    List.concat_map
      (fun locality ->
        let streams = streams_per_tor setup (locality_flows setup ~locality) in
        List.concat_map
          (fun name ->
            List.filter_map
              (fun pct ->
                (* Same per-ToR share as the network experiments. *)
                let per_tor_slots =
                  max 1 (Setup.cache_slots setup ~pct / num_tors)
                in
                match geometry ~slots:per_tor_slots name with
                | None -> None
                | Some probe ->
                    let hits = ref 0 and total = ref 0 in
                    List.iter
                      (fun (_tor, stream) ->
                        (* Fresh cache per ToR, same organization. *)
                        let g =
                          Option.get (geometry ~slots:per_tor_slots name)
                        in
                        List.iter
                          (fun vip ->
                            incr total;
                            if g.lookup vip then incr hits)
                          stream)
                      streams;
                    Some
                      {
                        geometry = name;
                        locality;
                        cache_pct = pct;
                        slots = probe.used_slots;
                        sram_bits = probe.sram_bits;
                        refs = !total;
                        hits = !hits;
                        hit_rate =
                          (if !total = 0 then 0.0
                           else float_of_int !hits /. float_of_int !total);
                      })
              cache_pcts)
          geometries)
      localities
  in
  { geometries; localities; cache_pcts; points }

(* The same sweep point as a declarative scenario (PR-9 layer): a
   Locality stream driving a SwitchV2P scheme whose config selects the
   way count. Validates by construction. *)
let spec ?(scale = `Small) ?(locality = 0.5) ?(cache_pct = 50)
    ?(ways = 1) ?(tinylfu = false) () =
  let module Spec = Netsim.Scenario in
  let geo_name = Resources.geometry_name (Resources.G_table ways) in
  let name =
    Printf.sprintf "cachegeo/%s%s-l%03d-p%d" geo_name
      (if tinylfu then "+tinylfu" else "")
      (int_of_float (locality *. 100.0))
      cache_pct
  in
  let scale : Spec.scale =
    match scale with `Tiny -> `Tiny | `Small -> `Small | `Paper -> `Paper
  in
  Spec.make ~name
    ~topo:(Spec.preset `FT8 scale)
    ~streams:[ Spec.stream ~zipf_alpha:locality Spec.Locality ]
    [
      Spec.scheme ~label:"SwitchV2P"
        (Spec.switchv2p
           ~config:(Switchv2p.Config.make ~ways ~tinylfu ())
           (Spec.Pct cache_pct));
    ]

let print t =
  Report.table
    ~title:
      "Cache-geometry frontier: per-ToR locality-stream hit rate vs SRAM bits"
    ~header:[ "geometry"; "locality"; "cache%"; "slots"; "SRAM kbits"; "hit rate" ]
    (List.map
       (fun p ->
         [
           p.geometry;
           Printf.sprintf "%.1f" p.locality;
           string_of_int p.cache_pct;
           string_of_int p.slots;
           Printf.sprintf "%.1f" (float_of_int p.sram_bits /. 1024.0);
           Report.fpct p.hit_rate;
         ])
       t.points)
