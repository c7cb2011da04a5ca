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

let streams_per_tor topo flows =
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

module Spec = Netsim.Scenario

let run ?(scale = `Small) ?(geometries = default_geometries)
    ?(localities = default_localities) ?(cache_pcts = default_cache_pcts) () =
  let topo_spec = Spec.preset `FT8 scale in
  let topo = (Setup.pooled topo_spec).Setup.topo in
  let num_tors = Array.length (Topo.Topology.tors topo) in
  let points =
    List.concat_map
      (fun locality ->
        (* The reference traffic is a Locality stream, its knob
           carried in the stream's [zipf_alpha] field. *)
        let spec =
          Spec.make ~name:"cachegeo" ~topo:topo_spec
            ~streams:[ Spec.stream ~zipf_alpha:locality Spec.Locality ]
            []
        in
        let streams = streams_per_tor topo (Spec.flows spec) in
        List.concat_map
          (fun name ->
            List.filter_map
              (fun pct ->
                (* Same per-ToR share as the network experiments. *)
                let per_tor_slots =
                  max 1 (Spec.cache_slots spec (Spec.Pct pct) / num_tors)
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
