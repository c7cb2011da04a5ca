module Verdict = Switchv2p.Verdict

type env = {
  engine : Dessim.Engine.t;
  rng : Dessim.Rng.t;
  topo : Topo.Topology.t;
  mapping : Netcore.Mapping.t;
  base_rtt : Dessim.Time_ns.t;
  fresh_packet_id : unit -> int;
  pooled_packet : unit -> Netcore.Packet.t;
  emit_at_switch : src_switch:int -> Netcore.Packet.t -> unit;
}

type kind = Classify | Lookup | Learn | Emit

type stage = {
  name : string;
  kind : kind;
  exec : env -> switch:int -> from:int -> Netcore.Packet.t -> int;
  probe : Dessim.Telemetry.t -> now_sec:float -> unit;
}

type t = {
  stages : stage array;
  attach : Dessim.Telemetry.t -> unit;
  prepare : env -> unit;
  reset : switch:int -> unit;
}

let no_probe (_ : Dessim.Telemetry.t) ~now_sec:(_ : float) = ()
let no_attach (_ : Dessim.Telemetry.t) = ()
let no_prepare (_ : env) = ()
let no_reset ~switch:(_ : int) = ()

let stage ?(probe = no_probe) ~kind name exec = { name; kind; exec; probe }

let make ?(attach = no_attach) ?(prepare = no_prepare) ?(reset = no_reset)
    stages =
  { stages = Array.of_list stages; attach; prepare; reset }

let passthrough = make []

(* Top-level tail recursion, not a local closure: a [let rec] with free
   variables allocates its closure on every call in classic OCaml, and
   this is the per-hop path. *)
let rec run_from stages n i env ~switch ~from pkt =
  if i >= n then Verdict.forward
  else begin
    let v = (Array.unsafe_get stages i).exec env ~switch ~from pkt in
    if v = Verdict.next then run_from stages n (i + 1) env ~switch ~from pkt
    else v
  end

let run t env ~switch ~from pkt =
  run_from t.stages (Array.length t.stages) 0 env ~switch ~from pkt

let prepare t env = t.prepare env
let attach t tel = t.attach tel
let reset_switch t ~switch = t.reset ~switch
let probe t tel ~now_sec = Array.iter (fun s -> s.probe tel ~now_sec) t.stages
let stages t = Array.to_list (Array.map (fun s -> (s.name, s.kind)) t.stages)

let p4_kind = function
  | Classify -> P4model.Resources.Classify
  | Lookup -> P4model.Resources.Lookup
  | Learn -> P4model.Resources.Learn
  | Emit -> P4model.Resources.Emit

let resources t ~entries_per_switch =
  Array.to_list
    (Array.map
       (fun s ->
         ( s.name,
           P4model.Resources.stage_estimate ~entries_per_switch
             (p4_kind s.kind) ))
       t.stages)
