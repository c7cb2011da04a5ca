(* Scenarios as data: a declarative spec for one simulation —
   topology preset x workload x fault plan x scheme(s) x engine
   config — with a lossless line-oriented textual form.

   The type is pure data (no closures), so a scenario can be printed,
   committed, diffed and replayed byte-identically: floats print as
   %h (like Fault.to_string), every field is explicit in canonical
   form, and [of_string (to_string t) = Ok t].

   Scheme construction needs the scheme library (which depends on
   this one), so realization of scheme specs and the run entry point
   live in [Experiments.Scenario]; everything the spec itself can
   realize — topology parameters, flows, horizon, the fault plan —
   is here. *)

module Fault = Dessim.Fault
module Time_ns = Dessim.Time_ns
module Rng = Dessim.Rng
module Topology = Topo.Topology
module Params = Topo.Params
module Flow = Netcore.Flow
module Vip = Netcore.Addr.Vip
module Churn = Workloads.Container_churn
module Tracegen = Workloads.Tracegen

type scale = [ `Tiny | `Small | `Paper ]
type family = [ `FT8 | `FT16 ]

type topo_arm = Preset of { family : family; scale : scale } | Custom of Params.t
type topo_spec = { arm : topo_arm; topo_seed : int }

type trace = Hadoop | Websearch | Alibaba | Microbursts | Video | Locality
type vips = All | Parity of int

type stream = {
  trace : trace;
  rate : float;  (* flows (rpcs, senders) per VM of the stream's VIP set *)
  load : float;
  zipf_alpha : float option;
  window : Time_ns.t;  (* microbursts arrival window / video duration *)
  vips : vips;
  seed_delta : int;
  id_base : int;
}

type slots = Pct of int | Abs of int

type scheme_kind =
  | Nocache
  | Direct
  | Ondemand
  | Hoverboard
  | Dht
  | Locallearning of slots
  | Gwcache of slots
  | Bluebird of slots
  | Controller of { slots : slots; interval : Time_ns.t }
  | Switchv2p of {
      slots : slots;
      config : Switchv2p.Config.t;
      shares : float array option;
    }

type scheme_spec = { label : string option; kind : scheme_kind }

type faults_arm = No_faults | Random of int | Literal of Fault.plan

type shards_arm = Shards of int
type horizon_arm = Horizon_auto | Horizon of Time_ns.t
type classify_arm = No_classify | Vip_parity

type t = {
  name : string;
  topo : topo_spec;
  streams : stream list;
  churn : Churn.t option;
  faults : faults_arm;
  schemes : scheme_spec list;
  seed : int;
  shards : shards_arm;
  horizon : horizon_arm;
  gateways_used : int option;
  classify : classify_arm;
}

(* --- canonical preset tables ------------------------------------------ *)

let preset_params family (scale : scale) =
  match (family, scale) with
  | `FT8, `Paper -> Params.ft8_10k ()
  | `FT8, `Small ->
      Params.scaled ~spines_per_pod:4 ~cores_per_group:4
        ~gateways_per_gateway_pod:4 ~pods:8 ~racks_per_pod:4 ~hosts_per_rack:2
        ~vms_per_host:12 ()
  | `FT8, `Tiny ->
      Params.scaled ~pods:4 ~racks_per_pod:3 ~hosts_per_rack:2 ~vms_per_host:8 ()
  | `FT16, `Paper -> Params.ft16_400k ()
  | `FT16, `Small ->
      Params.scaled ~spines_per_pod:4 ~cores_per_group:4
        ~gateways_per_gateway_pod:4 ~pods:8 ~racks_per_pod:8 ~hosts_per_rack:2
        ~vms_per_host:8 ()
  | `FT16, `Tiny ->
      Params.scaled ~pods:2 ~racks_per_pod:4 ~hosts_per_rack:2 ~vms_per_host:8 ()

let topo_params topo =
  match topo.arm with
  | Custom p -> p
  | Preset { family; scale } -> preset_params family scale

let params_of t = topo_params t.topo

(* --- constructors ------------------------------------------------------ *)

let default_rate = function
  | Hadoop -> 8.0
  | Websearch -> 0.5
  | Alibaba -> 4.0
  | Microbursts -> 8.0
  | Video -> 64.0
  | Locality -> 8.0

let default_window = function
  | Microbursts -> Time_ns.of_ms 2
  | Video -> Time_ns.of_ms 5
  | Hadoop | Websearch | Alibaba | Locality -> Time_ns.zero

(* The locality trace reuses the stream's [zipf_alpha] slot as its
   knob (both are "how skewed is destination reuse" scalars, and the
   workload line stays uniform across traces). *)
let default_locality = 0.5

let default_load = 0.3

let stream ?rate ?(load = default_load) ?zipf_alpha ?window ?(vips = All)
    ?(seed_delta = 0) ?(id_base = 0) trace =
  {
    trace;
    rate = (match rate with Some r -> r | None -> default_rate trace);
    load;
    zipf_alpha;
    window = (match window with Some w -> w | None -> default_window trace);
    vips;
    seed_delta;
    id_base;
  }

let preset ?(seed = 42) family scale =
  { arm = Preset { family; scale }; topo_seed = seed }

let custom ?(seed = 42) params = { arm = Custom params; topo_seed = seed }

let scheme ?label kind = { label; kind }

let switchv2p ?(config = Switchv2p.Config.default) ?shares slots =
  Switchv2p { slots; config; shares }

let make ~name ~topo ?(streams = []) ?churn ?(faults = No_faults)
    ?(seed = 42) ?(shards = Shards 1) ?(horizon = Horizon_auto)
    ?gateways_used ?(classify = No_classify) schemes =
  {
    name;
    topo;
    streams;
    churn;
    faults;
    schemes;
    seed;
    shards;
    horizon;
    gateways_used;
    classify;
  }

(* --- names ------------------------------------------------------------- *)

let scale_name = function `Tiny -> "tiny" | `Small -> "small" | `Paper -> "paper"

let scale_of_string = function
  | "tiny" -> Some `Tiny
  | "small" -> Some `Small
  | "paper" -> Some `Paper
  | _ -> None

let family_name = function `FT8 -> "ft8" | `FT16 -> "ft16"

let family_of_string = function
  | "ft8" -> Some `FT8
  | "ft16" -> Some `FT16
  | _ -> None

let trace_name = function
  | Hadoop -> "hadoop"
  | Websearch -> "websearch"
  | Alibaba -> "alibaba"
  | Microbursts -> "microbursts"
  | Video -> "video"
  | Locality -> "locality"

let trace_of_string = function
  | "hadoop" -> Some Hadoop
  | "websearch" -> Some Websearch
  | "alibaba" -> Some Alibaba
  | "microbursts" -> Some Microbursts
  | "video" -> Some Video
  | "locality" -> Some Locality
  | _ -> None

let scheme_kind_name = function
  | Nocache -> "nocache"
  | Direct -> "direct"
  | Ondemand -> "ondemand"
  | Hoverboard -> "hoverboard"
  | Dht -> "dht"
  | Locallearning _ -> "locallearning"
  | Gwcache _ -> "gwcache"
  | Bluebird _ -> "bluebird"
  | Controller _ -> "controller"
  | Switchv2p _ -> "switchv2p"

(* --- printer ----------------------------------------------------------- *)

let slots_to_string = function
  | Pct p -> Printf.sprintf "pct:%d" p
  | Abs n -> Printf.sprintf "abs:%d" n

let floats_to_string fs =
  String.concat "," (List.map (Printf.sprintf "%h") (Array.to_list fs))

let allocation_to_string = function
  | Switchv2p.Config.Uniform -> "uniform"
  | Switchv2p.Config.Tor_only -> "tor_only"
  | Switchv2p.Config.Weighted { tor; spine; core; gw_tor; gw_spine } ->
      Printf.sprintf "weighted:%h,%h,%h,%h,%h" tor spine core gw_tor gw_spine

let params_fields (p : Params.t) =
  Printf.sprintf
    "pods=%d racks_per_pod=%d spines_per_pod=%d cores_per_group=%d \
     hosts_per_rack=%d vms_per_host=%d gateway_pods=%s \
     gateways_per_gateway_pod=%d host_link_bps=%h fabric_link_bps=%h \
     prop_delay_ns=%d buffer_bytes=%d ecn_threshold_bytes=%s"
    p.Params.pods p.Params.racks_per_pod p.Params.spines_per_pod
    p.Params.cores_per_group p.Params.hosts_per_rack p.Params.vms_per_host
    (String.concat "," (List.map string_of_int p.Params.gateway_pods))
    p.Params.gateways_per_gateway_pod p.Params.host_link_bps
    p.Params.fabric_link_bps
    (Time_ns.to_ns p.Params.prop_delay)
    p.Params.buffer_bytes
    (match p.Params.ecn_threshold_bytes with
    | None -> "none"
    | Some b -> string_of_int b)

let stream_line s =
  Printf.sprintf
    "workload trace=%s rate=%h load=%h zipf_alpha=%s window_ns=%d vips=%s \
     seed_delta=%d id_base=%d"
    (trace_name s.trace) s.rate s.load
    (match s.zipf_alpha with None -> "none" | Some a -> Printf.sprintf "%h" a)
    (Time_ns.to_ns s.window)
    (match s.vips with All -> "all" | Parity p -> Printf.sprintf "parity:%d" p)
    s.seed_delta s.id_base

let scheme_line s =
  let b = Buffer.create 64 in
  Buffer.add_string b ("scheme " ^ scheme_kind_name s.kind);
  let addf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  (match s.kind with
  | Nocache | Direct | Ondemand | Hoverboard | Dht -> ()
  | Locallearning slots | Gwcache slots | Bluebird slots ->
      addf " slots=%s" (slots_to_string slots)
  | Controller { slots; interval } ->
      addf " slots=%s interval_ns=%d" (slots_to_string slots)
        (Time_ns.to_ns interval)
  | Switchv2p { slots; config = c; shares } ->
      addf " slots=%s" (slots_to_string slots);
      addf " p_learn=%h" c.Switchv2p.Config.p_learn;
      addf " learning_packets=%b" c.Switchv2p.Config.learning_packets;
      addf " spillover=%b" c.Switchv2p.Config.spillover;
      addf " promotion=%b" c.Switchv2p.Config.promotion;
      addf " source_learning=%b" c.Switchv2p.Config.source_learning;
      addf " invalidations=%b" c.Switchv2p.Config.invalidations;
      addf " ts_vector=%b" c.Switchv2p.Config.ts_vector;
      addf " allocation=%s" (allocation_to_string c.Switchv2p.Config.allocation);
      (* One way prints as [direct], so [geometry=dleft:1] reprints as
         the committed files' spelling. *)
      (match c.Switchv2p.Config.ways with
      | 1 -> addf " geometry=direct"
      | w -> addf " geometry=dleft:%d" w);
      addf " tinylfu=%b" c.Switchv2p.Config.tinylfu;
      Option.iter (fun sh -> addf " shares=%s" (floats_to_string sh)) shares);
  (* [label] consumes the rest of the line, so it always prints last. *)
  Option.iter (fun l -> addf " label=%s" l) s.label;
  Buffer.contents b

let to_string t =
  let b = Buffer.create 512 in
  let addf fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  addf "scenario %s" t.name;
  (match t.topo.arm with
  | Preset { family; scale } ->
      addf "topo preset family=%s scale=%s seed=%d" (family_name family)
        (scale_name scale) t.topo.topo_seed
  | Custom p -> addf "topo custom %s seed=%d" (params_fields p) t.topo.topo_seed);
  addf "engine seed=%d shards=%d horizon=%s" t.seed
    (let (Shards n) = t.shards in n)
    (match t.horizon with
    | Horizon_auto -> "auto"
    | Horizon h -> string_of_int (Time_ns.to_ns h));
  addf "net gateways=%s classify=%s"
    (match t.gateways_used with None -> "all" | Some k -> string_of_int k)
    (match t.classify with No_classify -> "none" | Vip_parity -> "vip_parity");
  List.iter (fun s -> addf "%s" (stream_line s)) t.streams;
  Option.iter (fun c -> addf "churn %s" (Churn.to_fields c)) t.churn;
  (match t.faults with
  | No_faults -> addf "faults none"
  | Random seed -> addf "faults random seed=%d" seed
  | Literal plan ->
      addf "faults plan seed=%d" plan.Fault.seed;
      Array.iter (fun s -> addf "fault %s" (Fault.spec_to_string s)) plan.Fault.specs);
  List.iter (fun s -> addf "%s" (scheme_line s)) t.schemes;
  Buffer.contents b

(* --- errors ------------------------------------------------------------ *)

type error = { line : int; field : string option; msg : string }

let error_to_string e =
  match e.field with
  | Some f -> Printf.sprintf "line %d, field %S: %s" e.line f e.msg
  | None -> Printf.sprintf "line %d: %s" e.line e.msg

let pp_error ppf e = Format.pp_print_string ppf (error_to_string e)

exception Err of error

let err ~line ?field fmt =
  Printf.ksprintf (fun msg -> raise (Err { line; field; msg })) fmt

(* --- the --faults CLI entry: one plan on one line, per-segment blame --- *)

let fault_plan_of_string s =
  match String.split_on_char ';' (String.trim s) with
  | [] | [ "" ] -> Error { line = 1; field = None; msg = "empty fault plan" }
  | head :: rest -> (
      try
        let seed =
          match String.index_opt head '=' with
          | Some i when String.sub head 0 i = "seed" -> (
              let v = String.sub head (i + 1) (String.length head - i - 1) in
              match int_of_string_opt v with
              | Some n -> n
              | None -> err ~line:1 ~field:head "bad seed %S" v)
          | _ -> err ~line:1 ~field:head "plan must start with seed=N"
        in
        let specs =
          rest
          |> List.filter (fun seg -> String.trim seg <> "")
          |> List.mapi (fun i seg ->
                 match Fault.spec_of_string seg with
                 | Ok spec -> spec
                 | Error m -> err ~line:1 ~field:seg "fault spec %d: %s" (i + 1) m)
        in
        Ok { Fault.seed; specs = Fault.sort_specs (Array.of_list specs) }
      with Err e -> Error e)

(* --- parser ------------------------------------------------------------ *)

let split_fields s =
  List.filter (fun tok -> tok <> "") (String.split_on_char ' ' s)

let kv ~line tok =
  match String.index_opt tok '=' with
  | Some i ->
      (String.sub tok 0 i, String.sub tok (i + 1) (String.length tok - i - 1))
  | None -> err ~line ~field:tok "expected key=value"

(* A one-shot field table: every token must be consumed exactly once. *)
type fields = { f_line : int; mutable f_rem : (string * string) list }

let fields_of ~line toks = { f_line = line; f_rem = List.map (kv ~line) toks }

let take f key =
  let rec go acc = function
    | [] -> None
    | (k, v) :: tl when k = key ->
        f.f_rem <- List.rev_append acc tl;
        Some v
    | kv :: tl -> go (kv :: acc) tl
  in
  go [] f.f_rem

let done_with f =
  match f.f_rem with
  | [] -> ()
  | (k, _) :: _ -> err ~line:f.f_line ~field:k "unknown field %S" k

let parse_with ~line ~field what parse v =
  match parse v with
  | Some x -> x
  | None -> err ~line ~field "bad %s %S" what v

let take_int f key ~default =
  match take f key with
  | None -> default
  | Some v -> parse_with ~line:f.f_line ~field:key "integer" int_of_string_opt v

let req f key =
  match take f key with
  | Some v -> v
  | None -> err ~line:f.f_line ~field:key "missing required field %S" key

let req_int f key =
  parse_with ~line:f.f_line ~field:key "integer" int_of_string_opt (req f key)

let req_float f key =
  parse_with ~line:f.f_line ~field:key "float" float_of_string_opt (req f key)

let take_float f key ~default =
  match take f key with
  | None -> default
  | Some v -> parse_with ~line:f.f_line ~field:key "float" float_of_string_opt v

let take_bool f key ~default =
  match take f key with
  | None -> default
  | Some v -> parse_with ~line:f.f_line ~field:key "bool" bool_of_string_opt v

let parse_slots ~line v =
  let bad () = err ~line ~field:"slots" "expected pct:N or abs:N, got %S" v in
  match String.index_opt v ':' with
  | Some i -> (
      let kind = String.sub v 0 i
      and n = String.sub v (i + 1) (String.length v - i - 1) in
      match (kind, int_of_string_opt n) with
      | "pct", Some n -> Pct n
      | "abs", Some n -> Abs n
      | _ -> bad ())
  | None -> bad ()

let parse_float_list ~line ~field v =
  Array.of_list
    (List.map
       (fun tok -> parse_with ~line ~field "float" float_of_string_opt tok)
       (String.split_on_char ',' v))

let parse_topo ~line toks =
  match toks with
  | "preset" :: rest ->
      let f = fields_of ~line rest in
      let family =
        parse_with ~line ~field:"family" "family (ft8|ft16)" family_of_string
          (req f "family")
      in
      let scale =
        parse_with ~line ~field:"scale" "scale (tiny|small|paper)"
          scale_of_string (req f "scale")
      in
      let seed = take_int f "seed" ~default:42 in
      done_with f;
      { arm = Preset { family; scale }; topo_seed = seed }
  | "custom" :: rest ->
      let f = fields_of ~line rest in
      let gateway_pods =
        match req f "gateway_pods" with
        | "" -> []
        | v ->
            List.map
              (fun tok ->
                parse_with ~line ~field:"gateway_pods" "integer"
                  int_of_string_opt tok)
              (String.split_on_char ',' v)
      in
      let ecn =
        match req f "ecn_threshold_bytes" with
        | "none" -> None
        | v ->
            Some
              (parse_with ~line ~field:"ecn_threshold_bytes" "integer"
                 int_of_string_opt v)
      in
      let p =
        {
          Params.pods = req_int f "pods";
          racks_per_pod = req_int f "racks_per_pod";
          spines_per_pod = req_int f "spines_per_pod";
          cores_per_group = req_int f "cores_per_group";
          hosts_per_rack = req_int f "hosts_per_rack";
          vms_per_host = req_int f "vms_per_host";
          gateway_pods;
          gateways_per_gateway_pod = req_int f "gateways_per_gateway_pod";
          host_link_bps = req_float f "host_link_bps";
          fabric_link_bps = req_float f "fabric_link_bps";
          prop_delay = Time_ns.of_ns (req_int f "prop_delay_ns");
          buffer_bytes = req_int f "buffer_bytes";
          ecn_threshold_bytes = ecn;
        }
      in
      let seed = take_int f "seed" ~default:42 in
      done_with f;
      { arm = Custom p; topo_seed = seed }
  | first :: _ -> err ~line ~field:first "expected topo preset|custom"
  | [] -> err ~line "expected topo preset|custom"

let parse_stream ~line toks =
  let f = fields_of ~line toks in
  let trace =
    parse_with ~line ~field:"trace"
      "trace (hadoop|websearch|alibaba|microbursts|video|locality)"
      trace_of_string (req f "trace")
  in
  let rate = take_float f "rate" ~default:(default_rate trace) in
  let load = take_float f "load" ~default:default_load in
  let zipf_alpha =
    match take f "zipf_alpha" with
    | None | Some "none" -> None
    | Some v ->
        Some (parse_with ~line ~field:"zipf_alpha" "float" float_of_string_opt v)
  in
  let window =
    Time_ns.of_ns
      (take_int f "window_ns"
         ~default:(Time_ns.to_ns (default_window trace)))
  in
  let vips =
    match take f "vips" with
    | None | Some "all" -> All
    | Some v -> (
        match String.index_opt v ':' with
        | Some i when String.sub v 0 i = "parity" ->
            Parity
              (parse_with ~line ~field:"vips" "parity" int_of_string_opt
                 (String.sub v (i + 1) (String.length v - i - 1)))
        | _ -> err ~line ~field:"vips" "expected all or parity:P, got %S" v)
  in
  let seed_delta = take_int f "seed_delta" ~default:0 in
  let id_base = take_int f "id_base" ~default:0 in
  done_with f;
  { trace; rate; load; zipf_alpha; window; vips; seed_delta; id_base }

let parse_churn ~line toks =
  let f = fields_of ~line toks in
  let kind =
    parse_with ~line ~field:"kind"
      "churn kind (cold_start|serverless|migration_storm)" Churn.kind_of_string
      (req f "kind")
  in
  let rate = req_float f "rate" in
  let start = Time_ns.of_ns (take_int f "start_ns" ~default:0) in
  let duration = Time_ns.of_ns (req_int f "duration_ns") in
  let batch = take_int f "batch" ~default:8 in
  done_with f;
  match Churn.make ~start ~kind ~rate ~duration ~batch () with
  | c -> c
  | exception Invalid_argument m -> err ~line "%s" m

let parse_scheme ~line rest_of_line =
  (* [label=] consumes the remainder of the line (labels may contain
     spaces); split it off before tokenizing. *)
  let body, label =
    let marker = " label=" in
    let rec find i =
      if i + String.length marker > String.length rest_of_line then None
      else if String.sub rest_of_line i (String.length marker) = marker then
        Some i
      else find (i + 1)
    in
    match find 0 with
    | Some i ->
        ( String.sub rest_of_line 0 i,
          Some
            (String.sub rest_of_line
               (i + String.length marker)
               (String.length rest_of_line - i - String.length marker)) )
    | None -> (rest_of_line, None)
  in
  match split_fields body with
  | [] -> err ~line "expected scheme KIND [fields...]"
  | kind_name :: rest -> (
      let f = fields_of ~line rest in
      let slots () = parse_slots ~line (req f "slots") in
      let kind =
        match kind_name with
        | "nocache" -> Nocache
        | "direct" -> Direct
        | "ondemand" -> Ondemand
        | "hoverboard" -> Hoverboard
        | "dht" -> Dht
        | "locallearning" -> Locallearning (slots ())
        | "gwcache" -> Gwcache (slots ())
        | "bluebird" -> Bluebird (slots ())
        | "controller" ->
            let slots = slots () in
            Controller
              { slots; interval = Time_ns.of_ns (req_int f "interval_ns") }
        | "switchv2p" ->
            let slots = slots () in
            let d = Switchv2p.Config.default in
            let allocation =
              match take f "allocation" with
              | None | Some "uniform" -> Switchv2p.Config.Uniform
              | Some "tor_only" -> Switchv2p.Config.Tor_only
              | Some v -> (
                  match String.index_opt v ':' with
                  | Some i when String.sub v 0 i = "weighted" -> (
                      let ws =
                        parse_float_list ~line ~field:"allocation"
                          (String.sub v (i + 1) (String.length v - i - 1))
                      in
                      match ws with
                      | [| tor; spine; core; gw_tor; gw_spine |] ->
                          Switchv2p.Config.Weighted
                            { tor; spine; core; gw_tor; gw_spine }
                      | _ ->
                          err ~line ~field:"allocation"
                            "weighted allocation needs 5 weights")
                  | _ ->
                      err ~line ~field:"allocation"
                        "expected uniform|tor_only|weighted:5-floats, got %S" v)
            in
            let ways =
              match take f "geometry" with
              | None | Some "direct" -> 1
              | Some v -> (
                  match String.index_opt v ':' with
                  | Some i when String.sub v 0 i = "dleft" -> (
                      match
                        int_of_string_opt
                          (String.sub v (i + 1) (String.length v - i - 1))
                      with
                      | Some w when w > 0 -> w
                      | Some _ | None ->
                          err ~line ~field:"geometry"
                            "d-left ways must be a positive integer, got %S" v)
                  | _ ->
                      err ~line ~field:"geometry"
                        "expected direct|dleft:D, got %S" v)
            in
            let config =
              {
                Switchv2p.Config.p_learn =
                  take_float f "p_learn" ~default:d.Switchv2p.Config.p_learn;
                learning_packets =
                  take_bool f "learning_packets"
                    ~default:d.Switchv2p.Config.learning_packets;
                spillover =
                  take_bool f "spillover" ~default:d.Switchv2p.Config.spillover;
                promotion =
                  take_bool f "promotion" ~default:d.Switchv2p.Config.promotion;
                source_learning =
                  take_bool f "source_learning"
                    ~default:d.Switchv2p.Config.source_learning;
                invalidations =
                  take_bool f "invalidations"
                    ~default:d.Switchv2p.Config.invalidations;
                ts_vector =
                  take_bool f "ts_vector" ~default:d.Switchv2p.Config.ts_vector;
                allocation;
                ways;
                tinylfu =
                  take_bool f "tinylfu" ~default:d.Switchv2p.Config.tinylfu;
              }
            in
            let shares =
              Option.map (parse_float_list ~line ~field:"shares") (take f "shares")
            in
            Switchv2p { slots; config; shares }
        | k -> err ~line ~field:k "unknown scheme kind %S" k
      in
      done_with f;
      { label; kind })

let parse_engine ~line toks (t : t) =
  let f = fields_of ~line toks in
  let seed = take_int f "seed" ~default:t.seed in
  (* Accepted for older files; the engine has one scheduler. *)
  (match take f "sched" with
  | None | Some ("default" | "heap") -> ()
  | Some v -> err ~line ~field:"sched" "sched %S: expected heap or default" v);
  let shards = Shards (take_int f "shards" ~default:1) in
  let horizon =
    match take f "horizon" with
    | None | Some "auto" -> Horizon_auto
    | Some v ->
        Horizon
          (Time_ns.of_ns
             (parse_with ~line ~field:"horizon" "integer" int_of_string_opt v))
  in
  done_with f;
  { t with seed; shards; horizon }

let parse_net ~line toks (t : t) =
  let f = fields_of ~line toks in
  let gateways_used =
    match take f "gateways" with
    | None | Some "all" -> None
    | Some v ->
        Some (parse_with ~line ~field:"gateways" "integer" int_of_string_opt v)
  in
  let classify =
    match take f "classify" with
    | None | Some "none" -> No_classify
    | Some "vip_parity" -> Vip_parity
    | Some v -> err ~line ~field:"classify" "expected none|vip_parity, got %S" v
  in
  done_with f;
  { t with gateways_used; classify }

(* Directive positions, for line-numbered semantic errors. *)
type positions = {
  mutable p_topo : int;
  mutable p_streams : int list;  (* reversed *)
  mutable p_schemes : int list;  (* reversed *)
  mutable p_faults : int;
  mutable p_fault_specs : int list;  (* reversed *)
  mutable p_churn : int;
  mutable p_net : int;
  mutable p_last : int;
}

let parse_text src =
  let lines = String.split_on_char '\n' src in
  let pos =
    {
      p_topo = 0;
      p_streams = [];
      p_schemes = [];
      p_faults = 0;
      p_fault_specs = [];
      p_churn = 0;
      p_net = 0;
      p_last = 1;
    }
  in
  let t =
    ref
      (make ~name:"" ~topo:(preset `FT8 `Small) [])
  in
  let seen_name = ref false and seen_topo = ref false in
  let streams = ref [] and schemes = ref [] in
  let fault_specs = ref [] and fault_seed = ref None in
  let fault_mode = ref `None (* `None | `Random | `Plan *) in
  List.iteri
    (fun i raw ->
      let line = i + 1 in
      let s = String.trim raw in
      if s <> "" && s.[0] <> '#' then begin
        pos.p_last <- line;
        let directive, rest =
          match String.index_opt s ' ' with
          | Some j ->
              ( String.sub s 0 j,
                String.sub s (j + 1) (String.length s - j - 1) )
          | None -> (s, "")
        in
        let toks () = split_fields rest in
        match directive with
        | "scenario" ->
            if !seen_name then err ~line "duplicate scenario line";
            if String.trim rest = "" then err ~line "scenario needs a name";
            seen_name := true;
            t := { !t with name = String.trim rest }
        | "topo" ->
            if !seen_topo then err ~line "duplicate topo line";
            seen_topo := true;
            pos.p_topo <- line;
            t := { !t with topo = parse_topo ~line (toks ()) }
        | "engine" -> t := parse_engine ~line (toks ()) !t
        | "net" ->
            pos.p_net <- line;
            t := parse_net ~line (toks ()) !t
        | "workload" ->
            pos.p_streams <- line :: pos.p_streams;
            streams := parse_stream ~line (toks ()) :: !streams
        | "churn" ->
            if !t.churn <> None then err ~line "duplicate churn line";
            pos.p_churn <- line;
            t := { !t with churn = Some (parse_churn ~line (toks ())) }
        | "faults" -> (
            if !fault_mode <> `None then err ~line "duplicate faults line";
            pos.p_faults <- line;
            match toks () with
            | [ "none" ] -> fault_mode := `Plain_none
            | "random" :: rest ->
                let f = fields_of ~line rest in
                let seed = req_int f "seed" in
                done_with f;
                fault_mode := `Random;
                t := { !t with faults = Random seed }
            | "plan" :: rest ->
                let f = fields_of ~line rest in
                fault_seed := Some (req_int f "seed");
                done_with f;
                fault_mode := `Plan
            | _ -> err ~line "expected faults none|random seed=N|plan seed=N")
        | "fault" -> (
            if !fault_mode <> `Plan then
              err ~line "fault lines need a preceding 'faults plan seed=N'";
            pos.p_fault_specs <- line :: pos.p_fault_specs;
            match Fault.spec_of_string rest with
            | Ok spec -> fault_specs := spec :: !fault_specs
            | Error m -> err ~line ~field:(String.trim rest) "%s" m)
        | "scheme" ->
            pos.p_schemes <- line :: pos.p_schemes;
            schemes := parse_scheme ~line rest :: !schemes
        | d -> err ~line ~field:d "unknown directive %S" d
      end)
    lines;
  if not !seen_name then err ~line:pos.p_last "missing scenario line";
  if not !seen_topo then err ~line:pos.p_last "missing topo line";
  let faults =
    match !fault_mode with
    | `Plan ->
        Literal
          {
            Fault.seed = Option.get !fault_seed;
            specs = Fault.sort_specs (Array.of_list (List.rev !fault_specs));
          }
    | `Random -> !t.faults
    | `None | `Plain_none -> No_faults
  in
  let t =
    {
      !t with
      streams = List.rev !streams;
      schemes = List.rev !schemes;
      faults;
    }
  in
  (t, pos)

(* --- semantic validation ----------------------------------------------- *)

let check_fault_action topo action =
  let check_link src dst =
    match Topology.link topo ~src ~dst with
    | (_ : Topo.Link.t) -> ()
    | exception Not_found -> failwith (Printf.sprintf "no link %d -> %d" src dst)
  in
  let check_switch sw =
    if
      sw < 0
      || sw >= Topology.num_nodes topo
      || Topo.Node.is_endpoint (Topology.kind topo sw)
    then failwith (Printf.sprintf "%d is not a switch" sw)
  in
  let check_gateway g =
    let ok =
      g >= 0
      && g < Topology.num_nodes topo
      && match Topology.kind topo g with
         | Topo.Node.Gateway _ -> true
         | _ -> false
    in
    if not ok then failwith (Printf.sprintf "%d is not a gateway" g)
  in
  match (action : Fault.action) with
  | Link_down (a, b) | Link_up (a, b) | Set_loss (a, b, _) | Corrupt_next (a, b)
    ->
      check_link a b
  | Switch_fail s -> check_switch s
  | Gateway_down g | Gateway_up g -> check_gateway g
  | Churn n -> if n <= 0 then failwith "churn batch must be positive"

(* Structural and topology-aware checks; [pos] maps findings back to
   source lines (line 0 when the spec was built programmatically). *)
let semantic_errors t (pos : positions option) =
  let p line field fmt =
    Printf.ksprintf (fun msg -> { line; field; msg }) fmt
  in
  let at get = match pos with None -> 0 | Some pos -> get pos in
  let nth_at get i =
    match pos with
    | None -> 0
    | Some pos -> ( match List.nth_opt (List.rev (get pos)) i with
      | Some l -> l
      | None -> 0)
  in
  let errs = ref [] in
  let add e = errs := e :: !errs in
  if String.trim t.name = "" then add (p (at (fun p -> p.p_last)) None "empty scenario name");
  if String.contains t.name '\n' then
    add (p 1 None "scenario name must be a single line");
  (match t.topo.arm with
  | Custom params -> (
      match Params.validate params with
      | () -> ()
      | exception Invalid_argument m ->
          add (p (at (fun p -> p.p_topo)) None "%s" m))
  | Preset _ -> ());
  let params = params_of t in
  let params_ok =
    match Params.validate params with () -> true | exception _ -> false
  in
  let num_vms = if params_ok then Params.num_vms params else 0 in
  List.iteri
    (fun i (s : stream) ->
      let line = nth_at (fun p -> p.p_streams) i in
      let gen_vms =
        match s.vips with All -> num_vms | Parity _ -> num_vms / 2
      in
      if (not (Float.is_finite s.rate)) || s.rate <= 0.0 then
        add (p line (Some "rate") "rate must be positive");
      if s.load <= 0.0 || s.load > 1.0 then
        add (p line (Some "load") "load must be in (0,1]");
      (match s.vips with
      | Parity par when par <> 0 && par <> 1 ->
          add (p line (Some "vips") "parity must be 0 or 1")
      | _ -> ());
      (match s.trace with
      | Microbursts | Video ->
          if Time_ns.to_ns s.window <= 0 then
            add (p line (Some "window_ns") "window must be positive")
      | _ -> ());
      (match (s.trace, s.zipf_alpha) with
      | Locality, Some l when (not (Float.is_finite l)) || l < 0.0 || l > 1.0
        ->
          add
            (p line (Some "zipf_alpha")
               "locality knob (zipf_alpha) must be in [0,1]")
      | _ -> ());
      if s.seed_delta < 0 then
        add (p line (Some "seed_delta") "seed_delta must be non-negative");
      if s.id_base < 0 then
        add (p line (Some "id_base") "id_base must be non-negative");
      if params_ok && gen_vms < 2 then
        add
          (p line (Some "vips") "stream needs at least 2 VMs (topology has %d)"
             num_vms))
    t.streams;
  if t.schemes = [] then
    add (p (at (fun p -> p.p_last)) None "scenario needs at least one scheme");
  List.iteri
    (fun i (s : scheme_spec) ->
      let line = nth_at (fun p -> p.p_schemes) i in
      let check_slots = function
        | Pct n when n < 0 ->
            add (p line (Some "slots") "slots percentage must be non-negative")
        | Abs n when n < 0 ->
            add (p line (Some "slots") "slots count must be non-negative")
        | _ -> ()
      in
      (match s.kind with
      | Locallearning sl | Gwcache sl | Bluebird sl
      | Controller { slots = sl; _ }
      | Switchv2p { slots = sl; _ } ->
          check_slots sl
      | _ -> ());
      match s.kind with
      | Switchv2p { shares = Some sh; _ } ->
          if t.classify <> Vip_parity then
            add
              (p line (Some "shares")
                 "tenant shares need 'net classify=vip_parity'");
          if Array.length sh <> 2 then
            add
              (p line (Some "shares")
                 "vip_parity partitioning needs exactly 2 shares");
          Array.iter
            (fun w ->
              if (not (Float.is_finite w)) || w <= 0.0 then
                add (p line (Some "shares") "shares must be positive"))
            sh
      | Controller { interval; _ } ->
          if Time_ns.to_ns interval <= 0 then
            add (p line (Some "interval_ns") "interval must be positive")
      | _ -> ())
    t.schemes;
  (let (Shards n) = t.shards in
   if n < 1 then
     add (p (at (fun p -> p.p_last)) (Some "shards") "shards must be >= 1"));
  (match t.horizon with
  | Horizon h when Time_ns.to_ns h <= 0 ->
      add (p (at (fun p -> p.p_last)) (Some "horizon") "horizon must be positive")
  | _ -> ());
  if t.seed < 0 then
    add (p (at (fun p -> p.p_last)) (Some "seed") "seed must be non-negative");
  (* Topology-aware checks. *)
  if params_ok then begin
    (* Built only for the checks that read it: at the paper presets a
       build is tens of MB. *)
    let topo = lazy (Topology.build params) in
    (match t.gateways_used with
    | Some k ->
        let total = Array.length (Topology.gateways (Lazy.force topo)) in
        if k < 1 || k > total then
          add
            (p (at (fun p -> p.p_net)) (Some "gateways")
               "gateways must be in [1, %d]" total)
    | None -> ());
    match t.faults with
    | Literal plan ->
        Array.iteri
          (fun i spec ->
            let line = nth_at (fun p -> p.p_fault_specs) i in
            if Time_ns.to_ns spec.Fault.at < 0 then
              add (p line None "fault time must be non-negative");
            match check_fault_action (Lazy.force topo) spec.Fault.action with
            | () -> ()
            | exception Failure m ->
                add (p line (Some (Fault.spec_to_string spec)) "%s" m))
          plan.Fault.specs
    | No_faults | Random _ -> ()
  end;
  List.rev !errs

let validate t =
  match semantic_errors t None with
  | [] -> Ok ()
  | errs -> Error (List.map (fun e -> e.msg) errs)

let of_string src =
  match parse_text src with
  | t, pos -> (
      match semantic_errors t (Some pos) with
      | [] -> Ok t
      | e :: _ -> Error e)
  | exception Err e -> Error e

let validate_string src =
  match parse_text src with
  | t, pos -> (
      match semantic_errors t (Some pos) with [] -> Ok t | errs -> Error errs)
  | exception Err e -> Error [ e ]

let of_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> of_string (really_input_string ic (in_channel_length ic)))

let validate_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> validate_string (really_input_string ic (in_channel_length ic)))

(* --- realization (everything short of scheme construction) ------------- *)

let num_vms t = Params.num_vms (params_of t)

let agg_bps t =
  let p = params_of t in
  float_of_int (Params.num_hosts p) *. p.Params.host_link_bps

(* VIP-parity remap for tenant streams: flows generated over half the
   VIP space stretched onto even/odd VIPs (both tenants have VMs on
   every server, as colocated tenants do). *)
let remap ~parity ~id_base (f : Flow.t) =
  Flow.make ~pkt_bytes:f.Flow.pkt_bytes ~id:(id_base + f.Flow.id)
    ~src_vip:(Vip.of_int ((2 * Vip.to_int f.Flow.src_vip) + parity))
    ~dst_vip:(Vip.of_int ((2 * Vip.to_int f.Flow.dst_vip) + parity))
    ~size_bytes:f.Flow.size_bytes ~start:f.Flow.start f.Flow.proto

let shift_ids ~id_base (f : Flow.t) =
  if id_base = 0 then f
  else
    Flow.make ~pkt_bytes:f.Flow.pkt_bytes ~id:(id_base + f.Flow.id)
      ~src_vip:f.Flow.src_vip ~dst_vip:f.Flow.dst_vip
      ~size_bytes:f.Flow.size_bytes ~start:f.Flow.start f.Flow.proto

let stream_flows t (s : stream) =
  let num_vms = num_vms t and agg_bps = agg_bps t in
  let gen_vms = match s.vips with All -> num_vms | Parity _ -> num_vms / 2 in
  let rng = Rng.create (t.topo.topo_seed + s.seed_delta) in
  let count = int_of_float (s.rate *. float_of_int gen_vms) in
  let raw =
    match s.trace with
    | Hadoop ->
        Tracegen.hadoop rng ~num_vms:gen_vms ~num_flows:count ~load:s.load
          ~agg_bps
    | Websearch ->
        Tracegen.websearch rng ~num_vms:gen_vms ~num_flows:count ~load:s.load
          ~agg_bps
    | Alibaba ->
        Tracegen.alibaba ?zipf_alpha:s.zipf_alpha rng ~num_vms:gen_vms
          ~num_rpcs:count ~load:s.load ~agg_bps
    | Microbursts ->
        Tracegen.microbursts ?zipf_alpha:s.zipf_alpha rng ~num_vms:gen_vms
          ~num_flows:count ~horizon:s.window
    | Video ->
        Tracegen.video rng ~num_vms:gen_vms
          ~senders:(min (int_of_float s.rate) (gen_vms / 2))
          ~duration:s.window
    | Locality ->
        Workloads.Locality_gen.flows rng ~num_vms:gen_vms ~num_flows:count
          ~load:s.load ~agg_bps
          ~locality:
            (match s.zipf_alpha with
            | Some l -> l
            | None -> default_locality)
  in
  match s.vips with
  | All -> List.map (shift_ids ~id_base:s.id_base) raw
  | Parity parity -> List.map (remap ~parity ~id_base:s.id_base) raw

let flows t =
  match t.streams with
  | [] -> []
  | [ s ] -> stream_flows t s
  | streams ->
      (* Stable by-start merge, so equal-start flows keep stream order
         (exactly the multitenant interleave). *)
      List.sort
        (fun (a : Flow.t) b -> compare a.Flow.start b.Flow.start)
        (List.concat_map (stream_flows t) streams)

(* What an automatic horizon adds after the traffic (the last flow
   start or churn end), for the transports to drain. *)
let drain = Time_ns.of_ms 40

let horizon t ~flows =
  match t.horizon with
  | Horizon h -> h
  | Horizon_auto ->
      let last =
        List.fold_left
          (fun acc (f : Flow.t) -> max acc (Time_ns.to_ns f.Flow.start))
          0 flows
      in
      let last =
        match t.churn with
        | Some c -> max last (Time_ns.to_ns (Churn.end_time c))
        | None -> last
      in
      Time_ns.of_ns (last + Time_ns.to_ns drain)

let fault_plan t topo ~until =
  (* A random plan heals by 6/10 of the span it is given, so it is
     given the traffic span, not the drain after it: on a short trace
     6/10 of the whole horizon falls after the last flow start. *)
  let span =
    match t.horizon with
    | Horizon_auto ->
        Time_ns.of_ns (max 0 (Time_ns.to_ns until - Time_ns.to_ns drain))
    | Horizon _ -> until
  in
  let base =
    match t.faults with
    | No_faults -> None
    | Random seed -> Some (Faultplan.generate ~seed ~horizon:span topo)
    | Literal plan -> Some plan
  in
  match t.churn with
  | None -> base
  | Some c -> (
      let churn = Array.of_list (Churn.churn_specs c) in
      match base with
      | None ->
          Some { Fault.seed = t.seed; specs = Fault.sort_specs churn }
      | Some plan ->
          Some
            {
              plan with
              Fault.specs =
                Fault.sort_specs (Array.append plan.Fault.specs churn);
            })

let net_config t =
  {
    Network.default_config with
    Network.seed = t.seed;
    gateways_used = t.gateways_used;
    classify =
      (match t.classify with
      | No_classify -> None
      | Vip_parity ->
          Some
            (fun (pkt : Netcore.Packet.t) ->
              Vip.to_int pkt.Netcore.Packet.dst_vip land 1));
  }

let cache_slots t = function
  | Abs n -> n
  | Pct pct ->
      if pct < 0 then invalid_arg "Scenario.cache_slots: negative percentage";
      num_vms t * pct / 100

let scheme_label t (s : scheme_spec) =
  ignore t;
  match s.label with Some l -> l | None -> scheme_kind_name s.kind
