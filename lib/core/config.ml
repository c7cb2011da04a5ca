type allocation =
  | Uniform
  | Tor_only
  | Weighted of {
      tor : float;
      spine : float;
      core : float;
      gw_tor : float;
      gw_spine : float;
    }

type t = {
  p_learn : float;
  learning_packets : bool;
  spillover : bool;
  promotion : bool;
  source_learning : bool;
  invalidations : bool;
  ts_vector : bool;
  allocation : allocation;
  ways : int;
  tinylfu : bool;
}

let default =
  {
    p_learn = 0.005;
    learning_packets = true;
    spillover = true;
    promotion = true;
    source_learning = true;
    invalidations = true;
    ts_vector = true;
    allocation = Uniform;
    ways = 1;
    tinylfu = false;
  }

let make ?(p_learn = default.p_learn)
    ?(learning_packets = default.learning_packets)
    ?(spillover = default.spillover) ?(promotion = default.promotion)
    ?(source_learning = default.source_learning)
    ?(invalidations = default.invalidations) ?(ts_vector = default.ts_vector)
    ?(tor_only = false) ?allocation ?(ways = default.ways)
    ?(tinylfu = default.tinylfu) () =
  if ways <= 0 then invalid_arg "Config.make: ways must be positive";
  let allocation =
    match allocation with
    | Some a -> a
    | None -> if tor_only then Tor_only else Uniform
  in
  {
    p_learn;
    learning_packets;
    spillover;
    promotion;
    source_learning;
    invalidations;
    ts_vector;
    allocation;
    ways;
    tinylfu;
  }
