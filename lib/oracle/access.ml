module Obs = Lk_obs.Obs

type sampling = [ `Profit | `Weight | `Uniform ]

type t = {
  normalized : Lk_knapsack.Instance.t;
  profit_scale : float;
  query_oracle : Query_oracle.t;
  weighted : Weighted_oracle.t;
  counters : Counters.t;
  sink : Obs.sink;
  sampling : sampling;
}

let of_instance ?(sampling = `Profit) ?(sink = Obs.null) inst =
  let total = Lk_knapsack.Instance.total_profit inst in
  let normalized = Lk_knapsack.Instance.normalize inst in
  let counters = Counters.create () in
  let sampler_weights =
    match sampling with
    | `Profit -> Lk_knapsack.Instance.profits normalized
    | `Weight -> Lk_knapsack.Instance.weights normalized
    | `Uniform -> Array.make (Lk_knapsack.Instance.size normalized) 1.
  in
  {
    normalized;
    profit_scale = 1. /. total;
    query_oracle = Query_oracle.of_instance ~sink ~counters normalized;
    weighted = Weighted_oracle.of_weights ~sink ~counters normalized sampler_weights;
    counters;
    sink;
    sampling;
  }

let sampling t = t.sampling

let with_counters t counters =
  {
    t with
    counters;
    query_oracle = Query_oracle.with_counters t.query_oracle counters;
    weighted = Weighted_oracle.with_counters t.weighted counters;
  }

let with_sink t sink =
  {
    t with
    sink;
    query_oracle = Query_oracle.with_sink t.query_oracle sink;
    weighted = Weighted_oracle.with_sink t.weighted sink;
  }

let sink t = t.sink

let normalized t = t.normalized
let profit_scale t = t.profit_scale
let size t = Lk_knapsack.Instance.size t.normalized
let capacity t = Lk_knapsack.Instance.capacity t.normalized
let counters t = t.counters
let query t i = Query_oracle.item t.query_oracle i
let query_many t idx = Query_oracle.items t.query_oracle idx
let sample t rng = Weighted_oracle.sample t.weighted rng
let sample_many t rng k = Weighted_oracle.sample_many t.weighted rng k
let sample_each t rng ~block k f = Weighted_oracle.sample_each t.weighted rng ~block k f
