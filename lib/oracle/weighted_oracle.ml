module Obs = Lk_obs.Obs

type t = {
  instance : Lk_knapsack.Instance.t;
  alias : Lk_stats.Alias.t;
  counters : Counters.t;
  sink : Obs.sink;
}

let of_weights ?(sink = Obs.null) ~counters instance weights =
  if Array.length weights <> Lk_knapsack.Instance.size instance then
    invalid_arg "Weighted_oracle.of_weights: length mismatch";
  { instance; alias = Lk_stats.Alias.create weights; counters; sink }

let of_instance ?sink ~counters instance =
  of_weights ?sink ~counters instance (Lk_knapsack.Instance.profits instance)

let size t = Lk_knapsack.Instance.size t.instance
let counters t = t.counters
let with_counters t counters = { t with counters }
let with_sink t sink = { t with sink }

let sample t rng =
  Counters.charge_weighted_sample t.counters;
  let i = Lk_stats.Alias.sample t.alias rng in
  Obs.emit_weighted_sample t.sink i;
  (i, Lk_knapsack.Instance.item t.instance i)

(* Batched: one bulk charge, one bulk trace event, and one alias batch
   fill.  Stream consumption and charge totals are identical to [k]
   successive [sample] calls. *)
let sample_many t rng k =
  Counters.charge_weighted_samples t.counters k;
  Obs.emit_weighted_batch t.sink k;
  let idx = Lk_stats.Alias.sample_many t.alias rng k in
  Array.map (fun i -> (i, Lk_knapsack.Instance.item t.instance i)) idx

(* Block draws: the alias loop fills the caller's fixed-size [block] with
   the next [min k (length block)] draws at once, so the table lookups of a
   block overlap in the memory system instead of each draw waiting on its
   own cache misses.  Each draw is then charged, traced and handed to [f]
   in draw order — the effects of [k] successive [sample] calls, as long as
   [f] does not draw from [rng] itself. *)
let sample_each t rng ~block k f =
  let b = Array.length block in
  if b = 0 then invalid_arg "Weighted_oracle.sample_each: empty block";
  if k < 0 then invalid_arg "Weighted_oracle.sample_each: negative count";
  let left = ref k in
  while !left > 0 do
    let len = min b !left in
    Lk_stats.Alias.sample_many_into ~len t.alias rng block;
    for j = 0 to len - 1 do
      let i = Array.unsafe_get block j in
      Counters.charge_weighted_sample t.counters;
      Obs.emit_weighted_sample t.sink i;
      f i (Lk_knapsack.Instance.item t.instance i)
    done;
    left := !left - len
  done
