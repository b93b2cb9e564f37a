(** Weighted-sampling access to a Knapsack instance (§4 of the paper,
    following [IKY12]): drawing returns an item with probability
    proportional to its profit, together with its index.

    Building the sampler (an alias table) is the oracle's one-time cost and
    is not charged to the algorithm, matching the model: the algorithm pays
    one counted sample per draw. *)

type t

(** [of_instance ?sink ~counters inst] builds a sampler over [inst]'s
    profits.  [sink] (default {!Lk_obs.Obs.null}) receives one
    [Oracle_query] trace event per draw.  Raises if the total profit is
    zero. *)
val of_instance : ?sink:Lk_obs.Obs.sink -> counters:Counters.t -> Lk_knapsack.Instance.t -> t

(** [of_weights ?sink ~counters inst weights] samples indices of [inst]
    proportionally to an arbitrary non-negative [weights] array (oracle
    ablations; see {!Lk_oracle.Access.sampling}). *)
val of_weights :
  ?sink:Lk_obs.Obs.sink ->
  counters:Counters.t -> Lk_knapsack.Instance.t -> float array -> t

(** Number of items. *)
val size : t -> int

val counters : t -> Counters.t

(** [with_counters t counters] shares the (expensive) alias table but
    charges [counters] instead; see {!Query_oracle.with_counters}. *)
val with_counters : t -> Counters.t -> t

(** [with_sink t sink] shares the alias table but emits trace events to
    [sink]; the tracing analogue of {!with_counters}. *)
val with_sink : t -> Lk_obs.Obs.sink -> t

(** [sample t rng] draws one item: [(index, item)], charging one sample. *)
val sample : t -> Lk_util.Rng.t -> int * Lk_knapsack.Item.t

(** [sample_many t rng k] draws [k] items i.i.d. (one bulk charge and one
    bulk [Weighted_batch] trace event). *)
val sample_many : t -> Lk_util.Rng.t -> int -> (int * Lk_knapsack.Item.t) array

(** [sample_each t rng ~block k f] draws [k] items i.i.d. and calls
    [f index item] on each, in draw order.  The draws are made
    [Array.length block] at a time into the caller-owned scratch [block]
    (contents clobbered), but every draw is charged and traced on its own:
    indices, counter totals and the trace (one [Weighted_sample] event per
    draw, emitted just before its [f] call) are exactly those of [k]
    successive {!sample} calls interleaved with [f].  [f] must not draw
    from [rng].  Raises [Invalid_argument] if [block] is empty or [k < 0]. *)
val sample_each :
  t -> Lk_util.Rng.t -> block:int array -> int -> (int -> Lk_knapsack.Item.t -> unit) -> unit
