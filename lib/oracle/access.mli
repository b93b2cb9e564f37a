(** Bundled access to one Knapsack instance under the paper's §4 model:
    point queries plus weighted sampling, over the *profit-normalized* view
    of the instance (Definition 2.2 normalizes total profit to 1).

    One [Access.t] is shared by all runs of an LCA on the same instance;
    each run brings its own RNG for sampling, so runs are independent. *)

type t

(** What {!sample} draws proportionally to.  The paper's model (§4,
    following [IKY12]) is [`Profit]; the others exist for the oracle
    ablation (experiment E12): they respect the interface but violate the
    model's distributional promise, which is exactly the failure mode the
    algorithm's analysis leans on. *)
type sampling = [ `Profit | `Weight | `Uniform ]

(** [of_instance ?sampling ?sink inst] normalizes the instance (profits to
    total 1, and weights with the capacity to total weight 1 — the paper's
    §4 convention) and builds both oracles with a shared counter set.
    [sampling] defaults to [`Profit]; [sink] (default {!Lk_obs.Obs.null})
    receives one trace event per oracle access. *)
val of_instance : ?sampling:sampling -> ?sink:Lk_obs.Obs.sink -> Lk_knapsack.Instance.t -> t

(** The sampling mode this access was built with. *)
val sampling : t -> sampling

(** [with_counters t counters] is a view of [t] that shares the normalized
    instance and the one-time alias table but charges every access to
    [counters].  The parallel trial engine hands each concurrent trial its
    own counter set through this, so query accounting stays exact (no lost
    increments) and merges deterministically. *)
val with_counters : t -> Counters.t -> t

(** [with_sink t sink] is a view of [t] that shares the instance, alias
    table, and counters but emits trace events to [sink] — the tracing
    analogue of {!with_counters}.  Sinks are single-domain: concurrent
    trials must each get their own (see {!Lk_parallel.Engine.run_traced}),
    exactly as with counters. *)
val with_sink : t -> Lk_obs.Obs.sink -> t

(** The trace sink this access emits to ({!Lk_obs.Obs.null} by default).
    {!Lk_lcakp.Lca_kp} reads it to emit phase and cache events alongside
    the oracle's own events. *)
val sink : t -> Lk_obs.Obs.sink

(** The normalized instance backing the oracles.  Experiments may read it
    directly (e.g. to compute OPT); algorithms under measurement must go
    through {!query} / {!sample}. *)
val normalized : t -> Lk_knapsack.Instance.t

(** Multiplier that was applied to profits ([1 / original total profit]). *)
val profit_scale : t -> float

val size : t -> int
val capacity : t -> float
val counters : t -> Counters.t

(** [query t i] reveals item [i] of the normalized instance (one counted
    index query). *)
val query : t -> int -> Lk_knapsack.Item.t

(** [query_many t idx] reveals every index in [idx]; the bill equals a
    fold of {!query} (k index queries) but the counters are charged in
    bulk and the trace carries one [Index_batch] event — the batched
    serving path's amortized oracle access. *)
val query_many : t -> int array -> Lk_knapsack.Item.t array

(** [sample t rng] draws a profit-weighted item (one counted sample). *)
val sample : t -> Lk_util.Rng.t -> int * Lk_knapsack.Item.t

(** [sample_many t rng k] draws [k] items i.i.d. *)
val sample_many : t -> Lk_util.Rng.t -> int -> (int * Lk_knapsack.Item.t) array

(** [sample_each t rng ~block k f] draws [k] items and hands each
    [(index, item)] to [f] in draw order, filling the caller-owned [block]
    scratch a block at a time; results, bill and trace equal [k] calls of
    {!sample} (see {!Weighted_oracle.sample_each}). *)
val sample_each :
  t -> Lk_util.Rng.t -> block:int array -> int -> (int -> Lk_knapsack.Item.t -> unit) -> unit
