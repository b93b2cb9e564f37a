(** Exact forward DP over the ROBP's reachable states.

    Layer by layer, keeps every reachable prefix weight [<= capacity] with
    the exact number of paths reaching it — no rounding, no merging beyond
    identical weights.  A layer is a sorted list of (weight, count) pairs,
    merged with its "take" shift, until the reachable weights fill at least
    half of the span the next layer can reach ({!Count_scratch.dense}); it
    then runs on a dense grid indexed by weight, updated in place
    ([e.(v) <- e.(v) +. e.(v - w)], top down), and returns to the list if
    the span outgrows it.  Both forms add the same counts in the same order,
    so the result is bit-identical whichever runs.  The number of states
    can grow to [min (capacity + 1) 2^i], so this is the exact reference
    for moderate instances (bounded by {!max_states}) and the semantics
    that {!Gkm} approximates.

    Counts are accumulated in floats: exact as long as the true count stays
    below [2^53], which every differential-test configuration does. *)

(** Hard cap on the per-layer state count; [count] raises
    [Invalid_argument] when a layer would exceed it. *)
val max_states : int

(** [count_in scratch robp] — number of feasible subsets (the empty set
    included), reusing [scratch]'s buffers. *)
val count_in : Count_scratch.t -> Robp.t -> float

(** [count robp] with a private scratch. *)
val count : Robp.t -> float
