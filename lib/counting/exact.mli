(** Exact #Knapsack for small instances — the differential oracle the
    approximate counters are pinned against.

    Three engines, in increasing reach:
    - {!enumerate}: direct [2^n] subset scan, [n <= 22];
    - {!meet_middle}: split-halves subset sums + sorted two-pointer pair
      count, [n <= 40];
    - {!State_dp.count}: exact layer DP (sorted list, or dense grid once
      the layer fills it), bounded by capacity rather than [n].

    All counts include the empty set (so every instance has count >= 1),
    and are exact while below [2^53]. *)

(** [enumerate robp] — [2^n] scan; raises [Invalid_argument] when [n > 22]. *)
val enumerate : Robp.t -> float

(** [meet_middle robp] — meet-in-the-middle; raises [Invalid_argument]
    when [n > 40]. *)
val meet_middle : Robp.t -> float

(** [count ?sink oracle] — builds the ROBP through [oracle] (exactly [n]
    counted queries) inside an ["exact-count"] phase bracket, then counts
    with the cheaper exact engine: {!meet_middle} when [n <= 40] and
    [2^ceil(n/2) < n (K + 1)] ([K] the capacity), {!State_dp} otherwise. *)
val count : ?sink:Lk_obs.Obs.sink -> Lk_oracle.Query_oracle.t -> float

(** [count_robp robp] — the same dispatch on a frozen program. *)
val count_robp : Robp.t -> float
