(** Order statistics and ratios reported by the benchmark. *)

(** [rank ~n p] is the 1-based nearest rank of percentile [p] (in (0, 1])
    among [n] sorted samples: the smallest rank with at least a [p] share of
    the samples at or below it. *)
val rank : n:int -> float -> int

(** Samples strictly beyond rank [p] out of [n]. *)
val beyond : n:int -> float -> int

(** [percentile sorted p] — nearest-rank percentile of an ascending array. *)
val percentile : float array -> float -> float

(** Nearest-rank median of an unsorted list. *)
val median : float list -> float

(** How many samples a tail percentile must leave beyond it (10). *)
val min_tail_beyond : int

(** [tail sorted p] is [Some (percentile sorted p)] when at least
    {!min_tail_beyond} samples lie beyond it, [None] otherwise. *)
val tail : float array -> float -> float option

(** Smallest sample count for which {!tail} at [p] is defined. *)
val samples_for_tail : float -> int

(** [share num den] = num / den; raises [Invalid_argument] when [den <= 0]. *)
val share : int -> int -> float

(** [per total count] = total / count; raises [Invalid_argument] when
    [count <= 0]. *)
val per : float -> int -> float
