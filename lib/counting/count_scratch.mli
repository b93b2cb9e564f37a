(** Reusable flat workspaces for the counting kernels.

    Same discipline as {!Lk_knapsack.Dp_scratch}: one scratch value owns a
    small fixed set of grow-only [Bigarray] slots; kernels acquire a slot of
    at least the requested length and index it manually.  Buffers only ever
    grow, so a counter that is called in a loop (bench, qcheck suite,
    experiment fan-out) settles into zero steady-state allocation.

    Slots come in two flavours:
    - [int_slot]/[float_slot] re-initialize the requested prefix (C memset
      path) — use when the kernel reads before it writes;
    - [int_slot_raw]/[float_slot_raw] only guarantee capacity — use for
      ping-pong layer buffers that the kernel overwrites front-to-back.

    A scratch value is single-owner state: kernels running on distinct
    domains must each hold their own (the parallel engine's per-trial
    closures do exactly that). *)

type int_table = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type float_table =
  (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type t

val create : unit -> t

(** Number of independent slots of each element type. *)
val int_slots : int

val float_slots : int

(** [int_slot t k len ~fill] — slot [k] grown to at least [len], with the
    first [len] cells set to [fill].  Raises [Invalid_argument] when [k] is
    out of range. *)
val int_slot : t -> int -> int -> fill:int -> int_table

val float_slot : t -> int -> int -> fill:float -> float_table

(** Capacity-only acquisition: contents of the prefix are unspecified
    (stale data from a previous call).  Growing one slot never disturbs the
    tables previously returned for {e other} slots — a kernel may hold a
    "current layer" table while growing the "next layer" slot. *)
val int_slot_raw : t -> int -> int -> int_table

val float_slot_raw : t -> int -> int -> float_table

(** [dense ~states ~hi] — the list-or-grid rule the layer kernels
    ({!Gkm}, {!State_dp}) share: a layer whose [states] entries fill at
    least half of the span [[0, hi]] it can reach runs on a dense grid
    indexed by weight; a sparser one runs on the sorted list. *)
val dense : states:int -> hi:int -> bool
