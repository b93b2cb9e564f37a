(* Order statistics and ratios the benchmark reports.  Percentiles use the
   nearest-rank rule, so every reported latency is a latency that some
   request actually had. *)

(* [p *. n] is computed in floating point (0.99 *. 1000. is not 990.), so
   the ceiling tolerates a sub-ulp overshoot rather than skipping a rank. *)
let rank ~n p =
  if n < 1 then invalid_arg "Stats.rank: no samples";
  if not (p > 0. && p <= 1.) then invalid_arg "Stats.rank: p must be in (0, 1]";
  max 1 (min n (int_of_float (Float.ceil ((p *. float_of_int n) -. 1e-9))))

let beyond ~n p = n - rank ~n p
let percentile sorted p = sorted.(rank ~n:(Array.length sorted) p - 1)
let median xs = percentile (Array.of_list (List.sort Float.compare xs)) 0.5
let min_tail_beyond = 10

let tail sorted p =
  if beyond ~n:(Array.length sorted) p < min_tail_beyond then None
  else Some (percentile sorted p)

let samples_for_tail p =
  let rec go n = if beyond ~n p >= min_tail_beyond then n else go (n + 1) in
  go 1

let share num den =
  if den <= 0 then invalid_arg "Stats.share: empty denominator";
  float_of_int num /. float_of_int den

let per total count =
  if count <= 0 then invalid_arg "Stats.per: empty denominator";
  total /. float_of_int count
