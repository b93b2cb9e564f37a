module Obs = Lk_obs.Obs
module Int_sort = Lk_util.Int_sort

let enumerate robp =
  let n = Robp.size robp in
  if n > 22 then invalid_arg "Exact.enumerate: n > 22";
  let cap = Robp.capacity robp in
  let count = ref 0. in
  for mask = 0 to (1 lsl n) - 1 do
    let sum = ref 0 in
    let j = ref 0 in
    while !j < n && !sum <= cap do
      if mask land (1 lsl !j) <> 0 then sum := !sum + Robp.weight robp !j;
      incr j
    done;
    if !sum <= cap then count := !count +. 1.
  done;
  !count

(* All 2^h subset sums of weights w[lo .. lo+h-1], by doubling:
   sums[2^j + m] = sums[m] + w[lo+j]. *)
let subset_sums robp ~lo h =
  let sums = Array.make (1 lsl h) 0 in
  for j = 0 to h - 1 do
    let wj = Robp.weight robp (lo + j) in
    let base = 1 lsl j in
    for m = 0 to base - 1 do
      sums.(base + m) <- sums.(m) + wj
    done
  done;
  sums

let meet_middle robp =
  let n = Robp.size robp in
  if n > 40 then invalid_arg "Exact.meet_middle: n > 40";
  let cap = Robp.capacity robp in
  let nl = n / 2 in
  let nr = n - nl in
  let left = subset_sums robp ~lo:0 nl in
  let right = subset_sums robp ~lo:nl nr in
  Int_sort.sort left;
  Int_sort.sort right;
  let lr = Array.length right in
  (* Walk left ascending; the number of right sums <= cap - a only
     shrinks, so the boundary pointer moves monotonically down. *)
  let count = ref 0. in
  let b = ref lr in
  let a = ref 0 in
  let ll = Array.length left in
  while !a < ll && left.(!a) <= cap do
    let budget = cap - left.(!a) in
    while !b > 0 && right.(!b - 1) > budget do
      decr b
    done;
    count := !count +. float_of_int !b;
    incr a
  done;
  !count

(* Cheaper engine first: meet-in-the-middle costs ~2^ceil(n/2) sums per
   half, the state DP ~n (K + 1) cell updates.  Both are exact below 2^53,
   so the choice changes the time, never the value. *)
let count_robp robp =
  let n = Robp.size robp in
  if n <= 40 && 1 lsl ((n + 1) / 2) < n * (Robp.capacity robp + 1) then
    meet_middle robp
  else State_dp.count robp

let count ?(sink = Obs.null) oracle =
  Obs.phase sink "exact-count" (fun () -> count_robp (Robp.build ~sink oracle))
