module A1 = Bigarray.Array1
module Obs = Lk_obs.Obs

(* Concrete element types: a helper over polymorphic Bigarrays would go
   through the generic C accessors and box every float it reads.  The two
   sparsify loops below are [@inline] for the same reason: a float
   argument ([threshold]) passed to a real call is boxed. *)
type ints = Count_scratch.int_table
type floats = Count_scratch.float_table

type result = {
  estimate : float;
  lower : float;
  upper : float;
  width : int;
  width_budget : int;
  merges : int;
  delta : float;
  queries : int;
}

let check_args ~eps ~width =
  if not (Float.is_finite eps) || eps <= 0. || eps > 1. then
    invalid_arg "Gkm.count: eps must be in (0, 1]";
  if width < 1 then invalid_arg "Gkm.count: width must be >= 1"

(* A layer is held in one of two forms, both in int/float slots 0/1
   (parity [p] holds the current layer, [1 - p] receives the next):
   - list: sorted kept breakpoints x[0..m-1] (x[0] = 0) with their
     cumulative counts c[j] = F(x[j]);
   - grid: over [0, top], top the last kept breakpoint, d[v] = F(v) and
     the breakpoint flag b[v] in {0, 1}.
   A layer runs on the grid exactly when [Count_scratch.dense] says its
   states fill half of the [0, hi] span it can reach; sparse, huge-capacity
   and width-capped programs stay on the list.  Both forms compute the
   successor at the same candidates with the same float additions in the
   same order, so the result does not depend on which form ran. *)

(* List step, part 1: the true successor CDF G(v) = F(v) + F(v - w) at
   every candidate v in {x[j]} u {x[k] + w <= cap}, merged ascending into
   [xraw]/[craw]; returns the candidate count. *)
let[@hot] merge_list (x : ints) (c : floats) mc ~w ~cap (xraw : ints)
    (craw : floats) =
  let sb = ref mc in
  while !sb > 0 && A1.unsafe_get x (!sb - 1) + w > cap do
    decr sb
  done;
  let a = ref 0 and b = ref 0 and q = ref (-1) and out = ref 0 in
  while !a < mc || !b < !sb do
    let va = if !a < mc then A1.unsafe_get x !a else max_int in
    let vb = if !b < !sb then A1.unsafe_get x !b + w else max_int in
    if va <= vb then begin
      (* F(va - w): advance the trailing pointer q over x. *)
      let lim = va - w in
      while !q + 1 < mc && A1.unsafe_get x (!q + 1) <= lim do
        incr q
      done;
      let below = if !q >= 0 then A1.unsafe_get c !q else 0. in
      A1.unsafe_set xraw !out va;
      A1.unsafe_set craw !out (A1.unsafe_get c !a +. below);
      incr a;
      if vb = va then incr b;
      incr out
    end
    else begin
      (* vb = x[b] + w strictly between orig breakpoints: the last
         orig <= vb is a - 1 (a >= 1 since x[0] = 0 <= vb was emitted). *)
      A1.unsafe_set xraw !out vb;
      A1.unsafe_set craw !out (A1.unsafe_get c (!a - 1) +. A1.unsafe_get c !b);
      incr b;
      incr out
    end
  done;
  !out

(* List step, part 2: keep a candidate only when its count is at least
   (1 + delta) times the last kept one (so always the first); returns the
   kept count.  Dropping
   the others under-counts by at most (1 + delta) at any point, which is
   the layer's certified error factor. *)
let[@hot] [@inline] sparsify_list (xraw : ints) (craw : floats) raw ~threshold
    (xnext : ints) (cnext : floats) =
  let last = ref neg_infinity in
  let k = ref 0 in
  for j = 0 to raw - 1 do
    let g = A1.unsafe_get craw j in
    if g >= !last *. threshold then begin
      A1.unsafe_set xnext !k (A1.unsafe_get xraw j);
      A1.unsafe_set cnext !k g;
      last := g;
      incr k
    end
  done;
  !k

(* What a grid walk reports besides its kept count. *)
type walk = { mutable raw : int; mutable top : int }

(* Grid step: one ascending pass over v in [0, hi] does the list step's
   merge and sparsify at once.  v is a candidate when it is a skip
   breakpoint (b[v], v <= top) or a take breakpoint (b[v - w], v >= w);
   there G(v) = F(v) + F(v - w), with F = d[top] past the top and
   F(v - w) = 0. below w (the merge's [+. 0.] changes no bit: every count
   is positive).  The pass runs as four loops over the ranges where those
   two conditions are fixed.  Writes d'/b' over [0, hi] (d' holds the last
   kept count, so it is F' past the new top too); returns the kept count,
   with the candidate count and the new top in [st].  The keep test is
   written out in each loop: a shared helper would need the refs, which
   would then be heap cells and box [last] on every write. *)
let[@hot] [@inline] walk_grid (d : floats) (b : ints) ~top ~w ~hi ~threshold
    (d' : floats) (b' : ints) st =
  let dtop = A1.unsafe_get d top in
  let last = ref neg_infinity in
  let kept = ref 0 and raw = ref 0 and ktop = ref 0 in
  (* v < w, v <= top: skip breakpoints only. *)
  for v = 0 to (if top < w - 1 then top else w - 1) do
    if A1.unsafe_get b v = 0 then A1.unsafe_set b' v 0
    else begin
      incr raw;
      let g = A1.unsafe_get d v in
      if g >= !last *. threshold then begin
        last := g;
        incr kept;
        ktop := v;
        A1.unsafe_set b' v 1
      end
      else A1.unsafe_set b' v 0
    end;
    A1.unsafe_set d' v !last
  done;
  (* w <= v <= top: both copies; the bulk of a dense layer. *)
  for v = w to top do
    if A1.unsafe_get b v lor A1.unsafe_get b (v - w) = 0 then
      A1.unsafe_set b' v 0
    else begin
      incr raw;
      let g = A1.unsafe_get d v +. A1.unsafe_get d (v - w) in
      if g >= !last *. threshold then begin
        last := g;
        incr kept;
        ktop := v;
        A1.unsafe_set b' v 1
      end
      else A1.unsafe_set b' v 0
    end;
    A1.unsafe_set d' v !last
  done;
  (* top < v < w: no candidates. *)
  for v = top + 1 to (if hi < w - 1 then hi else w - 1) do
    A1.unsafe_set b' v 0;
    A1.unsafe_set d' v !last
  done;
  (* v > top, v >= w: take breakpoints only. *)
  for v = (if w > top + 1 then w else top + 1) to hi do
    if A1.unsafe_get b (v - w) = 0 then A1.unsafe_set b' v 0
    else begin
      incr raw;
      let g = dtop +. A1.unsafe_get d (v - w) in
      if g >= !last *. threshold then begin
        last := g;
        incr kept;
        ktop := v;
        A1.unsafe_set b' v 1
      end
      else A1.unsafe_set b' v 0
    end;
    A1.unsafe_set d' v !last
  done;
  st.raw <- !raw;
  st.top <- !ktop;
  !kept

(* List -> grid over [0, x[m-1]]: each breakpoint's count covers the
   steps up to the next breakpoint. *)
let[@hot] grid_of_list (x : ints) (c : floats) m (d : floats) (b : ints) =
  for j = 0 to m - 1 do
    let lo = A1.unsafe_get x j in
    let hi = if j + 1 < m then A1.unsafe_get x (j + 1) - 1 else lo in
    let cj = A1.unsafe_get c j in
    for v = lo to hi do
      A1.unsafe_set b v 0;
      A1.unsafe_set d v cj
    done;
    A1.unsafe_set b lo 1
  done

(* Grid -> list: the flagged cells, ascending; returns their number. *)
let[@hot] list_of_grid (d : floats) (b : ints) top (x : ints) (c : floats) =
  let m = ref 0 in
  for v = 0 to top do
    if A1.unsafe_get b v <> 0 then begin
      A1.unsafe_set x !m v;
      A1.unsafe_set c !m (A1.unsafe_get d v);
      incr m
    end
  done;
  !m

let[@hot] count_in ?(width = max_int) ~eps scratch robp =
  check_args ~eps ~width;
  let n = Robp.size robp in
  let cap = Robp.capacity robp in
  let delta0 = eps /. (2. *. float_of_int (n + 1)) in
  let st = { raw = 0; top = 0 } in
  let grid = ref false in
  let p = ref 0 in
  let m = ref 1 in
  let top = ref 0 in
  (* List form: breakpoints / counts.  Grid form: flags / values. *)
  let xcur = ref (Count_scratch.int_slot_raw scratch 0 1) in
  let ccur = ref (Count_scratch.float_slot_raw scratch 0 1) in
  A1.unsafe_set !xcur 0 0;
  A1.unsafe_set !ccur 0 1.;
  let err = ref 1. in
  let max_width = ref 1 in
  let merges = ref 0 in
  let max_delta = ref 0. in
  for i = 0 to n - 1 do
    let wi = Robp.weight robp i in
    if wi = 0 then begin
      (* Take/skip coincide: the CDF doubles pointwise; no new
         breakpoints, no rounding, no error. *)
      let c = !ccur in
      for j = 0 to (if !grid then !top else !m - 1) do
        A1.unsafe_set c j (2. *. A1.unsafe_get c j)
      done
    end
    else begin
      let hi = if !top + wi < cap then !top + wi else cap in
      let dense = Count_scratch.dense ~states:!m ~hi in
      if dense <> !grid then begin
        let q = 1 - !p in
        let x = Count_scratch.int_slot_raw scratch q (!top + 1) in
        let c = Count_scratch.float_slot_raw scratch q (!top + 1) in
        if dense then grid_of_list !xcur !ccur !m c x
        else m := list_of_grid !ccur !xcur !top x c;
        p := q;
        xcur := x;
        ccur := c;
        grid := dense
      end;
      let q = 1 - !p in
      let x = !xcur and c = !ccur in
      let mc = !m in
      (* The raw merge slot serves the list only; the grid needs none. *)
      let rlen = if dense then 0 else 2 * mc in
      let xraw = Count_scratch.int_slot_raw scratch 2 rlen in
      let craw = Count_scratch.float_slot_raw scratch 2 rlen in
      let raw = if dense then 0 else merge_list x c mc ~w:wi ~cap xraw craw in
      let len = if dense then hi + 1 else raw in
      let xnext = Count_scratch.int_slot_raw scratch q len in
      let cnext = Count_scratch.float_slot_raw scratch q len in
      (* Sparsify, doubling delta until the width budget holds; an overrun
         re-walks the untouched current layer (grid) or raw merge (list). *)
      let delta = ref delta0 in
      let kept = ref 0 in
      let continue = ref true in
      while !continue do
        let threshold = 1. +. !delta in
        kept :=
          if dense then
            walk_grid c x ~top:!top ~w:wi ~hi ~threshold cnext xnext st
          else sparsify_list xraw craw raw ~threshold xnext cnext;
        if !kept <= width then continue := false else delta := 2. *. !delta
      done;
      let raw = if dense then st.raw else raw in
      err := !err *. (1. +. !delta);
      if !delta > !max_delta then max_delta := !delta;
      merges := !merges + (raw - !kept);
      if !kept > !max_width then max_width := !kept;
      p := q;
      m := !kept;
      top := if dense then st.top else A1.unsafe_get xnext (!kept - 1);
      xcur := xnext;
      ccur := cnext
    end
  done;
  let lower = A1.unsafe_get !ccur (if !grid then !top else !m - 1) in
  let bound = Robp.solutions_bound robp in
  let upper = Float.min (lower *. !err) bound in
  (* Geometric mean as a product of roots: [lower *. upper] can overflow
     near log2 Z ~ 512 even when the mean itself is representable.  When
     the certified ceiling overflows outright (a width cap that compounded
     the per-layer ratio past the float range) the mean is meaningless;
     fall back on the certified floor. *)
  let estimate =
    if Float.is_finite upper then sqrt lower *. sqrt upper else lower
  in
  {
    estimate;
    lower;
    upper;
    width = !max_width;
    width_budget = width;
    merges = !merges;
    delta = !max_delta;
    queries = n;
  }

let count ?(sink = Obs.null) ?width ~eps oracle =
  Obs.phase sink "gkm-count" (fun () ->
      let robp = Robp.build ~sink oracle in
      let scratch = Count_scratch.create () in
      count_in ?width ~eps scratch robp)
