(* Exact forward DP.  A layer is held in one of two forms:
   - list: sorted reachable weights w[0..m-1] with path counts c[0..m-1];
     the next layer is the sorted-merge of the "skip" copy (weights
     unchanged) with the "take" shift (w + wi, kept while <= capacity),
     equal weights adding their counts, written front-to-back into the
     other slot of an int/float ping-pong in the Dp_scratch idiom;
   - grid: e[v] = number of paths to weight v over [0, top], 0. where v is
     unreachable, updated in place from the top down.
   A layer runs on the grid exactly when [Count_scratch.dense] says its
   states fill half of the [0, hi] span it can reach.  Both forms add the
   same counts in the same order (skip + take per weight, ascending final
   sum), and an unreachable weight contributes [+. 0.], which changes no
   bit, so the count does not depend on which form ran. *)

module A1 = Bigarray.Array1

type ints = Count_scratch.int_table
type floats = Count_scratch.float_table

let max_states = 4_000_000

let[@hot] merge_list (w : ints) (c : floats) mc ~wi ~cap (wnext : ints)
    (cnext : floats) =
  let sb = ref mc in
  while !sb > 0 && A1.unsafe_get w (!sb - 1) + wi > cap do
    decr sb
  done;
  let a = ref 0 and b = ref 0 and out = ref 0 in
  while !a < mc || !b < !sb do
    let wa = if !a < mc then A1.unsafe_get w !a else max_int in
    let wb = if !b < !sb then A1.unsafe_get w !b + wi else max_int in
    if wa < wb then begin
      A1.unsafe_set wnext !out wa;
      A1.unsafe_set cnext !out (A1.unsafe_get c !a);
      incr a;
      incr out
    end
    else if wb < wa then begin
      A1.unsafe_set wnext !out wb;
      A1.unsafe_set cnext !out (A1.unsafe_get c !b);
      incr b;
      incr out
    end
    else begin
      A1.unsafe_set wnext !out wa;
      A1.unsafe_set cnext !out (A1.unsafe_get c !a +. A1.unsafe_get c !b);
      incr a;
      incr b;
      incr out
    end
  done;
  !out

(* Reachable weights on a grid: every path count is >= 1. *)
let[@hot] reachable (e : floats) top =
  let k = ref 0 in
  for v = 0 to top do
    if A1.unsafe_get e v > 0. then incr k
  done;
  !k

let[@hot] grid_of_list (w : ints) (c : floats) m (e : floats) top =
  for v = 0 to top do
    A1.unsafe_set e v 0.
  done;
  for j = 0 to m - 1 do
    A1.unsafe_set e (A1.unsafe_get w j) (A1.unsafe_get c j)
  done

let[@hot] list_of_grid (e : floats) top (w : ints) (c : floats) =
  let m = ref 0 in
  for v = 0 to top do
    let x = A1.unsafe_get e v in
    if x > 0. then begin
      A1.unsafe_set w !m v;
      A1.unsafe_set c !m x;
      incr m
    end
  done;
  !m

let[@hot] count_in scratch robp =
  let n = Robp.size robp in
  let cap = Robp.capacity robp in
  (* Slot parity p holds the current layer; 1-p receives the next one.
     Growing slot 1-p never moves slot p's table (Count_scratch contract).
     On the grid, [m] is not tracked: [top + 1] bounds the state count. *)
  let p = ref 0 in
  let m = ref 1 in
  let grid = ref false in
  let top = ref 0 in
  let wcur = ref (Count_scratch.int_slot_raw scratch 0 1) in
  let ccur = ref (Count_scratch.float_slot_raw scratch 0 1) in
  A1.unsafe_set !wcur 0 0;
  A1.unsafe_set !ccur 0 1.;
  for i = 0 to n - 1 do
    let wi = Robp.weight robp i in
    if wi = 0 then begin
      (* Take/skip coincide in weight: counts just double in place. *)
      let c = !ccur in
      for j = 0 to (if !grid then !top else !m - 1) do
        A1.unsafe_set c j (2. *. A1.unsafe_get c j)
      done
    end
    else begin
      let states = if !grid then !top + 1 else !m in
      if
        2 * states > max_states
        && ((not !grid) || 2 * reachable !ccur !top > max_states)
      then
        invalid_arg "State_dp.count: state explosion (raise capacity/n limits)";
      let hi = if !top + wi < cap then !top + wi else cap in
      let dense = Count_scratch.dense ~states ~hi in
      let q = 1 - !p in
      if dense then begin
        (* Onto (or within) the grid: the in-place update needs [0, hi];
           a slot too short for it moves to the other slot, which is
           sized for [hi] and never moves the current one. *)
        let e = !ccur in
        if (not !grid) || A1.dim e <= hi then begin
          let e' = Count_scratch.float_slot_raw scratch q (hi + 1) in
          if !grid then
            for v = 0 to !top do
              A1.unsafe_set e' v (A1.unsafe_get e v)
            done
          else grid_of_list !wcur e !m e' !top;
          p := q;
          ccur := e';
          grid := true
        end;
        let e = !ccur in
        for v = !top + 1 to hi do
          A1.unsafe_set e v 0.
        done;
        for v = hi downto wi do
          A1.unsafe_set e v (A1.unsafe_get e v +. A1.unsafe_get e (v - wi))
        done;
        top := hi
      end
      else begin
        if !grid then begin
          let wl = Count_scratch.int_slot_raw scratch q (!top + 1) in
          let cl = Count_scratch.float_slot_raw scratch q (!top + 1) in
          m := list_of_grid !ccur !top wl cl;
          p := q;
          wcur := wl;
          ccur := cl;
          grid := false
        end;
        let q = 1 - !p in
        let mc = !m in
        let wnext = Count_scratch.int_slot_raw scratch q (2 * mc) in
        let cnext = Count_scratch.float_slot_raw scratch q (2 * mc) in
        m := merge_list !wcur !ccur mc ~wi ~cap wnext cnext;
        p := q;
        wcur := wnext;
        ccur := cnext;
        top := A1.unsafe_get wnext (!m - 1)
      end
    end
  done;
  let total = ref 0. in
  let c = !ccur in
  for j = 0 to (if !grid then !top else !m - 1) do
    total := !total +. A1.unsafe_get c j
  done;
  !total

let count robp = count_in (Count_scratch.create ()) robp
