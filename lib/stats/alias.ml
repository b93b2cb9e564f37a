type t = {
  prob : float array;  (* probability of staying in the cell *)
  alias : int array;   (* fallback index of the cell *)
  weights : float array;  (* normalized weights, for [probability] *)
}

let[@hot] create weights =
  let n = Array.length weights in
  if n = 0 then invalid_arg "Alias.create: empty weights";
  Array.iter (fun w -> if w < 0. || not (Float.is_finite w) then
                 invalid_arg "Alias.create: weights must be finite and non-negative") weights;
  let total = Lk_util.Float_utils.sum weights in
  if total <= 0. then invalid_arg "Alias.create: total weight must be positive";
  let norm = Array.map (fun w -> w /. total) weights in
  let scaled = Array.map (fun p -> p *. float_of_int n) norm in
  let prob = Array.make n 1. and alias = Array.init n (fun i -> i) in
  (* Vose pairing with two flat FIFO queues (head/tail cursors into int
     arrays) instead of [Queue.t]: the pairing order — and with it the
     prob/alias tables and every downstream sample stream — is exactly that
     of the boxed queues, without a cons cell per push.  Capacity 2n covers
     the worst case: n initial pushes plus one re-push per pairing step, of
     which there are at most n − 1. *)
  let small = Array.make (2 * n) 0 and large = Array.make (2 * n) 0 in
  let sh = ref 0 and st = ref 0 and lh = ref 0 and lt = ref 0 in
  for i = 0 to n - 1 do
    if Array.unsafe_get scaled i < 1. then begin small.(!st) <- i; incr st end
    else begin large.(!lt) <- i; incr lt end
  done;
  while !sh < !st && !lh < !lt do
    let s = small.(!sh) and l = large.(!lh) in
    incr sh;
    incr lh;
    prob.(s) <- scaled.(s);
    alias.(s) <- l;
    scaled.(l) <- scaled.(l) +. scaled.(s) -. 1.;
    if scaled.(l) < 1. then begin small.(!st) <- l; incr st end
    else begin large.(!lt) <- l; incr lt end
  done;
  (* Remaining cells keep probability 1 (numerical leftovers). *)
  { prob; alias; weights = norm }

let size t = Array.length t.prob
let probability t i = t.weights.(i)
let cell t i = (t.prob.(i), t.alias.(i))

(* One draw: a uniform cell, then the stay/alias coin.  The coin is
   [Rng.float rng < prob.(i)] with [Rng.float] written out (its documented
   definition, [bits53 * 2^-53]): across the module boundary [Rng.float]
   returns a boxed float, while this keeps the comparison unboxed, so a draw
   allocates nothing.  The stream consumed and the index drawn are the
   same. *)
let[@inline] draw prob alias n rng =
  let i = Lk_util.Rng.int_bound rng n in
  if Stdlib.float_of_int (Lk_util.Rng.bits53 rng) *. 0x1p-53 < Array.unsafe_get prob i then i
  else Array.unsafe_get alias i

let sample t rng = draw t.prob t.alias (size t) rng

(* Batched draws: one tight loop over a caller-owned buffer, consuming the
   stream in exactly the per-draw order of [sample], so a batch of [k] and
   [k] single draws from equal rng states produce identical indices.  The
   draws of one batch do not depend on each other's table lookups, so their
   cache misses on a large table overlap. *)
let[@hot] sample_many_into ?len t rng buf =
  let len = match len with None -> Array.length buf | Some l -> l in
  if len < 0 || len > Array.length buf then invalid_arg "Alias.sample_many_into: bad length";
  let n = size t in
  let prob = t.prob and alias = t.alias in
  for j = 0 to len - 1 do
    Array.unsafe_set buf j (draw prob alias n rng)
  done

let sample_many t rng k =
  if k < 0 then invalid_arg "Alias.sample_many: negative count";
  if k = 0 then [||]
  else begin
    let buf = Array.make k 0 in
    sample_many_into t rng buf;
    buf
  end
