(* The state is one int64 kept in 8 bytes of [Bytes] rather than a
   [mutable int64] field: reading and writing it with [Bytes.get/set_int64]
   keeps every step of a draw unboxed, so drawing allocates nothing (a
   mutable int64 field boxes a fresh Int64 on every write).  The stream is
   the plain SplitMix64 one either way. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

(* Stafford's mix13 finalizer, the standard SplitMix64 output function. *)
let[@inline] mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let[@inline] state t = Bytes.get_int64_ne t 0

let create seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 seed;
  t

let of_int seed = create (Int64.of_int seed)
let copy = Bytes.copy

type snapshot = int64

let snapshot = state
let restore t s = Bytes.set_int64_ne t 0 s
let snapshot_equal = Int64.equal
let snapshot_hash (s : snapshot) = Int64.to_int (mix64 s)

let[@inline] int64 t =
  let s = Int64.add (state t) golden_gamma in
  Bytes.set_int64_ne t 0 s;
  mix64 s

let split t = create (int64 t)

let split_at t i =
  if i < 0 then invalid_arg "Rng.split_at: index must be non-negative";
  (* The i-th child is the generator [split] would produce after advancing
     a *copy* of [t] by [i] steps: the parent's state is never touched, so
     any number of children can be derived concurrently and reproducibly. *)
  create (mix64 (Int64.add (state t) (Int64.mul golden_gamma (Int64.of_int (i + 1)))))

let of_path seed labels =
  let hash_label acc label =
    let h = ref acc in
    String.iter
      (fun c ->
        h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001B3L)
      label;
    mix64 !h
  in
  create (List.fold_left hash_label (mix64 seed) labels)

let[@inline] bits53 t = Int64.to_int (Int64.shift_right_logical (int64 t) 11)

let float t = Stdlib.float_of_int (bits53 t) *. 0x1p-53

let int_bound t n =
  if n <= 0 then invalid_arg "Rng.int_bound: bound must be positive";
  if n land (n - 1) = 0 then bits53 t land (n - 1)
  else
    (* Rejection sampling to avoid modulo bias (a loop, not a recursive
       closure, so a draw allocates nothing). *)
    let max53 = 1 lsl 53 in
    let limit = max53 - (max53 mod n) in
    let v = ref (bits53 t) in
    while !v >= limit do
      v := bits53 t
    done;
    !v mod n

let int_range t lo hi =
  if hi < lo then invalid_arg "Rng.int_range: empty range";
  lo + int_bound t (hi - lo + 1)

let uniform t a b = a +. ((b -. a) *. float t)
let bool t = Int64.logand (int64 t) 1L = 1L
let bernoulli t p = float t < p

let exponential t rate =
  if rate <= 0. then invalid_arg "Rng.exponential: rate must be positive";
  -.log (1. -. float t) /. rate

let pareto t ~alpha ~xmin =
  if alpha <= 0. || xmin <= 0. then invalid_arg "Rng.pareto: parameters must be positive";
  xmin /. ((1. -. float t) ** (1. /. alpha))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int_bound t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let choose t a =
  if Array.length a = 0 then invalid_arg "Rng.choose: empty array";
  a.(int_bound t (Array.length a))

let sample_distinct t ~n ~k =
  if k > n then invalid_arg "Rng.sample_distinct: k > n";
  (* Floyd's algorithm: k iterations, set membership via Hashtbl. *)
  let seen = Hashtbl.create (2 * k) in
  for j = n - k to n - 1 do
    let r = int_bound t (j + 1) in
    let pick = if Hashtbl.mem seen r then j else r in
    Hashtbl.replace seen pick ()
  done;
  Det.sorted_keys seen
