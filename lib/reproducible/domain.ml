let default_bits = 32
let size bits = 1 lsl bits

let encode ?(bits = default_bits) e =
  if not (e >= 0.) then invalid_arg "Domain.encode: efficiency must be non-negative";
  let n = size bits in
  if e = infinity then n - 1
  else
    let x = e /. (1. +. e) in
    min (n - 1) (int_of_float (x *. float_of_int n))

let decode ?(bits = default_bits) c =
  let n = size bits in
  if c < 0 || c >= n then invalid_arg "Domain.decode: code out of range";
  let x = (float_of_int c +. 0.5) /. float_of_int n in
  x /. (1. -. x)

let exponent_bits bits =
  (* Smallest b with 2^b > bits, i.e. enough to index exponents 0..bits. *)
  let rec go b = if size b > bits then b else go (b + 1) in
  go 1

let refine ~tie_bits ~code ~salt =
  if tie_bits = 0 then code else (code lsl tie_bits) lor (salt land (size tie_bits - 1))

let coarse ~tie_bits code = if tie_bits = 0 then code else code asr tie_bits

(* [salt] is the first output of [Rng.of_path seed ["tie"; string_of_int
   index]], shifted to 62 bits.  That derivation is written out here so it
   runs without allocating: the two label hashes (64-bit FNV-1a steps, each
   label closed by SplitMix64's mix13) read the decimal digits of [index]
   in place instead of building the string, the label list and the
   generator.  A property test pins it to the [Rng.of_path] definition. *)
let[@inline] mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let[@inline] fnv h c = Int64.mul (Int64.logxor h (Int64.of_int (Char.code c))) 0x100000001B3L

(* Largest power of ten with at most as many digits as [index]. *)
let top_power index =
  let p = ref 1 in
  while index / !p >= 10 || index / !p <= -10 do
    p := !p * 10
  done;
  !p

let salt ~seed ~index =
  let h = ref (mix64 (fnv (fnv (fnv (mix64 seed) 't') 'i') 'e')) in
  if index < 0 then h := fnv !h '-';
  (* Digits most significant first; [abs] of each quotient digit rather
     than of [index], which would overflow on [min_int]. *)
  let p = ref (top_power index) in
  while !p > 0 do
    h := fnv !h (Char.unsafe_chr (Char.code '0' + abs (index / !p mod 10)));
    p := !p / 10
  done;
  Int64.to_int
    (Int64.shift_right_logical (mix64 (Int64.add (mix64 !h) 0x9E3779B97F4A7C15L)) 2)
