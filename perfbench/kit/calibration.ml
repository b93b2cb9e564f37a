(* The reference kernel.  Its inputs are fixed at start-up from a constant
   LCG, so every run times identical work. *)

let lcg i = ((i * 1_000_001) + 12_345) * 7_919 land 0xfffff

let sorted_run salt =
  let a = Array.init 8192 (fun i -> lcg (i + salt)) in
  Array.sort compare a;
  a

let left = sorted_run 3
let right = sorted_run 5

(* Two-pointer merge with data-dependent branches, like a sparsified-CDF
   merge. *)
let merge () =
  let n = Array.length left in
  let i = ref 0 and j = ref 0 and c = ref 0 in
  while !i < n && !j < n do
    if Array.unsafe_get left !i < Array.unsafe_get right !j then begin
      incr i;
      c := !c + 1
    end
    else begin
      incr j;
      c := !c + 3
    end
  done;
  !c

let table = 1 lsl 15
let prob = Array.init table (fun i -> float_of_int (lcg i land 1023) /. 1024.)
let alias = Array.init table (fun i -> lcg (i + 7) land (table - 1))

(* Alias-table draws at random positions, like weighted sampling. *)
let sample () =
  let x = ref 88_172_645_463_325_252 and c = ref 0 in
  for _ = 1 to 2048 do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17);
    let i = !x land (table - 1) in
    let u = float_of_int ((!x lsr 20) land 1023) /. 1024. in
    c := !c + if u < Array.unsafe_get prob i then i else Array.unsafe_get alias i
  done;
  !c

let sink = ref 0

(* One untimed run first brings the kernel's data back into the caches the
   request just used, so the timed run sees the core's speed, not how much
   of the cache the program under test evicted. *)
let measure clock =
  sink := !sink + merge () + sample ();
  let t0 = clock () in
  sink := !sink + merge () + sample ();
  clock () -. t0

let nominal_ns = 45_000.

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a.((Array.length a - 1) / 2)

let median_factor durations = median durations /. nominal_ns

(* Each time is scaled by the median of the [2 * radius + 1] nearest
   calibrations. *)
let radius = 2

let factors ~samples times =
  let n = Array.length samples in
  if n = 0 then invalid_arg "Calibration.factors: no samples";
  let nearest = ref 0 in
  Array.map
    (fun t ->
      (* Advance to the sample closest to [t]; [times] ascend, so the
         cursor only moves forward. *)
      while
        !nearest + 1 < n
        && Float.abs (fst samples.(!nearest + 1) -. t) <= Float.abs (fst samples.(!nearest) -. t)
      do
        incr nearest
      done;
      let lo = max 0 (min (!nearest - radius) (n - (2 * radius) - 1)) in
      let hi = min (n - 1) (lo + (2 * radius)) in
      median (List.init (hi - lo + 1) (fun k -> snd samples.(lo + k))) /. nominal_ns)
    times
