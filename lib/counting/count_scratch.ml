module A1 = Bigarray.Array1

type int_table = (int, Bigarray.int_elt, Bigarray.c_layout) A1.t
type float_table = (float, Bigarray.float64_elt, Bigarray.c_layout) A1.t

let int_slots = 4
let float_slots = 4

type t = { itables : int_table array; ftables : float_table array }

let empty_int_table : int_table = A1.create Bigarray.int Bigarray.c_layout 0

let empty_float_table : float_table =
  A1.create Bigarray.float64 Bigarray.c_layout 0

let create () =
  {
    itables = Array.make int_slots empty_int_table;
    ftables = Array.make float_slots empty_float_table;
  }

(* Growth doubles from the request so a sequence of slowly increasing
   layer widths reallocates O(log) times, not O(layers). *)

let int_slot_raw t k len =
  if k < 0 || k >= int_slots then invalid_arg "Count_scratch.int_slot_raw";
  if A1.dim t.itables.(k) < len then
    t.itables.(k) <- A1.create Bigarray.int Bigarray.c_layout (2 * len);
  t.itables.(k)

let float_slot_raw t k len =
  if k < 0 || k >= float_slots then invalid_arg "Count_scratch.float_slot_raw";
  if A1.dim t.ftables.(k) < len then
    t.ftables.(k) <- A1.create Bigarray.float64 Bigarray.c_layout (2 * len);
  t.ftables.(k)

let int_slot t k len ~fill =
  let tbl = int_slot_raw t k len in
  A1.fill (A1.sub tbl 0 len) fill;
  tbl

let float_slot t k len ~fill =
  let tbl = float_slot_raw t k len in
  A1.fill (A1.sub tbl 0 len) fill;
  tbl

let dense ~states ~hi = 2 * states >= hi + 1
