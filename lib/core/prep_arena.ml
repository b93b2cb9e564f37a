type t = {
  mutable salts : int array;
  mutable codes : int array;
  mutable sort : int array;
  block : int array;
}

(* Large enough that the alias-table misses of one block overlap, small
   enough to stay in L1 whatever the instance size. *)
let block_size = 128

let create () = { salts = [||]; codes = [||]; sort = [||]; block = Array.make block_size 0 }

let salts t n =
  let len = Array.length t.salts in
  if len < n then begin
    (* The salt memo must survive growth: entries already filled keep their
       value, new slots start unfilled (-1).  Grow geometrically so a
       sequence of increasing demands stays linear overall. *)
    let grown = Array.make (max n (2 * len)) (-1) in
    Array.blit t.salts 0 grown 0 len;
    t.salts <- grown
  end;
  t.salts

let codes t n =
  if Array.length t.codes < n then t.codes <- Array.make n 0;
  t.codes

let sort_scratch t n =
  if Array.length t.sort < n then t.sort <- Array.make n 0;
  t.sort

let block t = t.block
