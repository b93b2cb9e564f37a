type span = { name : string; start : float; stop : float; parent : int; req : int }
type t = { clock : unit -> float; mutable buf : span array; mutable len : int }

let blank = { name = ""; start = 0.; stop = 0.; parent = -1; req = -1 }
let create clock = { clock; buf = Array.make 1024 blank; len = 0 }

let push t s =
  if t.len = Array.length t.buf then begin
    let bigger = Array.make (2 * t.len) blank in
    Array.blit t.buf 0 bigger 0 t.len;
    t.buf <- bigger
  end;
  t.buf.(t.len) <- s;
  t.len <- t.len + 1;
  t.len - 1

let with_span t name ~parent ~req f =
  let id = push t { name; start = t.clock (); stop = nan; parent; req } in
  Fun.protect
    ~finally:(fun () -> t.buf.(id) <- { (t.buf.(id)) with stop = t.clock () })
    (fun () -> f id)

let spans t = Array.sub t.buf 0 t.len

(* Length of the union of the children's intervals, each clipped to the
   parent's: children of a parent are merged in start order. *)
let covered spans =
  let kids = Array.make (Array.length spans) [] in
  Array.iteri (fun i s -> if s.parent >= 0 then kids.(s.parent) <- i :: kids.(s.parent)) spans;
  Array.mapi
    (fun i p ->
      let clipped =
        List.filter_map
          (fun k ->
            let a = Float.max p.start spans.(k).start and b = Float.min p.stop spans.(k).stop in
            if b > a then Some (a, b) else None)
          kids.(i)
      in
      let sorted = List.sort (fun (a, _) (b, _) -> Float.compare a b) clipped in
      fst
        (List.fold_left
           (fun (total, reach) (a, b) ->
             if b <= reach then (total, reach) else (total +. (b -. Float.max a reach), b))
           (0., neg_infinity) sorted))
    spans

let self_times spans =
  let cov = covered spans in
  Array.mapi (fun i s -> s.stop -. s.start -. cov.(i)) spans

let totals spans =
  let self = self_times spans in
  let tbl = Hashtbl.create 16 in
  Array.iteri
    (fun i s ->
      let n, total = Option.value (Hashtbl.find_opt tbl s.name) ~default:(0, 0.) in
      Hashtbl.replace tbl s.name (n + 1, total +. self.(i)))
    spans;
  tbl

let coverage spans ~name =
  let cov = covered spans in
  let num = ref 0. and den = ref 0. in
  Array.iteri
    (fun i s ->
      if String.equal s.name name then begin
        num := !num +. cov.(i);
        den := !den +. (s.stop -. s.start)
      end)
    spans;
  if !den > 0. then !num /. !den else 0.

let write_tsv oc spans =
  Array.iteri
    (fun i s ->
      Printf.fprintf oc "%d\t%s\t%.0f\t%.0f\t%d\t%d\n" i s.name s.start s.stop s.parent s.req)
    spans
