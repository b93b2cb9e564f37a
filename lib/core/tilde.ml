module Rng = Lk_util.Rng
module Access = Lk_oracle.Access
module Item = Lk_knapsack.Item
module Instance = Lk_knapsack.Instance
module Domain = Lk_repro.Domain

type origin = Original of int | Synthetic of int
type item = { profit : float; weight : float; eff_code : int; origin : origin }

type t = {
  items : item array;
  large_indices : int array;
  large_profit : float;
  eps : Eps.t;
  capacity : float;
  samples_used : int;
}

let[@hot] build ?(arena = Prep_arena.create ()) (params : Params.t) access ~seed ~fresh =
  let epsilon = params.Params.epsilon in
  let cutoff = Params.large_profit_cutoff params in
  let salt_cache = Prep_arena.salts arena (Access.size access) in
  (* Line 1-3: sample R̄, dedupe, keep large items. *)
  let m = Params.r_sample_size params in
  let block = Prep_arena.block arena in
  let seen = Hashtbl.create 64 in
  Access.sample_each access fresh ~block m (fun i it ->
      if it.Item.profit > cutoff then Hashtbl.replace seen i it);
  let large = Lk_util.Det.sorted_bindings seen in
  let n_large = List.length large in
  let large_profit =
    let profits = Array.make n_large 0. in
    let rec fill j = function
      | [] -> ()
      | (_, (it : Item.t)) :: rest ->
          profits.(j) <- it.Item.profit;
          fill (j + 1) rest
    in
    fill 0 large;
    Lk_util.Float_utils.sum profits
  in
  (* Lines 4-17: EPS from a second sample when small mass is non-trivial.
     The kept codes fill the arena's buffer from the top down, so the slice
     handed to [Eps.compute] reads in reverse draw order — the order the
     former list-consing produced, which the bootstrap chunking of
     rQuantile is sensitive to. *)
  let small_mass = 1. -. large_profit in
  let eps, q_samples =
    if small_mass < epsilon then (Eps.empty, 0)
    else begin
      let n_rq = Params.rq_sample_size params in
      let a = int_of_float (ceil (3. *. float_of_int n_rq /. (2. *. small_mass))) in
      let buf = Prep_arena.codes arena a in
      let cursor = ref a in
      Access.sample_each access fresh ~block a (fun i it ->
          if it.Item.profit <= cutoff then begin
            decr cursor;
            Array.unsafe_set buf !cursor
              (Params.encode_efficiency ~salt_cache params ~seed ~index:i
                 (Item.efficiency it))
          end);
      let encoded = Array.sub buf !cursor (a - !cursor) in
      let scratch = Prep_arena.sort_scratch arena (Array.length encoded) in
      (Eps.compute ~scratch params ~seed ~large_profit ~encoded_efficiencies:encoded, a)
    end
  in
  (* Line 18: assemble Ĩ — one preallocated array, large items first (in
     sorted-index order), then the synthetic bucket representatives. *)
  let copies = Params.copies_per_bucket params in
  let buckets = Eps.length eps in
  let items =
    Array.make
      (n_large + (buckets * copies))
      { profit = 0.; weight = 0.; eff_code = 0; origin = Synthetic 0 }
  in
  let large_indices = Array.make n_large 0 in
  let rec fill_large j = function
    | [] -> ()
    | (i, (it : Item.t)) :: rest ->
        large_indices.(j) <- i;
        items.(j) <-
          {
            profit = it.Item.profit;
            weight = it.Item.weight;
            eff_code =
              Params.encode_efficiency ~salt_cache params ~seed ~index:i
                (Item.efficiency it);
            origin = Original i;
          };
        fill_large (j + 1) rest
  in
  fill_large 0 large;
  for bucket = 0 to buckets - 1 do
    let code = Eps.threshold eps (bucket + 1) in
    let eff = Params.decode_efficiency params code in
    let profit = epsilon ** 2. in
    let weight = profit /. eff in
    let it = { profit; weight; eff_code = code; origin = Synthetic bucket } in
    for c = 0 to copies - 1 do
      items.(n_large + (bucket * copies) + c) <- it
    done
  done;
  {
    items;
    large_indices;
    large_profit;
    eps;
    capacity = Access.capacity access;
    samples_used = m + q_samples;
  }

let to_instance t =
  if Array.length t.items = 0 then invalid_arg "Tilde.to_instance: empty constructed instance";
  Instance.make
    (Array.map (fun it -> Item.make ~profit:it.profit ~weight:it.weight) t.items)
    ~capacity:t.capacity

let equal a b =
  a.large_indices = b.large_indices
  && Eps.length a.eps = Eps.length b.eps
  && a.eps.Eps.codes = b.eps.Eps.codes
