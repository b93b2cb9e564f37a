module Rng = Lk_util.Rng
module Instance = Lk_knapsack.Instance
module Item = Lk_knapsack.Item
module Counters = Lk_oracle.Counters
module Query_oracle = Lk_oracle.Query_oracle
module Weighted_oracle = Lk_oracle.Weighted_oracle
module Access = Lk_oracle.Access

let demo = Instance.of_pairs [ (1., 2.); (3., 4.); (6., 1.) ] ~capacity:5.

let test_counters () =
  let c = Counters.create () in
  Counters.charge_index_query c;
  Counters.charge_index_query c;
  Counters.charge_weighted_sample c;
  Alcotest.(check int) "index" 2 (Counters.index_queries c);
  Alcotest.(check int) "samples" 1 (Counters.weighted_samples c);
  Alcotest.(check int) "total" 3 (Counters.total c);
  Counters.reset c;
  Alcotest.(check int) "reset" 0 (Counters.total c)

let test_counters_delta () =
  let c = Counters.create () in
  Counters.charge_index_query c;
  let result, (dq, ds) =
    Counters.delta
      (fun () ->
        Counters.charge_index_query c;
        Counters.charge_weighted_sample c;
        Counters.charge_weighted_sample c;
        "done")
      c
  in
  Alcotest.(check string) "result" "done" result;
  Alcotest.(check (pair int int)) "delta" (1, 2) (dq, ds)

let test_query_oracle_counts () =
  let c = Counters.create () in
  let o = Query_oracle.of_instance ~counters:c demo in
  Alcotest.(check int) "size free" 3 (Query_oracle.size o);
  Alcotest.(check (float 0.)) "capacity free" 5. (Query_oracle.capacity o);
  Alcotest.(check int) "no queries yet" 0 (Counters.index_queries c);
  let it = Query_oracle.item o 1 in
  Alcotest.(check (float 0.)) "revealed profit" 3. it.Item.profit;
  Alcotest.(check int) "one query" 1 (Counters.index_queries c)

let test_query_oracle_bounds () =
  let c = Counters.create () in
  let o = Query_oracle.of_instance ~counters:c demo in
  Alcotest.check_raises "out of range" (Invalid_argument "Query_oracle.item: index out of range")
    (fun () -> ignore (Query_oracle.item o 3))

let test_query_oracle_budget () =
  let c = Counters.create () in
  let o = Query_oracle.with_budget (Query_oracle.of_instance ~counters:c demo) 2 in
  ignore (Query_oracle.item o 0);
  ignore (Query_oracle.item o 1);
  Alcotest.check_raises "budget" Query_oracle.Budget_exhausted (fun () ->
      ignore (Query_oracle.item o 2))

let test_query_oracle_lazy () =
  let hits = ref 0 in
  let c = Counters.create () in
  let o =
    Query_oracle.make ~n:1000 ~capacity:1. ~counters:c (fun i ->
        incr hits;
        Item.make ~profit:(float_of_int i) ~weight:1.)
  in
  ignore (Query_oracle.item o 7);
  Alcotest.(check int) "lazy reveal" 1 !hits

let test_weighted_oracle_frequencies () =
  let c = Counters.create () in
  let o = Weighted_oracle.of_instance ~counters:c demo in
  let rng = Rng.create 42L in
  let counts = Array.make 3 0 in
  let draws = 50_000 in
  for _ = 1 to draws do
    let i, item = Weighted_oracle.sample o rng in
    Alcotest.(check bool) "index matches item" true (Item.equal item (Instance.item demo i));
    counts.(i) <- counts.(i) + 1
  done;
  Alcotest.(check int) "all charged" draws (Counters.weighted_samples c);
  (* profits 1,3,6 of total 10 *)
  let expect = [| 0.1; 0.3; 0.6 |] in
  Array.iteri
    (fun i e ->
      let freq = float_of_int counts.(i) /. float_of_int draws in
      Alcotest.(check bool) (Printf.sprintf "freq %d" i) true (abs_float (freq -. e) < 0.01))
    expect

let test_access_normalization () =
  let a = Access.of_instance demo in
  Alcotest.(check bool) "normalized" true (Instance.is_normalized (Access.normalized a));
  Alcotest.(check (float 1e-12)) "scale" 0.1 (Access.profit_scale a);
  Alcotest.(check (float 1e-12)) "query normalized item" 0.6 (Access.query a 2).Item.profit;
  Alcotest.(check int) "counted" 1 (Counters.index_queries (Access.counters a))

let test_access_sampling_deterministic () =
  let a = Access.of_instance demo in
  let draw seed = Array.map fst (Access.sample_many a (Rng.create seed) 20) in
  Alcotest.(check (array int)) "same seed, same draws" (draw 7L) (draw 7L);
  Alcotest.(check bool) "different seeds differ" true (draw 7L <> draw 8L)

let test_access_sampling_modes () =
  (* item 2 has 60% of profit but only 10% of weight: the three modes are
     distinguishable by drawing frequencies. *)
  let inst = Instance.of_pairs [ (1., 4.5); (3., 4.5); (6., 1.) ] ~capacity:5. in
  let freq sampling =
    let a = Access.of_instance ~sampling inst in
    let rng = Rng.create 9L in
    let hits = ref 0 in
    let draws = 20_000 in
    for _ = 1 to draws do
      if fst (Access.sample a rng) = 2 then incr hits
    done;
    float_of_int !hits /. float_of_int draws
  in
  Alcotest.(check bool) "profit mode ~0.6" true (abs_float (freq `Profit -. 0.6) < 0.02);
  Alcotest.(check bool) "weight mode ~0.1" true (abs_float (freq `Weight -. 0.1) < 0.02);
  Alcotest.(check bool) "uniform mode ~1/3" true (abs_float (freq `Uniform -. (1. /. 3.)) < 0.02);
  Alcotest.(check bool) "mode recorded" true (Access.sampling (Access.of_instance ~sampling:`Weight inst) = `Weight)

let test_weighted_oracle_of_weights_mismatch () =
  let c = Counters.create () in
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Weighted_oracle.of_weights: length mismatch") (fun () ->
      ignore (Weighted_oracle.of_weights ~counters:c demo [| 1. |]))

(* Block draws are [k] single draws: from equal rng states, the indices,
   items, counter totals, exit rng state and the bytes of an enabled trace
   must all match, for [k] below, at and above the block size. *)
let prop_sample_each_equals_samples =
  let inst =
    let r = Rng.create 17L in
    Instance.of_pairs
      (List.init 300 (fun _ -> (Rng.uniform r 0.1 5., Rng.uniform r 0.1 5.)))
      ~capacity:50.
  in
  QCheck.Test.make ~name:"sample_each = k x sample (items, bill, trace)" ~count:200
    QCheck.(triple int64 (int_range 1 16) (int_range 0 64))
    (fun (seed, b, k) ->
      let run draw =
        let sink = Lk_obs.Obs.recorder () in
        let access = Access.with_sink (Access.of_instance inst) sink in
        let rng = Rng.create seed in
        let got = ref [] in
        draw access rng (fun i it -> got := (i, it) :: !got);
        ( List.rev !got,
          Counters.weighted_samples (Access.counters access),
          Counters.index_queries (Access.counters access),
          Rng.int64 rng,
          List.map Lk_obs.Event.to_string (Lk_obs.Obs.events sink) )
      in
      let block = Array.make b (-1) in
      run (fun access rng f -> Access.sample_each access rng ~block k f)
      = run (fun access rng f ->
            for _ = 1 to k do
              let i, it = Access.sample access rng in
              f i it
            done))

let test_sample_each_invalid () =
  let a = Access.of_instance demo in
  Alcotest.check_raises "empty block"
    (Invalid_argument "Weighted_oracle.sample_each: empty block") (fun () ->
      Access.sample_each a (Rng.create 1L) ~block:[||] 3 (fun _ _ -> ()));
  Alcotest.check_raises "negative count"
    (Invalid_argument "Weighted_oracle.sample_each: negative count") (fun () ->
      Access.sample_each a (Rng.create 1L) ~block:[| 0 |] (-1) (fun _ _ -> ()))

let () =
  Alcotest.run "oracle"
    [
      ( "counters",
        [
          Alcotest.test_case "charging" `Quick test_counters;
          Alcotest.test_case "delta" `Quick test_counters_delta;
        ] );
      ( "query-oracle",
        [
          Alcotest.test_case "counts" `Quick test_query_oracle_counts;
          Alcotest.test_case "bounds" `Quick test_query_oracle_bounds;
          Alcotest.test_case "budget" `Quick test_query_oracle_budget;
          Alcotest.test_case "lazy backing" `Quick test_query_oracle_lazy;
        ] );
      ( "weighted-oracle",
        [ Alcotest.test_case "frequencies" `Quick test_weighted_oracle_frequencies ] );
      ( "access",
        [
          Alcotest.test_case "normalization" `Quick test_access_normalization;
          Alcotest.test_case "deterministic sampling" `Quick test_access_sampling_deterministic;
          Alcotest.test_case "sampling modes" `Quick test_access_sampling_modes;
          Alcotest.test_case "of_weights mismatch" `Quick test_weighted_oracle_of_weights_mismatch;
          Alcotest.test_case "sample_each invalid" `Quick test_sample_each_invalid;
          QCheck_alcotest.to_alcotest prop_sample_each_equals_samples;
        ] );
    ]
