module Rng = Lk_util.Rng
module Instance = Lk_knapsack.Instance
module Int_instance = Lk_knapsack.Int_instance
module Counters = Lk_oracle.Counters
module Query_oracle = Lk_oracle.Query_oracle
module Obs = Lk_obs.Obs
module Event = Lk_obs.Event
module Json = Lk_benchkit.Json
module Robp = Lk_counting.Robp
module Count_scratch = Lk_counting.Count_scratch
module State_dp = Lk_counting.State_dp
module Exact = Lk_counting.Exact
module Gkm = Lk_counting.Gkm
module Svv = Lk_counting.Svv
module Sampler = Lk_counting.Sampler
module Report = Lk_counting.Report

(* ---------- helpers ---------- *)

let instance_of_weights weights ~capacity =
  Instance.make
    (Array.map (fun w -> Lk_knapsack.Item.make ~profit:1. ~weight:(float_of_int w)) weights)
    ~capacity:(float_of_int capacity)

let oracle_of_weights ?sink weights ~capacity =
  let counters = Counters.create () in
  let oracle =
    Query_oracle.of_instance ?sink ~counters (instance_of_weights weights ~capacity)
  in
  (oracle, counters)

let robp_of weights ~capacity = Robp.of_weights weights ~capacity

(* Brute-force reference, independent of every lib/counting engine. *)
let brute weights ~capacity =
  let n = Array.length weights in
  assert (n <= 20);
  let count = ref 0. in
  for mask = 0 to (1 lsl n) - 1 do
    let sum = ref 0 in
    for j = 0 to n - 1 do
      if mask land (1 lsl j) <> 0 then sum := !sum + weights.(j)
    done;
    if !sum <= capacity then count := !count +. 1.
  done;
  !count

(* ---------- ROBP ---------- *)

let test_robp_read_once () =
  let weights = [| 3; 1; 4; 1; 5 |] in
  let oracle, counters = oracle_of_weights weights ~capacity:7 in
  let robp = Robp.build oracle in
  Alcotest.(check int) "one query per item" 5 (Counters.index_queries counters);
  Alcotest.(check int) "no samples" 0 (Counters.weighted_samples counters);
  Alcotest.(check int) "size" 5 (Robp.size robp);
  Alcotest.(check int) "capacity" 7 (Robp.capacity robp);
  Alcotest.(check int) "weight 2" 4 (Robp.weight robp 2);
  Alcotest.(check int) "total weight" 14 (Robp.total_weight robp);
  Alcotest.(check int) "width bound" 8 (Robp.width_bound robp)

let test_robp_rejects_fractional () =
  let counters = Counters.create () in
  let inst = Instance.of_pairs [ (1., 0.5) ] ~capacity:1. in
  let oracle = Query_oracle.of_instance ~counters inst in
  Alcotest.(check bool) "fractional weight rejected" true
    (try
       ignore (Robp.build oracle);
       false
     with Invalid_argument _ -> true)

let test_robp_floors_capacity () =
  let counters = Counters.create () in
  let inst = Instance.of_pairs [ (1., 2.) ] ~capacity:7.9 in
  let oracle = Query_oracle.of_instance ~counters inst in
  Alcotest.(check int) "capacity floored" 7 (Robp.capacity (Robp.build oracle))

let test_robp_budget_wall () =
  (* Counting is read-once: n - 1 queries are not enough to build the
     program, which is the Omega(n) wall E14 demonstrates. *)
  let oracle, _ = oracle_of_weights [| 1; 2; 3; 4 |] ~capacity:5 in
  let starved = Query_oracle.with_budget oracle 3 in
  Alcotest.check_raises "budget exhausted" Query_oracle.Budget_exhausted (fun () ->
      ignore (Robp.build starved))

(* ---------- exact engines ---------- *)

let exact_cases =
  [
    ("pentagon", [| 1; 2; 3 |], 3, 5.);
    ("single fits", [| 5 |], 5, 2.);
    ("single capacity 0", [| 5 |], 0, 1.);
    ("zero-weight at capacity 0", [| 0; 3 |], 0, 2.);
    ("all too heavy", [| 10; 12; 11 |], 5, 1.);
    ("duplicates", [| 2; 2; 2; 2 |], 4, 11.);
    ("everything fits", [| 1; 1; 1 |], 10, 8.);
  ]

let test_exact_known_counts () =
  List.iter
    (fun (name, weights, capacity, expect) ->
      let robp = robp_of weights ~capacity in
      Alcotest.(check (float 0.)) (name ^ " brute") expect (brute weights ~capacity);
      Alcotest.(check (float 0.)) (name ^ " enumerate") expect (Exact.enumerate robp);
      Alcotest.(check (float 0.)) (name ^ " meet-middle") expect (Exact.meet_middle robp);
      Alcotest.(check (float 0.)) (name ^ " state-dp") expect (State_dp.count robp);
      Alcotest.(check (float 0.))
        (name ^ " sampler")
        expect
        (Sampler.count (Sampler.of_robp robp)))
    exact_cases

let test_exact_oracle_dispatch () =
  let weights = [| 4; 4; 2; 7; 1; 3 |] in
  let oracle, counters = oracle_of_weights weights ~capacity:9 in
  let z = Exact.count oracle in
  Alcotest.(check (float 0.)) "dispatch = brute" (brute weights ~capacity:9) z;
  Alcotest.(check int) "n queries" 6 (Counters.index_queries counters)

(* n = 40 with a small capacity: [count_robp] picks the state DP here
   (2^20 sums per half against 40 (K + 1) cells), and every exact engine
   must still agree. *)
let test_exact_small_capacity_n40 () =
  let weights = Array.init 40 (fun i -> 1 + ((i * 7) mod 5)) in
  let robp = robp_of weights ~capacity:12 in
  let z = Exact.meet_middle robp in
  Alcotest.(check (float 0.)) "state-dp" z (State_dp.count robp);
  Alcotest.(check (float 0.)) "count_robp" z (Exact.count_robp robp);
  Alcotest.(check (float 0.)) "sampler" z (Sampler.count (Sampler.of_robp robp))

(* ---------- list and grid layer forms ---------- *)

(* Scaling every weight by [k] and the capacity to [k K + r] (0 <= r < k)
   keeps every count, breakpoint set and float addition of both layer
   kernels, but spreads the states k apart: with k >= 3 the scaled run
   stays on the sorted list while a dense original moves to the grid. *)
let scaled ~k ~r weights ~capacity =
  robp_of (Array.map (fun w -> k * w) weights) ~capacity:((k * capacity) + r)

let bits = Int64.bits_of_float

let same_gkm (a : Gkm.result) (b : Gkm.result) =
  bits a.lower = bits b.lower
  && bits a.upper = bits b.upper
  && bits a.estimate = bits b.estimate
  && bits a.delta = bits b.delta
  && a.width = b.width && a.merges = b.merges

let check_gkm name (a : Gkm.result) (b : Gkm.result) =
  Alcotest.(check bool)
    (Printf.sprintf "%s: lower %h/%h width %d/%d merges %d/%d" name a.lower
       b.lower a.width b.width a.merges b.merges)
    true (same_gkm a b)

(* Every engine on [weights] against its scaled, list-bound copy. *)
let check_forms ?width ~eps name weights ~capacity =
  let robp = robp_of weights ~capacity in
  let sparse = scaled ~k:3 ~r:2 weights ~capacity in
  let gkm r = Gkm.count_in ~eps (Count_scratch.create ()) r in
  let capped r = Gkm.count_in ?width ~eps (Count_scratch.create ()) r in
  check_gkm (name ^ " gkm") (gkm robp) (gkm sparse);
  check_gkm (name ^ " gkm width") (capped robp) (capped sparse);
  Alcotest.(check int64)
    (name ^ " state-dp")
    (bits (State_dp.count sparse))
    (bits (State_dp.count robp))

let test_grid_edges () =
  check_forms ~width:3 ~eps:0.2 "zero weights" [| 0; 1; 0; 2; 1; 0; 3 |] ~capacity:4;
  check_forms ~width:3 ~eps:0.2 "heavier than K" [| 1; 1; 50; 1; 2; 9 |] ~capacity:4;
  check_forms ~width:1 ~eps:0.2 "K = 0" [| 0; 3; 0; 1 |] ~capacity:0;
  check_forms ~width:1 ~eps:0.2 "n = 1 fits" [| 1 |] ~capacity:1;
  check_forms ~width:1 ~eps:0.2 "n = 1 too heavy" [| 2 |] ~capacity:1;
  Alcotest.(check (float 0.)) "zero weights exact"
    (brute [| 0; 1; 0; 2; 1; 0; 3 |] ~capacity:4)
    (State_dp.count (robp_of [| 0; 1; 0; 2; 1; 0; 3 |] ~capacity:4))

let test_grid_width_overrun () =
  (* Capacity 10, width 6: every layer fills its span, so the run is on the
     grid from the first layer, and the budget forces delta to double. *)
  let weights = Array.init 30 (fun i -> 1 + (i mod 3)) in
  let eps = 0.1 in
  check_forms ~width:6 ~eps "overrun" weights ~capacity:10;
  let r = Gkm.count_in ~width:6 ~eps (Count_scratch.create ()) (robp_of weights ~capacity:10) in
  Alcotest.(check bool) "width respected" true (r.Gkm.width <= 6);
  (* delta0 = eps / (2 (n + 1)) *)
  Alcotest.(check bool) "delta coarsened" true (r.Gkm.delta > eps /. 62.)

let test_grid_overflow () =
  (* n = 1100 small weights at half their total: the float counts overflow.
     The grid run reports what the list run does: an infinite floor, and
     once every count is infinite every candidate is kept (width K + 1). *)
  let n = 1100 in
  let weights = Array.init n (fun i -> 1 + (i mod 3)) in
  let capacity = Array.fold_left ( + ) 0 weights / 2 in
  let robp = robp_of weights ~capacity in
  let g = Gkm.count_in ~eps:0.25 (Count_scratch.create ()) robp in
  let l = Gkm.count_in ~eps:0.25 (Count_scratch.create ()) (scaled ~k:3 ~r:0 weights ~capacity) in
  check_gkm "overflow" g l;
  Alcotest.(check bool) "lower = inf" true (g.Gkm.lower = Float.infinity);
  Alcotest.(check int) "width = K + 1" (capacity + 1) g.Gkm.width

(* ---------- approximate counters: edges ---------- *)

let check_bracket name ~eps ~exact ~estimate ~lower ~upper =
  Alcotest.(check bool)
    (name ^ " lower <= Z")
    true
    (lower <= exact +. 1e-9);
  Alcotest.(check bool)
    (name ^ " Z <= upper")
    true
    (exact <= upper +. 1e-9);
  let ratio = estimate /. exact in
  Alcotest.(check bool)
    (Printf.sprintf "%s within (1 +- %g): ratio %g" name eps ratio)
    true
    (ratio >= 1. /. (1. +. eps) -. 1e-9 && ratio <= 1. +. eps +. 1e-9)

let test_approx_edges () =
  List.iter
    (fun (name, weights, capacity, expect) ->
      let robp = robp_of weights ~capacity in
      let scratch = Count_scratch.create () in
      let g = Gkm.count_in ~eps:0.2 scratch robp in
      check_bracket (name ^ " gkm") ~eps:0.2 ~exact:expect ~estimate:g.Gkm.estimate
        ~lower:g.Gkm.lower ~upper:g.Gkm.upper;
      let s = Svv.count_in ~eps:0.4 scratch robp in
      check_bracket (name ^ " svv") ~eps:0.4 ~exact:expect ~estimate:s.Svv.estimate
        ~lower:s.Svv.lower ~upper:s.Svv.upper)
    exact_cases

let test_gkm_width_budget () =
  let weights = Array.init 18 (fun i -> 1 + ((i * 7) mod 13)) in
  let robp = robp_of weights ~capacity:40 in
  let exact = State_dp.count robp in
  let scratch = Count_scratch.create () in
  let r = Gkm.count_in ~width:8 ~eps:0.2 scratch robp in
  Alcotest.(check bool) "width respected" true (r.Gkm.width <= 8);
  Alcotest.(check bool) "bracket holds under cap" true
    (r.Gkm.lower <= exact && exact <= r.Gkm.upper);
  Alcotest.(check bool) "coarsened delta recorded" true (r.Gkm.delta > 0.)

let test_scratch_reuse_bit_identical () =
  let r1 = robp_of [| 3; 5; 2; 8; 1 |] ~capacity:9 in
  let r2 = robp_of (Array.init 16 (fun i -> 1 + (i mod 5))) ~capacity:22 in
  let shared = Count_scratch.create () in
  let a = Gkm.count_in ~eps:0.15 shared r1 in
  let _ = Gkm.count_in ~eps:0.15 shared r2 in
  let _ = Svv.count_in ~eps:0.5 shared r2 in
  let _ = State_dp.count_in shared r2 in
  let b = Gkm.count_in ~eps:0.15 shared r1 in
  let fresh = Gkm.count_in ~eps:0.15 (Count_scratch.create ()) r1 in
  Alcotest.(check bool) "reused scratch = first run" true (a = b);
  Alcotest.(check bool) "reused scratch = fresh scratch" true (a = fresh);
  (* A large grid, a list-bound program and a smaller grid in turn on one
     scratch: stale cells of the larger planes must not leak. *)
  let big = robp_of (Array.init 60 (fun i -> 1 + (i mod 4))) ~capacity:150 in
  let sparse = robp_of (Array.init 12 (fun i -> 97 + (i * 31))) ~capacity:700 in
  let small = robp_of (Array.init 20 (fun i -> 1 + (i mod 3))) ~capacity:17 in
  let run r = (Gkm.count_in ~eps:0.15 shared r, State_dp.count_in shared r) in
  let fresh_run r =
    let scratch = Count_scratch.create () in
    (Gkm.count_in ~eps:0.15 scratch r, State_dp.count_in scratch r)
  in
  List.iter
    (fun (name, r) ->
      let g, z = run r in
      let g', z' = fresh_run r in
      check_gkm (name ^ " gkm reused") g g';
      Alcotest.(check int64) (name ^ " state-dp reused") (bits z') (bits z))
    [ ("large grid", big); ("list", sparse); ("small grid", small) ]

(* ---------- sampler ---------- *)

let test_sampler_draws () =
  let weights = [| 1; 2; 3 |] in
  let capacity = 3 in
  let sampler = Sampler.of_robp (robp_of weights ~capacity) in
  let z = int_of_float (Sampler.count sampler) in
  Alcotest.(check int) "count" 5 z;
  let rng = Rng.of_int 42 in
  let draws = Sampler.draw_many sampler rng 2000 in
  let freq = Hashtbl.create 8 in
  Array.iter
    (fun subset ->
      let key = String.concat "," (List.map string_of_int (Array.to_list subset)) in
      let w = Array.fold_left (fun acc i -> acc + weights.(i)) 0 subset in
      Alcotest.(check bool) "feasible" true (w <= capacity);
      Hashtbl.replace freq key (1 + Option.value ~default:0 (Hashtbl.find_opt freq key)))
    draws;
  Alcotest.(check int) "all 5 subsets appear" 5 (Hashtbl.length freq);
  Hashtbl.iter
    (fun key n ->
      let p = float_of_int n /. 2000. in
      Alcotest.(check bool)
        (Printf.sprintf "subset {%s} frequency %g near 1/5" key p)
        true
        (Float.abs (p -. 0.2) < 0.05))
    freq;
  (* determinism: a fresh generator with the same seed replays the draws *)
  let again = Sampler.draw_many sampler (Rng.of_int 42) 2000 in
  Alcotest.(check bool) "seeded draws replay" true (draws = again)

(* ---------- obs / phases ---------- *)

let test_phases_traced () =
  let sink = Obs.recorder () in
  let oracle, _ = oracle_of_weights ~sink [| 1; 2; 3; 4 |] ~capacity:6 in
  let _ = Gkm.count ~sink ~eps:0.2 oracle in
  let events = Obs.events sink in
  let enters =
    List.filter_map (function Event.Phase_enter p -> Some p | _ -> None) events
  in
  let queries =
    List.length
      (List.filter (function Event.Oracle_query _ -> true | _ -> false) events)
  in
  Alcotest.(check (list string)) "phase nesting" [ "gkm-count"; "robp-build" ] enters;
  Alcotest.(check int) "each probe traced" 4 queries

(* ---------- report ---------- *)

let test_report_roundtrip () =
  let t = Report.create () in
  Report.add t
    (Report.row ~experiment:"e13" ~label:"uniform eps=0.1"
       ~fields:[ ("ratio", Json.Num 1.01) ]);
  Report.add t
    (Report.row ~experiment:"e14" ~label:"n=64" ~fields:[ ("queries", Json.Num 64.) ]);
  let json = Report.to_json t in
  Alcotest.(check int) "rows kept in order" 2 (List.length (Report.rows t));
  let str = Json.to_string json in
  Alcotest.(check bool) "schema present" true
    (Json.member "schema" (Json.parse str) = Some (Json.Str Report.schema));
  Alcotest.(check string) "printer deterministic" str (Json.to_string (Report.to_json t))

(* ---------- qcheck differential suite ---------- *)

let weights_arb ~max_n ~max_w ~max_cap =
  QCheck.make
    ~print:(fun (w, c) ->
      Printf.sprintf "weights=[%s] cap=%d"
        (String.concat ";" (Array.to_list (Array.map string_of_int w)))
        c)
    QCheck.Gen.(
      let* n = int_range 1 max_n in
      let* weights = array_repeat n (int_range 0 max_w) in
      let* capacity = int_range 0 max_cap in
      return (weights, capacity))

let prop_exact_engines_agree =
  QCheck.Test.make ~name:"enumerate = meet-middle = state-dp = sampler" ~count:200
    (weights_arb ~max_n:14 ~max_w:12 ~max_cap:40)
    (fun (weights, capacity) ->
      let robp = robp_of weights ~capacity in
      let z = Exact.enumerate robp in
      Float.equal z (Exact.meet_middle robp)
      && Float.equal z (State_dp.count robp)
      && Float.equal z (Exact.count_robp robp)
      && Float.equal z (Sampler.count (Sampler.of_robp robp)))

let approx_within ~eps (weights, capacity) =
  let robp = robp_of weights ~capacity in
  let z = Exact.meet_middle robp in
  let scratch = Count_scratch.create () in
  let g = Gkm.count_in ~eps scratch robp in
  let s = Svv.count_in ~eps scratch robp in
  let ok_bracket lower upper = lower <= z +. 1e-9 && z <= upper +. 1e-9 in
  let ok_ratio estimate =
    let r = estimate /. z in
    r >= 1. /. (1. +. eps) -. 1e-9 && r <= 1. +. eps +. 1e-9
  in
  ok_bracket g.Gkm.lower g.Gkm.upper
  && ok_ratio g.Gkm.estimate
  && ok_bracket s.Svv.lower s.Svv.upper
  && ok_ratio s.Svv.estimate

let prop_approx_tight =
  QCheck.Test.make ~name:"gkm & svv within (1 +- 0.1) of exact" ~count:120
    (weights_arb ~max_n:14 ~max_w:12 ~max_cap:40)
    (approx_within ~eps:0.1)

let prop_approx_loose =
  QCheck.Test.make ~name:"gkm & svv within (1 +- 0.5) of exact" ~count:120
    (weights_arb ~max_n:16 ~max_w:20 ~max_cap:60)
    (approx_within ~eps:0.5)

let prop_gkm_capped_bracket =
  QCheck.Test.make ~name:"width-capped gkm bracket still certified" ~count:120
    (weights_arb ~max_n:16 ~max_w:20 ~max_cap:60)
    (fun (weights, capacity) ->
      let robp = robp_of weights ~capacity in
      let z = Exact.meet_middle robp in
      let r = Gkm.count_in ~width:6 ~eps:0.3 (Count_scratch.create ()) robp in
      r.Gkm.width <= 6 && r.Gkm.lower <= z +. 1e-9 && z <= r.Gkm.upper +. 1e-9)

(* Dense originals (small weights, moderate capacity) move to the grid;
   their scaled copies stay on the list.  Every result field, with and
   without a width budget, and the exact count must match bit for bit. *)
let prop_grid_matches_list =
  QCheck.Test.make ~name:"grid layers = list layers (scaled-weights metamorphic)"
    ~count:300
    QCheck.(
      quad (weights_arb ~max_n:40 ~max_w:8 ~max_cap:60) (int_range 3 6)
        (int_range 0 5) (int_range 1 12))
    (fun ((weights, capacity), k, r, width) ->
      let r = r mod k in
      let robp = robp_of weights ~capacity in
      let sparse = scaled ~k ~r weights ~capacity in
      let gkm ?width rb = Gkm.count_in ?width ~eps:0.2 (Count_scratch.create ()) rb in
      same_gkm (gkm robp) (gkm sparse)
      && same_gkm (gkm ~width robp) (gkm ~width sparse)
      && bits (State_dp.count robp) = bits (State_dp.count sparse))

let prop_robp_oracle_matches_direct =
  QCheck.Test.make ~name:"oracle-built robp = of_weights (and bills n queries)"
    ~count:120
    (weights_arb ~max_n:12 ~max_w:12 ~max_cap:40)
    (fun (weights, capacity) ->
      let oracle, counters = oracle_of_weights weights ~capacity in
      let via_oracle = Robp.build oracle in
      let direct = robp_of weights ~capacity in
      Counters.index_queries counters = Array.length weights
      && Robp.capacity via_oracle = Robp.capacity direct
      && Float.equal (State_dp.count via_oracle) (State_dp.count direct))

let () =
  Alcotest.run "counting"
    [
      ( "robp",
        [
          Alcotest.test_case "read-once build" `Quick test_robp_read_once;
          Alcotest.test_case "rejects fractional weights" `Quick test_robp_rejects_fractional;
          Alcotest.test_case "floors capacity" `Quick test_robp_floors_capacity;
          Alcotest.test_case "budget wall at n-1" `Quick test_robp_budget_wall;
        ] );
      ( "exact",
        [
          Alcotest.test_case "known counts" `Quick test_exact_known_counts;
          Alcotest.test_case "oracle dispatch" `Quick test_exact_oracle_dispatch;
          Alcotest.test_case "n=40 small capacity" `Quick test_exact_small_capacity_n40;
        ] );
      ( "approx",
        [
          Alcotest.test_case "edge cases bracketed" `Quick test_approx_edges;
          Alcotest.test_case "gkm width budget" `Quick test_gkm_width_budget;
          Alcotest.test_case "scratch reuse bit-identical" `Quick
            test_scratch_reuse_bit_identical;
          Alcotest.test_case "grid edges = list path" `Quick test_grid_edges;
          Alcotest.test_case "grid width overrun" `Quick test_grid_width_overrun;
          Alcotest.test_case "grid overflow n=1100" `Quick test_grid_overflow;
        ] );
      ( "sampler",
        [ Alcotest.test_case "uniform + deterministic" `Quick test_sampler_draws ] );
      ("obs", [ Alcotest.test_case "phases traced" `Quick test_phases_traced ]);
      ("report", [ Alcotest.test_case "roundtrip" `Quick test_report_roundtrip ]);
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_exact_engines_agree;
          QCheck_alcotest.to_alcotest prop_approx_tight;
          QCheck_alcotest.to_alcotest prop_approx_loose;
          QCheck_alcotest.to_alcotest prop_gkm_capped_bracket;
          QCheck_alcotest.to_alcotest prop_grid_matches_list;
          QCheck_alcotest.to_alcotest prop_robp_oracle_matches_direct;
        ] );
    ]
