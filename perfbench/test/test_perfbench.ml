(* The benchmark's own arithmetic: nearest-rank percentiles with the
   ten-beyond rule for tails, span self times and coverage, the share
   metrics, and the host-speed factors times are scaled by. *)

open Perfbench_kit

let feq = Alcotest.float 1e-12
let ascending n = Array.init n (fun i -> float_of_int (i + 1))

let test_percentile () =
  let xs = ascending 100 in
  Alcotest.check feq "p50 of 1..100" 50. (Stats.percentile xs 0.5);
  Alcotest.check feq "p90 of 1..100" 90. (Stats.percentile xs 0.9);
  Alcotest.check feq "p99 of 1..100" 99. (Stats.percentile xs 0.99);
  Alcotest.check feq "p100 is the maximum" 100. (Stats.percentile xs 1.);
  Alcotest.check feq "p50 of one sample" 7. (Stats.percentile [| 7. |] 0.5);
  Alcotest.check feq "median of an odd list" 2. (Stats.median [ 3.; 1.; 2. ]);
  Alcotest.check feq "median of an even list is the lower middle" 2.
    (Stats.median [ 4.; 1.; 2.; 3. ])

(* 0.99 *. 1000. is not exactly 990 in floating point; the rank must not
   skip to 991. *)
let test_rank_rounding () =
  Alcotest.(check int) "p99 of 1000" 990 (Stats.rank ~n:1000 0.99);
  Alcotest.(check int) "p90 of 100" 90 (Stats.rank ~n:100 0.9);
  Alcotest.(check int) "p50 of 3" 2 (Stats.rank ~n:3 0.5);
  Alcotest.check_raises "p = 0 is rejected" (Invalid_argument "Stats.rank: p must be in (0, 1]")
    (fun () -> ignore (Stats.rank ~n:10 0.));
  Alcotest.check_raises "no samples" (Invalid_argument "Stats.rank: no samples") (fun () ->
      ignore (Stats.rank ~n:0 0.5))

let test_tail_rule () =
  Alcotest.(check int) "p99 needs 1000 samples" 1000 (Stats.samples_for_tail 0.99);
  Alcotest.(check int) "p90 needs 100 samples" 100 (Stats.samples_for_tail 0.9);
  Alcotest.(check (option feq)) "10 beyond p99 of 1000" (Some 990.)
    (Stats.tail (ascending 1000) 0.99);
  Alcotest.(check (option feq)) "9 beyond p99 of 999" None (Stats.tail (ascending 999) 0.99);
  Alcotest.(check (option feq)) "p90 of 100" (Some 90.) (Stats.tail (ascending 100) 0.9);
  Alcotest.(check int) "beyond p90 of 99" 9 (Stats.beyond ~n:99 0.9)

let test_shares () =
  Alcotest.check feq "share" 0.75 (Stats.share 3 4);
  Alcotest.check feq "per" 2.5 (Stats.per 10. 4);
  Alcotest.check_raises "share of nothing" (Invalid_argument "Stats.share: empty denominator")
    (fun () -> ignore (Stats.share 0 0));
  Alcotest.check_raises "per nothing" (Invalid_argument "Stats.per: empty denominator")
    (fun () -> ignore (Stats.per 1. 0))

let span ?(parent = -1) name start stop = { Spans.name; start; stop; parent; req = 0 }

(* A request [0, 10] with overlapping children [1, 3] and [2, 5], a
   disjoint child [7, 8], and a child [9, 12] that outlives it. *)
let request_tree =
  [|
    span "request" 0. 10.;
    span ~parent:0 "a" 1. 3.;
    span ~parent:0 "b" 2. 5.;
    span ~parent:0 "a" 7. 8.;
    span ~parent:0 "c" 9. 12.;
    span ~parent:2 "d" 2. 4.;
  |]

let test_self_time () =
  let self = Spans.self_times request_tree in
  Alcotest.check feq "request: 10 minus [1,5] [7,8] [9,10]" 4. self.(0);
  Alcotest.check feq "leaf a" 2. self.(1);
  Alcotest.check feq "b minus its child d" 1. self.(2);
  Alcotest.check feq "leaf c keeps its full duration" 3. self.(4);
  let n, total = Hashtbl.find (Spans.totals request_tree) "a" in
  Alcotest.(check int) "two spans named a" 2 n;
  Alcotest.check feq "their summed self time" 3. total

let test_coverage () =
  Alcotest.check feq "one request" 0.6 (Spans.coverage request_tree ~name:"request");
  let two = Array.append request_tree [| span "request" 20. 30.; span ~parent:6 "a" 20. 30. |] in
  Alcotest.check feq "time-weighted over requests" 0.8 (Spans.coverage two ~name:"request");
  Alcotest.check feq "no such span" 0. (Spans.coverage two ~name:"none")

let test_recorder () =
  let now = ref 0. in
  let clock () =
    now := !now +. 1.;
    !now
  in
  let t = Spans.create clock in
  Spans.with_span t "request" ~parent:(-1) ~req:3 (fun id ->
      Spans.with_span t "child" ~parent:id ~req:3 (fun _ -> ()));
  (try Spans.with_span t "boom" ~parent:(-1) ~req:4 (fun _ -> failwith "boom")
   with Failure _ -> ());
  let s = Spans.spans t in
  Alcotest.(check int) "three spans" 3 (Array.length s);
  Alcotest.(check int) "child's parent" 0 s.(1).parent;
  Alcotest.(check int) "request id" 3 s.(1).req;
  Alcotest.check feq "request covers its child" 3. (s.(0).stop -. s.(0).start);
  Alcotest.(check bool) "a raising span is still closed" true (Float.is_finite s.(2).stop)

(* Each request is scaled by the median kernel time over the 5 nearest
   calibrations; windows are clamped at both ends of the run. *)
let test_calibration () =
  let nominal = Calibration.nominal_ns in
  let at_times ms = Array.mapi (fun k m -> (float_of_int (10 * k), m *. nominal)) ms in
  let samples = at_times [| 1.; 4.; 2.; 8.; 3.; 5.; 7.; 6. |] in
  let f = Calibration.factors ~samples [| 0.; 34.; 36.; 70. |] in
  Alcotest.check feq "first window is clamped to samples 0-4" 3. f.(0);
  Alcotest.check feq "34 is nearest to sample 3: samples 1-5" 4. f.(1);
  Alcotest.check feq "36 is nearest to sample 4: samples 2-6" 5. f.(2);
  Alcotest.check feq "last window is clamped to samples 3-7" 6. f.(3);
  Alcotest.check feq "fewer samples than a window: all of them" 1.
    (Calibration.factors ~samples:(at_times [| 1.; 3. |]) [| 5. |]).(0);
  Alcotest.check feq "median factor" 2.
    (Calibration.median_factor [ nominal; 2. *. nominal; 3. *. nominal ]);
  Alcotest.check_raises "no calibrations" (Invalid_argument "Calibration.factors: no samples")
    (fun () -> ignore (Calibration.factors ~samples:[||] [| 1. |]))

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "nearest-rank percentile" `Quick test_percentile;
          Alcotest.test_case "rank rounding" `Quick test_rank_rounding;
          Alcotest.test_case "ten beyond the tail" `Quick test_tail_rule;
          Alcotest.test_case "shares" `Quick test_shares;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "coverage" `Quick test_coverage;
          Alcotest.test_case "recorder" `Quick test_recorder;
        ] );
      ("calibration", [ Alcotest.test_case "nearest-sample factors" `Quick test_calibration ]);
    ]
