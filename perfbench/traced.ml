(* The traced run: each request is issued as calls into the layers below the
   top-level API, each call under its own span, plus probes that re-time a
   request's inner steps on the same inputs.  Only this file names layer
   internals (Tilde, Eps, Convert_greedy, Batch, Robp, Count_scratch, the
   counters' [count_in] kernels), so a change to them can break the traced
   run but never the untraced measurement in main.ml. *)

open Perfbench_kit
module W = Workloads
module Access = Lk_oracle.Access
module Counters = Lk_oracle.Counters
module Params = Lk_lcakp.Params
module Lca_kp = Lk_lcakp.Lca_kp
module Tilde = Lk_lcakp.Tilde
module Eps = Lk_lcakp.Eps
module Convert_greedy = Lk_lcakp.Convert_greedy
module Prep_arena = Lk_lcakp.Prep_arena
module Item = Lk_knapsack.Item
module Rng = Lk_util.Rng
module Robp = Lk_counting.Robp
module Gkm = Lk_counting.Gkm
module Svv = Lk_counting.Svv
module Count_scratch = Lk_counting.Count_scratch

(* Every per-layer metric, with its unit; a layer a workload does not run
   reads 0 there. *)
let names =
  [
    ("serve.pool_hit_share", "share");
    ("serve.prepares_per_req", "count/req");
    ("serve.memo_hit_share", "share");
    ("serve.evictions_per_req", "count/req");
    ("serve.prepare_ms_per_req", "ms");
    ("batch.answer_ns", "ns");
    ("parallel.overhead_ms_per_req", "ms");
    ("parallel.fanout_ms_per_req", "ms");
    ("oracle.sample_ms", "ms");
    ("core.encode_ms", "ms");
    ("core.eps_ms", "ms");
    ("core.eps_buckets", "count");
    ("core.tilde_ms", "ms");
    ("core.convert_greedy_us", "us");
    ("oracle.samples_per_query", "samples/op");
    ("oracle.index_queries_per_op", "queries/op");
    ("count.robp_ms", "ms");
    ("count.gkm_ms", "ms");
    ("count.gkm_width", "count");
    ("count.gkm_merges", "count");
    ("count.svv_ms", "ms");
    ("count.svv_levels", "count");
    ("count.nonfinite_share", "share");
    ("count.bracket_ratio", "ratio");
    ("gc.minor_words_per_op", "words/op");
    ("gc.major_collections", "count");
    ("trace.coverage", "share");
    ("trace.overhead_share", "share");
  ]

let ratio num den = if den = 0 then 0. else float_of_int num /. float_of_int den
let mean total n = if n = 0 then 0. else total /. float_of_int n

(* Serving: the request is one [Server.serve] call.  The probe answers the
   same groups serially with [Batch.answer] on the reference states (which
   are bit-identical to the server's), so serve time minus preparation
   minus serial answering is what the server and the engine add.  It then
   serves the request again with [fanout_jobs] domains; the difference to
   the request's own serve time is what the domain fan-out costs.  Serving
   one trace twice leaves the LRU pool as serving it once does, and the
   fan-out must give the request's own responses. *)
let fanout_jobs = 2

let serve (s : W.serve) =
  let traced = ref 0 and prepare_ns = ref 0. and answers = ref 0 and fanout_prepare_ns = ref 0. in
  let exec spans ~parent ~req i =
    let r = Spans.with_span spans "serve.serve" ~parent ~req (fun _ -> W.serve_request s i) in
    incr traced;
    prepare_ns := !prepare_ns +. r.Lk_serve.Server.prepare_ns
  in
  let probe spans ~req i =
    Spans.with_span spans "probe" ~parent:(-1) ~req (fun parent ->
        Array.iter
          (fun (g : W.group) ->
            let algo, state = s.reference.(g.instance) in
            Spans.with_span spans "batch.answer" ~parent ~req (fun _ ->
                ignore (Lk_serve.Batch.answer algo state g.items));
            answers := !answers + Array.length g.items)
          s.groups.(i);
        let r =
          Spans.with_span spans "parallel.fanout" ~parent ~req (fun _ ->
              Lk_serve.Server.serve ~jobs:fanout_jobs s.server s.traces.(i))
        in
        fanout_prepare_ns := !fanout_prepare_ns +. r.prepare_ns;
        r.responses = s.responses)
  in
  let layers lookup =
    let _, serve_ns = lookup "serve.serve" and _, batch_ns = lookup "batch.answer" in
    let _, fanout_ns = lookup "parallel.fanout" in
    let batch_per_answer = mean batch_ns !answers in
    let answers_per_req = mean (float_of_int !answers) !traced in
    [
      ("serve.pool_hit_share", ratio s.pool_hits (s.pool_hits + s.pool_misses), "share");
      ("serve.prepares_per_req", ratio s.prepares s.calls, "count/req");
      ("serve.memo_hit_share", ratio s.memo_hits s.prepares, "share");
      ("serve.evictions_per_req", ratio s.evictions s.calls, "count/req");
      ("serve.prepare_ms_per_req", mean (s.prepare_ns /. 1e6) s.calls, "ms");
      ("batch.answer_ns", batch_per_answer, "ns");
      ( "parallel.overhead_ms_per_req",
        (mean (serve_ns -. !prepare_ns) !traced -. (batch_per_answer *. answers_per_req)) /. 1e6,
        "ms" );
      ( "parallel.fanout_ms_per_req",
        mean (fanout_ns -. !fanout_prepare_ns -. (serve_ns -. !prepare_ns)) !traced /. 1e6,
        "ms" );
    ]
  in
  { Harness.exec; probe; layers }

(* LCA: the request is Tilde.build + CONVERT-GREEDY + the answer, the same
   work [Lca_kp.prepare] + [answer] do on a memo miss.  The probe replays
   the request's stream through the steps inside Tilde.build — R̄ and Q̄
   sampling, efficiency encoding, EPS/rQuantile — on counters of its own,
   so it leaves the request's oracle bill untouched.  Those steps are a copy
   of Tilde.build's body, so the probe checks itself against the request:
   its sample count and its EPS must equal the request's [samples_used] and
   [eps], or the request counts as failed. *)
let lca (l : W.lca) =
  let arena = Prep_arena.create () and probe_arena = Prep_arena.create () in
  let probe_access = Access.with_counters l.access (Counters.create ()) in
  let p = W.params in
  let cutoff = Params.large_profit_cutoff p in
  let traced = ref 0 and probed = ref 0 and buckets = ref 0 and last = ref None in
  let exec spans ~parent ~req j =
    let span name f = Spans.with_span spans name ~parent ~req (fun _ -> f ()) in
    let fresh = Rng.copy l.fresh.(j) in
    let tilde =
      span "core.tilde" (fun () -> Tilde.build ~arena p l.access ~seed:l.lca_seed ~fresh)
    in
    let decision = span "core.convert_greedy" (fun () -> Convert_greedy.run p tilde) in
    l.answer <-
      span "lcakp.answer" (fun () -> Lca_kp.answer l.algo { Lca_kp.tilde; decision } (W.lca_item l j));
    incr traced;
    buckets := !buckets + Eps.length tilde.Tilde.eps;
    last := Some tilde
  in
  let probe spans ~req j =
    let rng = Rng.copy l.fresh.(j) in
    let samples0 = Counters.weighted_samples (Access.counters probe_access) in
    let eps =
      Spans.with_span spans "probe" ~parent:(-1) ~req (fun parent ->
          let span name f = Spans.with_span spans name ~parent ~req (fun _ -> f ()) in
          let r =
            span "oracle.sample" (fun () ->
                Access.sample_many probe_access rng (Params.r_sample_size p))
          in
          let large = Hashtbl.create 64 in
          Array.iter
            (fun (i, (it : Item.t)) -> if it.profit > cutoff then Hashtbl.replace large i it.profit)
            r;
          let large_profit =
            Lk_util.Det.sorted_bindings large
            |> List.map snd |> Array.of_list |> Lk_util.Float_utils.sum
          in
          let small_mass = 1. -. large_profit in
          if small_mass < p.Params.epsilon then Eps.empty
          else begin
            let n_rq = Params.rq_sample_size p in
            let a = int_of_float (ceil (3. *. float_of_int n_rq /. (2. *. small_mass))) in
            let q = span "oracle.sample" (fun () -> Access.sample_many probe_access rng a) in
            let salt_cache = Prep_arena.salts probe_arena (Access.size l.access) in
            let codes =
              span "core.encode" (fun () ->
                  let buf = Array.make a 0 and cursor = ref a in
                  Array.iter
                    (fun (i, (it : Item.t)) ->
                      if it.profit <= cutoff then begin
                        decr cursor;
                        buf.(!cursor) <-
                          Params.encode_efficiency ~salt_cache p ~seed:l.lca_seed ~index:i
                            (Item.efficiency it)
                      end)
                    q;
                  Array.sub buf !cursor (a - !cursor))
            in
            let scratch = Prep_arena.sort_scratch probe_arena (Array.length codes) in
            span "core.eps" (fun () ->
                Eps.compute ~scratch p ~seed:l.lca_seed ~large_profit ~encoded_efficiencies:codes)
          end)
    in
    incr probed;
    let samples = Counters.weighted_samples (Access.counters probe_access) - samples0 in
    match !last with
    | Some (tilde : Tilde.t) -> samples = tilde.samples_used && eps = tilde.eps
    | None -> false
  in
  let layers lookup =
    let per name n = mean (snd (lookup name)) n in
    [
      ("oracle.sample_ms", per "oracle.sample" !probed /. 1e6, "ms");
      ("core.encode_ms", per "core.encode" !probed /. 1e6, "ms");
      ("core.eps_ms", per "core.eps" !probed /. 1e6, "ms");
      ("core.eps_buckets", mean (float_of_int !buckets) !traced, "count");
      ("core.tilde_ms", per "core.tilde" !traced /. 1e6, "ms");
      ("core.convert_greedy_us", per "core.convert_greedy" !traced /. 1e3, "us");
    ]
  in
  { Harness.exec; probe; layers }

(* Counting: the request is the program build plus one counting kernel,
   the two steps [Gkm.count] / [Svv.count] take. *)
let count (c : W.count) =
  let gkm = ref 0 and svv = ref 0 and width = ref 0 and merges = ref 0 and levels = ref 0 in
  let nonfinite = ref 0 and finite = ref 0 and log_ratio = ref 0. in
  let exec spans ~parent ~req i =
    let span name f = Spans.with_span spans name ~parent ~req (fun _ -> f ()) in
    let r = c.reqs.(i) in
    let robp = span "count.robp" (fun () -> Robp.build r.oracle) in
    let scratch = Count_scratch.create () in
    let ((lower, _, upper) as got) =
      match r.kind with
      | W.Gkm ->
          let g = span "count.gkm" (fun () -> Gkm.count_in ~eps:W.gkm_eps scratch robp) in
          incr gkm;
          width := !width + g.width;
          merges := !merges + g.merges;
          (g.lower, g.estimate, g.upper)
      | W.Svv ->
          let s = span "count.svv" (fun () -> Svv.count_in ~eps:W.svv_eps scratch robp) in
          incr svv;
          levels := !levels + s.levels;
          (s.lower, s.estimate, s.upper)
    in
    c.last <- got;
    if Float.is_finite lower && Float.is_finite upper then begin
      incr finite;
      log_ratio := !log_ratio +. log (upper /. lower)
    end
    else incr nonfinite
  in
  let layers lookup =
    let per name n = mean (snd (lookup name)) n /. 1e6 in
    [
      ("count.robp_ms", per "count.robp" (!gkm + !svv), "ms");
      ("count.gkm_ms", per "count.gkm" !gkm, "ms");
      ("count.gkm_width", mean (float_of_int !width) !gkm, "count");
      ("count.gkm_merges", mean (float_of_int !merges) !gkm, "count");
      ("count.svv_ms", per "count.svv" !svv, "ms");
      ("count.svv_levels", mean (float_of_int !levels) !svv, "count");
      ("count.nonfinite_share", ratio !nonfinite (!gkm + !svv), "share");
      ("count.bracket_ratio", exp (mean !log_ratio !finite), "ratio");
    ]
  in
  { Harness.exec; probe = (fun _ ~req:_ _ -> true); layers }

let make (w : W.t) =
  match w.data with W.Serve s -> serve s | W.Lca l -> lca l | W.Count c -> count c

let () = Harness.traced ~names make
