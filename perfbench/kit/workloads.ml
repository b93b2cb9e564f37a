(* The four workloads: inputs generated from the seed, the untimed set-up,
   one untraced request through the program's top-level API, and the check
   of every output.  Nothing here reaches below [Server], [Lca_kp], the
   counters' [count] entry points, [Gen], [Trace], [Access] and
   [Query_oracle]; the traced run (traced.ml) is the only code that calls
   layer internals, so reshaping those breaks it and not the measurement. *)

module Access = Lk_oracle.Access
module Counters = Lk_oracle.Counters
module Query_oracle = Lk_oracle.Query_oracle
module Params = Lk_lcakp.Params
module Lca_kp = Lk_lcakp.Lca_kp
module Server = Lk_serve.Server
module Trace = Lk_serve.Trace
module Gen = Lk_workloads.Gen
module Instance = Lk_knapsack.Instance
module Item = Lk_knapsack.Item
module Rng = Lk_util.Rng

type verdict = Pass | Uncertified | Wrong

let seed_of seed path = Rng.int64 (Rng.of_path seed path)

(* ---- serve-hot / serve-churn ------------------------------------------ *)

type group = { instance : int; positions : int array; items : int array }

type serve = {
  server : Server.t;
  n_items : int;
  traces : Trace.t array;
  groups : group array array;  (* per request: its entries by instance *)
  expected : Bytes.t array;  (* per request: '\001' where the answer is true *)
  reference : (Lca_kp.t * Lca_kp.state) array;  (* per instance *)
  mutable responses : bool array;
  mutable calls : int;
  mutable index : int;
  mutable samples : int;
  mutable pool_hits : int;
  mutable pool_misses : int;
  mutable evictions : int;
  mutable prepares : int;
  mutable memo_hits : int;
  mutable prepare_ns : float;
  seen : Bytes.t;  (* per (instance, item): first answer this pass *)
  mutable seen_pass : int;
  mutable agree : int;
  mutable repeats : int;
}

(* Entries of a trace grouped by instance, in first-appearance order. *)
let group_trace trace ~n_instances =
  let entries = Trace.entries trace in
  let buckets = Array.make n_instances [] and order = ref [] in
  Array.iteri
    (fun p (e : Trace.entry) ->
      if buckets.(e.instance) = [] then order := e.instance :: !order;
      buckets.(e.instance) <- p :: buckets.(e.instance))
    entries;
  List.rev !order
  |> List.map (fun instance ->
         let positions = Array.of_list (List.rev buckets.(instance)) in
         { instance; positions; items = Array.map (fun p -> entries.(p).Trace.item) positions })
  |> Array.of_list

(* The reference answers: [Lca_kp.answer_many] on a state prepared from the
   stream [Server] documents for each digest. *)
let expected_answers reference groups ~length =
  let out = Bytes.make length '\000' in
  Array.iter
    (fun g ->
      let algo, state = reference.(g.instance) in
      let answers = Lca_kp.answer_many algo state g.items in
      Array.iteri (fun j p -> if answers.(j) then Bytes.set out p '\001') g.positions)
    groups;
  out

(* Every LCA workload runs the configuration the committed bench ledgers
   track: practical preset, epsilon 0.25, sample scale 0.02. *)
let params = Params.practical ~sample_scale:0.02 0.25
let serve_n = 10_000

(* Requests are served on one domain.  On the 2-vCPU host this benchmark
   was built on, [jobs] 2 spawned a domain per window, ran 25-35% slower
   than [jobs] 1 and put 8-13% of requests above 1 ms (p50 0.43 ms) when
   the second vCPU was busy, which made throughput vary by 0.28 across
   seeds.  The traced run measures what the fan-out adds
   ([parallel.fanout_ms_per_req]). *)
let serve_jobs = 1

let serve_setup ~name ~n_instances ~budget ~theta_instances ~queries ~requests seed =
  let gen = Rng.of_path seed [ name; "instances" ] in
  let instances =
    Array.init n_instances (fun _ -> Gen.generate Gen.Uniform (Rng.split gen) ~n:serve_n)
  in
  let server_seed = seed_of seed [ name; "server" ] in
  let server = Server.create ~budget ~params ~seed:server_seed instances in
  let sizes = Array.make n_instances serve_n in
  let traces =
    Array.init requests (fun r ->
        Trace.generate ~theta_instances ~theta_items:1.0
          ~seed:(seed_of seed [ name; "trace"; string_of_int r ])
          ~sizes ~length:queries ())
  in
  let groups = Array.map (group_trace ~n_instances) traces in
  let digests = Server.digests server in
  let reference =
    Array.mapi
      (fun i inst ->
        let algo = Lca_kp.create params (Access.of_instance inst) ~seed:server_seed in
        let fresh = Rng.of_path server_seed [ "serve-prepare"; digests.(i) ] in
        (algo, Lca_kp.prepare algo ~fresh))
      instances
  in
  let expected = Array.map (fun g -> expected_answers reference g ~length:queries) groups in
  (* One untimed pass prepares every touched state and leaves the pool in
     the state each later pass starts from (an LRU's contents depend only
     on the most recent distinct keys), so every timed pass does the same
     work. *)
  Array.iter (fun tr -> ignore (Server.serve ~jobs:serve_jobs server tr)) traces;
  {
    server;
    n_items = serve_n;
    traces;
    groups;
    expected;
    reference;
    responses = [||];
    calls = 0;
    index = 0;
    samples = 0;
    pool_hits = 0;
    pool_misses = 0;
    evictions = 0;
    prepares = 0;
    memo_hits = 0;
    prepare_ns = 0.;
    seen = Bytes.make (n_instances * serve_n) '\000';
    seen_pass = -1;
    agree = 0;
    repeats = 0;
  }

let serve_request s i =
  let r = Server.serve ~jobs:serve_jobs s.server s.traces.(i) in
  s.responses <- r.Server.responses;
  s.calls <- s.calls + 1;
  s.index <- s.index + Counters.index_queries r.counters;
  s.samples <- s.samples + Counters.weighted_samples r.counters;
  s.pool_hits <- s.pool_hits + r.pool.hits;
  s.pool_misses <- s.pool_misses + r.pool.misses;
  s.evictions <- s.evictions + r.pool.evictions;
  s.prepares <- s.prepares + r.prepares;
  s.memo_hits <- s.memo_hits + r.memo_hits;
  s.prepare_ns <- s.prepare_ns +. r.prepare_ns;
  r

let serve_check s ~pass i =
  if pass <> s.seen_pass then begin
    Bytes.fill s.seen 0 (Bytes.length s.seen) '\000';
    s.seen_pass <- pass
  end;
  let entries = Trace.entries s.traces.(i) and expected = s.expected.(i) in
  let ok = ref (Array.length s.responses = Bytes.length expected) in
  if !ok then
    Array.iteri
      (fun p answer ->
        if answer <> (Bytes.get expected p = '\001') then ok := false;
        let e = entries.(p) in
        let key = (e.Trace.instance * s.n_items) + e.item in
        match Bytes.get s.seen key with
        | '\000' -> Bytes.set s.seen key (if answer then '\002' else '\001')
        | first ->
            s.repeats <- s.repeats + 1;
            if first = '\002' = answer then s.agree <- s.agree + 1)
      s.responses;
  if !ok then Pass else Wrong

(* ---- lca-query -------------------------------------------------------- *)

type lca = {
  algo : Lca_kp.t;
  access : Access.t;
  lca_seed : int64;
  items : int array;  (* the probed items; request j probes items.(j mod |items|) *)
  fresh : Rng.t array;  (* request j's fresh stream (copied before use) *)
  mutable answer : bool;
  first : Bytes.t;  (* per request: its answer on the first pass *)
  item_first : bool array;  (* per item: its first probe's answer this pass *)
  mutable agree : int;
  mutable repeats : int;
  mutable memo_hits : int;  (* [Lca_kp] memo hits as of the last check *)
}

let lca_n = 100_000
let lca_items = 128
let lca_probes = 8

let lca_setup seed =
  let instance =
    Gen.generate Gen.Garbage_mix (Rng.of_path seed [ "lca-query"; "instance" ]) ~n:lca_n
  in
  let access = Access.of_instance instance in
  let lca_seed = seed_of seed [ "lca-query"; "lca" ] in
  let algo = Lca_kp.create params access ~seed:lca_seed in
  let items =
    Array.of_list
      (Rng.sample_distinct (Rng.of_path seed [ "lca-query"; "items" ]) ~n:lca_n ~k:lca_items)
  in
  let requests = lca_items * lca_probes in
  let fresh =
    Array.init requests (fun j -> Rng.of_path seed [ "lca-query"; "fresh"; string_of_int j ])
  in
  (* Warm-up queries on streams outside the request set fill the
     algorithm's preparation arena, as a long-running caller's would be. *)
  for w = 0 to 7 do
    let state =
      Lca_kp.prepare algo ~fresh:(Rng.of_path seed [ "lca-query"; "warm"; string_of_int w ])
    in
    ignore (Lca_kp.answer algo state items.(w))
  done;
  {
    algo;
    access;
    lca_seed;
    items;
    fresh;
    answer = false;
    first = Bytes.make requests '\000';
    item_first = Array.make lca_items false;
    agree = 0;
    repeats = 0;
    memo_hits = 0;
  }

let lca_item l j = l.items.(j mod Array.length l.items)

let lca_request l j =
  let state = Lca_kp.prepare l.algo ~fresh:(Rng.copy l.fresh.(j)) in
  l.answer <- Lca_kp.answer l.algo state (lca_item l j)

(* A request's answer must repeat on every pass (its stream is fixed);
   repeated probes of one item with different streams are the LCA's
   consistency, which is measured, not required.

   lca-query must stay memo-cold.  [Lca_kp.prepare] memoises run states by
   stream, and the request set replays the same streams on every pass;
   real stateless traffic never repeats a stream.  Every request misses
   today only because its 1024 streams cycle through a FIFO memo of 64
   entries.  A request served from the memo would time a lookup instead
   of a query, so it counts as wrong. *)
let lca_check l ~pass:_ j =
  let code = if l.answer then '\002' else '\001' in
  let hits, _ = Lca_kp.cache_stats l.algo in
  let from_memo = hits > l.memo_hits in
  l.memo_hits <- hits;
  let verdict =
    match Bytes.get l.first j with
    | _ when from_memo -> Wrong
    | '\000' ->
        Bytes.set l.first j code;
        Pass
    | c -> if c = code then Pass else Wrong
  in
  let g = j mod Array.length l.items in
  if j < Array.length l.items then l.item_first.(g) <- l.answer
  else begin
    l.repeats <- l.repeats + 1;
    if l.item_first.(g) = l.answer then l.agree <- l.agree + 1
  end;
  verdict

(* ---- count ------------------------------------------------------------ *)

type kind = Gkm | Svv

type count_request = {
  kind : kind;
  oracle : Query_oracle.t;
  exact : float;  (* [infinity] where the exact engine overflows *)
}

type count = {
  reqs : count_request array;
  counters : Counters.t;
  mutable last : float * float * float;  (* lower, estimate, upper *)
  first : (float * float * float) option array;
  mutable agree : int;
  mutable repeats : int;
}

let gkm_eps = 0.25
let svv_eps = 0.5
let gkm_sizes = 56
let svv_sizes = 8

(* Sizes are stratified over a continuous range (one uniform draw per
   stratum), so latency percentiles never fall into a gap between size
   classes.  The GKM range straddles n ~ 1180, where the float counters
   overflow: those requests come back uncertified and are counted. *)
let stratified rng ~lo ~hi ~k =
  Array.init k (fun s ->
      lo + int_of_float (float_of_int (hi - lo) *. (float_of_int s +. Rng.float rng) /. float_of_int k))

let count_setup seed =
  let rng = Rng.of_path seed [ "count"; "instances" ] in
  let counters = Counters.create () in
  let make kind n =
    let weights = Array.init n (fun _ -> Rng.int_range rng 1 64) in
    let total = Array.fold_left ( + ) 0 weights in
    let instance =
      Instance.make
        (Array.map (fun w -> Item.make ~profit:1. ~weight:(float_of_int w)) weights)
        ~capacity:(float_of_int (total / 3))
    in
    let exact =
      Lk_counting.Exact.count (Query_oracle.of_instance ~counters:(Counters.create ()) instance)
    in
    { kind; oracle = Query_oracle.of_instance ~counters instance; exact }
  in
  let gkm = Array.map (make Gkm) (stratified rng ~lo:256 ~hi:1536 ~k:gkm_sizes) in
  let svv = Array.map (make Svv) (stratified rng ~lo:32 ~hi:64 ~k:svv_sizes) in
  let reqs = Array.append gkm svv in
  Rng.shuffle rng reqs;
  {
    reqs;
    counters;
    last = (nan, nan, nan);
    first = Array.make (Array.length reqs) None;
    agree = 0;
    repeats = 0;
  }

let count_request c i =
  let r = c.reqs.(i) in
  c.last <-
    (match r.kind with
    | Gkm ->
        let g = Lk_counting.Gkm.count ~eps:gkm_eps r.oracle in
        (g.lower, g.estimate, g.upper)
    | Svv ->
        let s = Lk_counting.Svv.count ~eps:svv_eps r.oracle in
        (s.lower, s.estimate, s.upper))

(* A certified bracket is finite and ordered, and holds the exact count
   wherever that is finite.  Above 2^53 the exact engine itself rounds, so
   containment allows a relative slack of 1e-9.  A non-finite bracket
   certifies nothing: it is counted as uncertified, not as a wrong
   answer. *)
let count_check c ~pass:_ i =
  let ((lower, estimate, upper) as got) = c.last in
  (match c.first.(i) with
  | None -> c.first.(i) <- Some got
  | Some first ->
      c.repeats <- c.repeats + 1;
      if first = got then c.agree <- c.agree + 1);
  let exact = c.reqs.(i).exact and slack = 1. +. 1e-9 in
  if not (Float.is_finite lower && Float.is_finite estimate && Float.is_finite upper) then
    Uncertified
  else if not (lower <= estimate && estimate <= upper) then Wrong
  else if Float.is_finite exact && not (lower <= exact *. slack && exact <= upper *. slack)
  then Wrong
  else Pass

(* ---- the workload table ----------------------------------------------- *)

type data = Serve of serve | Lca of lca | Count of count

type t = {
  requests : int;
  ops : int -> int;
  run : int -> unit;
  check : pass:int -> int -> verdict;
  probes : unit -> int * int;  (* index queries, weighted samples so far *)
  consistency : unit -> int * int;  (* repeats agreeing with the first, repeats *)
  data : data;
}

type spec = { name : string; tail : float; setup : int64 -> t }

let of_serve s =
  {
    requests = Array.length s.traces;
    ops = (fun i -> Trace.length s.traces.(i));
    run = (fun i -> ignore (serve_request s i));
    check = serve_check s;
    probes = (fun () -> (s.index, s.samples));
    consistency = (fun () -> (s.agree, s.repeats));
    data = Serve s;
  }

let of_lca l =
  let counters = Access.counters l.access in
  {
    requests = Array.length l.fresh;
    ops = (fun _ -> 1);
    run = lca_request l;
    check = lca_check l;
    probes =
      (fun () -> (Counters.index_queries counters, Counters.weighted_samples counters));
    consistency = (fun () -> (l.agree, l.repeats));
    data = Lca l;
  }

let of_count c =
  {
    requests = Array.length c.reqs;
    ops = (fun _ -> 1);
    run = count_request c;
    check = count_check c;
    probes =
      (fun () -> (Counters.index_queries c.counters, Counters.weighted_samples c.counters));
    consistency = (fun () -> (c.agree, c.repeats));
    data = Count c;
  }

let all =
  [
    {
      name = "serve-hot";
      tail = 0.99;
      setup =
        (fun seed ->
          of_serve
            (serve_setup ~name:"serve-hot" ~n_instances:8 ~budget:8 ~theta_instances:1.1
               ~queries:4096 ~requests:64 seed));
    };
    {
      name = "serve-churn";
      tail = 0.99;
      setup =
        (fun seed ->
          of_serve
            (serve_setup ~name:"serve-churn" ~n_instances:64 ~budget:4 ~theta_instances:0.
               ~queries:256 ~requests:16 seed));
    };
    { name = "lca-query"; tail = 0.99; setup = (fun seed -> of_lca (lca_setup seed)) };
    { name = "count"; tail = 0.90; setup = (fun seed -> of_count (count_setup seed)) };
  ]
