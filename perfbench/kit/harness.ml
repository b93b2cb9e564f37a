(* One run of one workload: set up several times, then a closed loop with a
   single client that replays the fixed request set in whole passes until
   the run's seconds are spent, then one JSON line on stdout.

   Passes are whole so that every count-derived metric (success share,
   consistency, probes per op, per-layer counters) is a function of the
   seed alone: every pass does the same work, so ratios over k passes equal
   the ratios over one. *)

module Stopwatch = Lk_benchkit.Stopwatch

type traced = {
  exec : Spans.t -> parent:int -> req:int -> int -> unit;
      (** the request, as calls into layers, each under its own span *)
  probe : Spans.t -> req:int -> int -> bool;
      (** re-times a request's inner steps on the same inputs, after it;
          false when they did not reproduce the request *)
  layers : (string -> int * float) -> (string * float * string) list;
      (** per-layer metrics, given (spans, total self ns) per span name *)
}

let clock =
  let t0 = Stopwatch.start () in
  fun () -> Stopwatch.elapsed_ns t0

let min_setups = 3
let max_setups = 15
let setup_budget_ns = 1e9
let min_passes = 2

(* The calibration kernel runs after every request longer than
   [long_request_ns], and otherwise whenever [calibrate_every_ns] has passed
   since it last ran.  Host speed also drifts within a second, and tracking
   it request by request steadied the lca-query p99.  Short requests are
   spared: running it that often would put the requests that follow it,
   with caches it disturbed, into the p99 tail of the short serve
   requests. *)
let calibrate_every_ns = 1e8
let long_request_ns = 1e6

type args = { workload : string; seed : int; seconds : float }

(* The executable fixes the mode: main.exe is untraced, traced.exe traced,
   so neither takes a --trace argument. *)
let parse_args () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10. in
  let names = List.map (fun (s : Workloads.spec) -> s.name) Workloads.all in
  let specs =
    [
      ("--workload", Arg.Set_string workload, " one of " ^ String.concat ", " names);
      ("--seed", Arg.Set_int seed, " seed the inputs are generated from");
      ("--seconds", Arg.Set_float seconds, " how long to measure");
    ]
  in
  let usage = Sys.executable_name ^ " --workload NAME --seed N --seconds S" in
  Arg.parse (Arg.align specs) (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if not (List.mem !workload names) then begin
    prerr_endline ("unknown --workload " ^ !workload ^ "; known: " ^ String.concat ", " names);
    exit 2
  end;
  if not (!seconds > 0.) then begin
    prerr_endline usage;
    exit 2
  end;
  { workload = !workload; seed = !seed; seconds = !seconds }

(* Growable float buffer for per-request latencies. *)
type samples = { mutable xs : float array; mutable n : int }

let add s x =
  if s.n = Array.length s.xs then begin
    let bigger = Array.make (2 * s.n) 0. in
    Array.blit s.xs 0 bigger 0 s.n;
    s.xs <- bigger
  end;
  s.xs.(s.n) <- x;
  s.n <- s.n + 1

type tally = {
  lat : samples;  (* ns per untraced request *)
  starts : samples;  (* when each untraced request started *)
  cal_at : samples;  (* when each calibration ran *)
  cal_ns : samples;  (* how long it took *)
  mutable untraced_ops : int;
  mutable untraced_ns : float;
  mutable traced_ops : int;
  mutable traced_ns : float;
  mutable attempted : int;
  mutable passed : int;
  mutable failed : int;
  mutable minor_words : float;  (* allocated during untraced passes *)
}

let metric name value unit =
  if not (Float.is_finite value) then failwith (Printf.sprintf "metric %s is %f" name value);
  Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name value unit

let print_result ~correct ~attempted ~failed metrics =
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", " (List.map (fun (n, v, u) -> metric n v u) metrics))

let spans_file workload = Filename.concat "_build" (Filename.concat "perfbench" (workload ^ ".spans.tsv"))

let write_spans workload spans =
  let path = spans_file workload in
  List.iter
    (fun d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755)
    [ "_build"; Filename.dirname path ];
  Out_channel.with_open_text path (fun oc -> Spans.write_tsv oc spans);
  Printf.eprintf "perfbench: %d spans written to %s\n" (Array.length spans) path

(* The end-to-end metrics.  Latencies are scaled by the host-speed factor
   at their start; the sample buffers are emptied afterwards so that the
   heap measured next is the program's, not the benchmark's. *)
let end_to_end t ~tail ~setup_ns =
  let factors =
    Calibration.factors
      ~samples:(Array.init t.cal_at.n (fun k -> (t.cal_at.xs.(k), t.cal_ns.xs.(k))))
      (Array.sub t.starts.xs 0 t.starts.n)
  in
  let sorted = Array.mapi (fun k f -> t.lat.xs.(k) /. f) factors in
  let total_ns = Array.fold_left ( +. ) 0. sorted in
  Array.sort Float.compare sorted;
  Printf.eprintf "perfbench: %d calibrations, median host factor %.3f\n" t.cal_ns.n
    (Calibration.median_factor (Array.to_list (Array.sub t.cal_ns.xs 0 t.cal_ns.n)));
  List.iter (fun s -> s.xs <- [||]) [ t.lat; t.starts; t.cal_at; t.cal_ns ];
  [
    ("setup_s", Stats.median setup_ns /. 1e9, "s");
    ("throughput_ops_s", float_of_int t.untraced_ops /. (total_ns /. 1e9), "ops/s");
    ("latency_p50_ms", Stats.percentile sorted 0.5 /. 1e6, "ms");
    ("latency_tail_ms", Option.get (Stats.tail sorted tail) /. 1e6, "ms");
  ]

let run layered =
  let args = parse_args () in
  let spec = List.find (fun (s : Workloads.spec) -> s.name = args.workload) Workloads.all in
  let seed = Int64.of_int args.seed in
  (* Set up at least [min_setups] times and until [setup_budget_ns] is
     spent, and report the median: a single sub-second set-up is too noisy
     to compare.  Each set-up starts from a collected heap, so none pays
     for the garbage of the one before. *)
  let setup_ns = ref [] and w = ref None in
  let calibrate () = List.init 3 (fun _ -> Calibration.measure clock) in
  while
    List.length !setup_ns < min_setups
    || (List.fold_left ( +. ) 0. !setup_ns < setup_budget_ns && List.length !setup_ns < max_setups)
  do
    w := None;
    Gc.full_major ();
    let before = calibrate () in
    let t0 = clock () in
    w := Some (spec.setup seed);
    let dt = clock () -. t0 in
    let factor = Calibration.median_factor (before @ calibrate ()) in
    setup_ns := (dt /. factor) :: !setup_ns
  done;
  let w = Option.get !w in
  let live_after_setup = (Gc.stat ()).Gc.live_words in
  let traced = Option.map (fun (names, make) -> (names, make w)) layered in
  let spans = Spans.create clock in
  let t =
    {
      lat = { xs = Array.make 4096 0.; n = 0 };
      starts = { xs = Array.make 4096 0.; n = 0 };
      cal_at = { xs = Array.make 1024 0.; n = 0 };
      cal_ns = { xs = Array.make 1024 0.; n = 0 };
      untraced_ops = 0;
      untraced_ns = 0.;
      traced_ops = 0;
      traced_ns = 0.;
      attempted = 0;
      passed = 0;
      failed = 0;
      minor_words = 0.;
    }
  in
  let probes0 = w.probes () and gc0 = Gc.quick_stat () in
  let need = if Option.is_none traced then Stats.samples_for_tail spec.tail else 0 in
  let seconds_ns = args.seconds *. 1e9 in
  let start = clock () in
  let last_calibration = ref neg_infinity in
  let calibrate () =
    let at = clock () in
    add t.cal_ns (Calibration.measure clock);
    add t.cal_at (at -. start);
    last_calibration := clock ()
  in
  let pass = ref 0 in
  let continue () =
    let elapsed = clock () -. start in
    (* Stop at the pass boundary nearest to the deadline. *)
    !pass < (if Option.is_none traced then min_passes else 2 * min_passes)
    || t.lat.n < need
    || elapsed +. (0.5 *. elapsed /. float_of_int !pass) < seconds_ns
  in
  while continue () do
    (* The traced run alternates untraced and traced passes, so the two
       throughputs behind [trace.overhead_share] see the same host. *)
    let tracing = Option.is_some traced && !pass mod 2 = 1 in
    let words0 = Gc.minor_words () in
    for i = 0 to w.requests - 1 do
      let req = (!pass * w.requests) + i in
      let t0 = clock () in
      let ok =
        match
          match traced with
          | Some (_, tr) when tracing ->
              Spans.with_span spans "request" ~parent:(-1) ~req (fun id ->
                  tr.exec spans ~parent:id ~req i)
          | _ -> w.run i
        with
        | () -> true
        | exception e ->
            Printf.eprintf "request %d raised %s\n%!" i (Printexc.to_string e);
            false
      in
      let dt = clock () -. t0 in
      let ops = w.ops i in
      if tracing then begin
        t.traced_ops <- t.traced_ops + ops;
        t.traced_ns <- t.traced_ns +. dt
      end
      else begin
        add t.lat dt;
        add t.starts (t0 -. start);
        t.untraced_ops <- t.untraced_ops + ops;
        t.untraced_ns <- t.untraced_ns +. dt
      end;
      let verdict = if ok then w.check ~pass:!pass i else Workloads.Wrong in
      let reproduced =
        match traced with
        | Some (_, tr) when tracing -> tr.probe spans ~req i
        | _ -> true
      in
      if not reproduced then Printf.eprintf "request %d: the probe did not reproduce it\n%!" i;
      t.attempted <- t.attempted + 1;
      (match if reproduced then verdict else Workloads.Wrong with
      | Workloads.Pass -> t.passed <- t.passed + 1
      | Uncertified -> ()
      | Wrong -> t.failed <- t.failed + 1);
      if dt >= long_request_ns || clock () -. !last_calibration >= calibrate_every_ns then
        calibrate ()
    done;
    if not tracing then t.minor_words <- t.minor_words +. (Gc.minor_words () -. words0);
    incr pass
  done;
  let elapsed = clock () -. start in
  let gc1 = Gc.quick_stat () in
  let index1, samples1 = w.probes () in
  let index = index1 - fst probes0 and samples = samples1 - snd probes0 in
  let ops = t.untraced_ops + t.traced_ops in
  let agree, repeats = w.consistency () in
  Printf.eprintf "perfbench: %s seed %d: %d passes, %d requests, %.2f s timed\n%!"
    args.workload args.seed !pass t.attempted (elapsed /. 1e9);
  let metrics =
    match traced with
    | None ->
        let times = end_to_end t ~tail:spec.tail ~setup_ns:!setup_ns in
        let live_words = max live_after_setup (Gc.stat ()).Gc.live_words in
        times
        @ [
            ("success_share", Stats.share t.passed t.attempted, "share");
            ("consistency", Stats.share agree repeats, "share");
            ("oracle_probes_per_op", Stats.per (float_of_int (index + samples)) ops, "probes/op");
            ("peak_heap_mb", float_of_int (live_words * (Sys.word_size / 8)) /. 1e6, "MB");
          ]
    | Some (layer_names, tr) ->
        let all = Spans.spans spans in
        write_spans args.workload all;
        let totals = Spans.totals all in
        let lookup name = Option.value (Hashtbl.find_opt totals name) ~default:(0, 0.) in
        let untraced_rate = float_of_int t.untraced_ops /. t.untraced_ns
        and traced_rate = float_of_int t.traced_ops /. t.traced_ns in
        let common =
          [
            ("oracle.samples_per_query", Stats.per (float_of_int samples) ops, "samples/op");
            ("oracle.index_queries_per_op", Stats.per (float_of_int index) ops, "queries/op");
            ("gc.minor_words_per_op", Stats.per t.minor_words t.untraced_ops, "words/op");
            ( "gc.major_collections",
              float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections),
              "count" );
            ("trace.coverage", Spans.coverage all ~name:"request", "share");
            ("trace.overhead_share", 1. -. (traced_rate /. untraced_rate), "share");
          ]
        in
        let measured = tr.layers lookup @ common in
        List.map
          (fun (name, unit) ->
            match List.find_opt (fun (n, _, _) -> n = name) measured with
            | Some m -> m
            | None -> (name, 0., unit))
          layer_names
  in
  List.iter (fun (n, v, u) -> Printf.eprintf "  %-30s %14.6g %s\n" n v u) metrics;
  print_result ~correct:(t.failed = 0) ~attempted:t.attempted ~failed:t.failed metrics

(* main.exe: the end-to-end metrics, through the top-level API only. *)
let untraced () = run None

(* traced.exe: the per-layer metrics [names], from the calls [make] issues
   each request as. *)
let traced ~names make = run (Some (names, make))
