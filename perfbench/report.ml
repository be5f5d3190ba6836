(* Turns a workload's samples into the metrics of BENCHMARK.json. *)

open Pypm
module S = Summary

type t = {
  attempted : int;
  failed : int;
  failures : string list;  (* the first few verification failures *)
  metrics : S.metrics;
}

let setup_repeats = 201
let serve_setup_repeats = 9

(* Layers no workload reaches; a change confined to them moves no
   number here until a workload does. *)
let unreached =
  [
    ("Eqsat (egraph saturation)", "runs only under the egraph engine; every workload uses the default engine");
    ("Team sharding", "only with domains > 1; the default options use 1");
    ("surface parsing, pattern binaries", "only for inline programs; every workload sends the named full set");
    ("fault injection, chaos paths", "the fault rate is 0");
    ("Obs event ring", "always on, so measured only inside the spans of other layers");
  ]

let print_unreached () =
  prerr_endline "layers no workload reaches:";
  List.iter (fun (l, why) -> Printf.eprintf "  %-36s %s\n" l why) unreached

let print_self_times spans ~ops =
  Printf.eprintf "traced layers, %d ops:\n  %-28s %8s %12s %12s %12s\n" ops "span"
    "calls" "total ms" "self ms" "self ms/op";
  List.iter
    (fun (name, n, tot, slf) ->
      Printf.eprintf "  %-28s %8d %12.3f %12.3f %12.4f\n" name n (S.ms tot)
        (S.ms slf)
        (S.ms slf /. float_of_int (max 1 ops)))
    (Spans.self_times spans)

let ensure_dir d = try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

let write_trace spans ~out_dir ~workload ~seed =
  ensure_dir out_dir;
  let path = Filename.concat out_dir (Printf.sprintf "trace-%s-%d.json" workload seed) in
  Spans.write_chrome spans path;
  Printf.eprintf "spans written to %s\n" path

let median_of f l = S.median (List.map f l)

(* A traced run alternates untraced and traced slices of equal length
   in the order A B B A A B B A ..., so that a drift of the host or the
   process over the run lands on both sides of the tracing overhead.
   [f ~traced ~slice budget] runs one slice; the results come back in
   run order, each with its [traced] flag. *)
let trace_slices = 16

let alternate ~seconds f =
  List.init trace_slices (fun i ->
      let traced = (i + 1) / 2 mod 2 = 1 in
      (traced, f ~traced ~slice:i (seconds /. float_of_int trace_slices)))

let side traced slices =
  List.concat_map (fun (t, r) -> if t = traced then r else []) slices
let median_int f l = if l = [] then 0. else median_of (fun x -> float_of_int (f x)) l

(* ---------------------------------------------------------------- *)
(* Per-layer metrics, shared by every workload                        *)

(* One pass the traced run observed. *)
type pass_sample = { counts : Inproc.pass_counts; run_s : float; live_in : int; live_out : int }

(* Values only the serve workload has; 0 elsewhere (no socket, no
   server). *)
type serve_layers = {
  service_hot_ms : float;
  service_fresh_ms : float;
  wire_ms : float;
  replay_vs_service : float;
  server_ready_ms : float;
  warmup_ms : float;
}

let no_server =
  { service_hot_ms = 0.; service_fresh_ms = 0.; wire_ms = 0.; replay_vs_service = 0.;
    server_ready_ms = 0.; warmup_ms = 0. }

(* Span name -> per-layer metric name (median ms per call). *)
let span_metrics =
  [
    ("graph.live_nodes", "graph.live_nodes_ms"); ("graph.gc", "graph.gc_ms");
    ("term_view.create", "term_view.create_ms"); ("pass.match_only", "pass.match_ms");
    ("pass.run", "pass.run_ms"); ("codec.decode", "codec.decode_ms");
    ("fuzz.fingerprint", "fuzz.fingerprint_ms"); ("cache.find", "cache.find_ms");
    ("cache.add", "cache.add_ms"); ("codec.encode", "codec.encode_ms");
    ("pass.stats_json", "pass.stats_json_ms");
    ("protocol.encode_outcome", "protocol.encode_outcome_ms");
    ("protocol.encode_request", "protocol.encode_request_ms");
    ("protocol.decode_response", "protocol.decode_response_ms");
  ]

let layer_metrics m spans ~passes ~hits ~lookups ~bytes_in ~bytes_out ~lint_s ~prepare_s
    ~serve ~untraced_ms ~traced_ms =
  List.iter
    (fun (span, name) ->
      let d = Spans.durations spans span in
      S.add m name (if d = [] then 0. else S.ms (S.median d)) "ms")
    span_metrics;
  let counts f = median_int (fun p -> f p.counts) passes in
  let per_rewrite f =
    List.filter_map
      (fun p ->
        let r = p.counts.Inproc.rewrites in
        if r = 0 then None else Some (f p /. float_of_int r))
      passes
  in
  S.add m "pass.iterations" (counts (fun c -> c.Inproc.iterations)) "count";
  S.add m "pass.ms_per_rewrite" (S.median (per_rewrite (fun p -> S.ms p.run_s))) "ms";
  S.add m "pass.visited_per_rewrite"
    (S.median (per_rewrite (fun p -> float_of_int p.counts.Inproc.nodes_visited)))
    "count";
  S.add m "pass.plan_walk_ms" (median_of (fun p -> S.ms p.counts.Inproc.plan_walk_s) passes) "ms";
  S.add m "pass.matcher_ms" (median_of (fun p -> S.ms p.counts.Inproc.matcher_s) passes) "ms";
  S.add m "pass.nodes_visited" (counts (fun c -> c.Inproc.nodes_visited)) "count";
  S.add m "pass.attempts" (counts (fun c -> c.Inproc.attempts)) "count";
  S.add m "pass.plan_pruned" (counts (fun c -> c.Inproc.plan_pruned)) "count";
  S.add m "pass.rewrites" (counts (fun c -> c.Inproc.rewrites)) "count";
  S.add m "pass.collected" (counts (fun c -> c.Inproc.collected)) "count";
  S.add m "pass.rolled_back" (counts (fun c -> c.Inproc.rolled_back)) "count";
  S.add m "graph.live_in" (median_int (fun p -> p.live_in) passes) "count";
  S.add m "graph.live_out" (median_int (fun p -> p.live_out) passes) "count";
  S.add m "cache.hit_ratio" (float_of_int hits /. float_of_int (max 1 lookups)) "ratio";
  S.add m "cache.lookups" (float_of_int lookups) "count";
  S.add m "codec.bytes_in" (median_int Fun.id bytes_in) "B";
  S.add m "codec.bytes_out" (median_int Fun.id bytes_out) "B";
  S.add m "serve.service_hot_ms" serve.service_hot_ms "ms";
  S.add m "serve.service_fresh_ms" serve.service_fresh_ms "ms";
  S.add m "serve.wire_ms" serve.wire_ms "ms";
  S.add m "replay.vs_service" serve.replay_vs_service "ratio";
  S.add m "setup.lint_ms" (S.ms lint_s) "ms";
  S.add m "setup.prepare_ms" (S.ms prepare_s) "ms";
  S.add m "setup.server_ready_ms" serve.server_ready_ms "ms";
  S.add m "setup.warmup_ms" serve.warmup_ms "ms";
  S.add m "trace.untraced_op_ms" untraced_ms "ms";
  S.add m "trace.traced_op_ms" traced_ms "ms";
  S.add m "trace.overhead_pct" (100. *. (traced_ms -. untraced_ms) /. untraced_ms) "%";
  Printf.eprintf
    "tracing overhead: untraced p50 %.3f ms, traced p50 %.3f ms (%+.1f%%)\n"
    untraced_ms traced_ms (100. *. (traced_ms -. untraced_ms) /. untraced_ms)

(* The end-to-end metrics, in BENCHMARK.json order. [pct q l] is the
   [q]th percentile of the latency samples [l], in ms, over [windows]
   time windows (see [Summary.windowed]). *)
let e2e_metrics m ~pct ~windows ~setup_s ~compile_ms ~nodes_per_s ~speedups ~rt_ms ~hot_ms
    ~fresh_ms ~rps ~peak_mb =
  let n = List.length compile_ms in
  Printf.eprintf
    "compile_ms over %d samples%s; serve_ms over %d samples (%d repeats, %d first sends); \
     timings are medians over %d time window(s)\n"
    n (if n < 100 then " (fewer than 100: p90 is the nearest rank)" else "")
    (List.length rt_ms) (List.length hot_ms) (List.length fresh_ms) windows;
  S.add m "setup_s" setup_s "s";
  S.add m "compile_ms.p50" (pct 50. compile_ms) "ms";
  S.add m "compile_ms.p90" (pct 90. compile_ms) "ms";
  S.add m "compile_nodes_per_s" nodes_per_s "1/s";
  S.add m "sim_speedup" (S.geomean speedups) "x";
  S.add m "serve_ms.p50" (pct 50. rt_ms) "ms";
  S.add m "serve_ms.p90" (pct 90. rt_ms) "ms";
  S.add m "serve_hot_ms.p50" (pct 50. hot_ms) "ms";
  S.add m "serve_fresh_ms.p50" (pct 50. fresh_ms) "ms";
  S.add m "serve_rps" rps "1/s";
  S.add m "peak_mem_mb" peak_mb "MiB"

let result ~m ~attempted ~problems =
  let failed = List.length problems in
  Printf.eprintf "failed_share: %d / %d\n" failed attempted;
  { attempted; failed; failures = List.filteri (fun i _ -> i < 10) (List.concat problems); metrics = m }

(* ---------------------------------------------------------------- *)
(* zoo, deep                                                          *)

(* Repeated set-up; medians of [setup_repeats]. Only the last context
   is kept, so no set-up pays the collector for the ones before it and
   they do not count in the top heap of [peak_mem_mb]. *)
let inproc_setup spans =
  let last = ref None in
  let runs =
    List.init setup_repeats (fun _ ->
        last := None;
        let t0 = Spans.now () in
        let ctx, lint, prep = Inproc.setup spans in
        let s = Spans.now () -. t0 in
        last := Some ctx;
        (s, lint, prep))
  in
  let ctx = Option.get !last in
  let med f = median_of f runs in
  (ctx, med (fun (s, _, _) -> s), med (fun (_, l, _) -> l), med (fun (_, _, p) -> p))

let inproc ~workload ~seed ~seconds ~traced ~out_dir =
  let strata, stratum, purpose =
    if workload = "zoo" then (Inputs.zoo_strata, Inputs.zoo_stratum, 1)
    else (Inputs.deep_strata, Inputs.deep_stratum, 2)
  in
  let quiet = Spans.create ~enabled:false in
  let spans = Spans.create ~enabled:traced in
  let ctx, setup_s, lint_s, prepare_s = inproc_setup spans in
  (* every op stream is the same seeded op sequence *)
  let stream () =
    (Hashtbl.create 256, Inputs.ops (Inputs.strata (Inputs.stream ~seed purpose) strata stratum))
  in
  let run_loop spans (seen, next) budget = Inproc.loop ~spans ~seen ~next ~budget ctx in
  let ops_ms ops = List.map (fun (o : Inproc.op) -> S.ms o.Inproc.run_s) ops in
  let m = S.metrics () in
  let all_ops =
    if not traced then begin
      let ops = run_loop quiet (stream ()) seconds in
      let cls hot = List.filter (fun (o : Inproc.op) -> o.Inproc.hot = hot) ops in
      let run_total = S.sum (List.map (fun (o : Inproc.op) -> o.Inproc.run_s) ops) in
      let nodes = List.fold_left (fun a (o : Inproc.op) -> a + o.Inproc.live_in) 0 ops in
      let distinct = Hashtbl.create 64 in
      List.iter (fun (o : Inproc.op) -> Hashtbl.replace distinct o.Inproc.fp_in o.Inproc.speedup) ops;
      Printf.eprintf "%d distinct graphs\n" (Hashtbl.length distinct);
      (* In-process, the caller's wait for one optimized graph is the
         Pypm_api.run call itself; with no cache, a repeat costs a full
         compile. *)
      (* one window, the whole run: zoo's strata differ in cost by 100x,
         and a slice of the run holds too few passes over them for a
         steady p90; deep has about 30 ops per run *)
      e2e_metrics m ~pct:(fun q l -> S.percentile l q) ~windows:1 ~setup_s
        ~compile_ms:(ops_ms ops)
        ~nodes_per_s:(float_of_int nodes /. run_total)
        ~speedups:(Hashtbl.fold (fun _ s acc -> s :: acc) distinct [])
        ~rt_ms:(ops_ms ops) ~hot_ms:(ops_ms (cls true)) ~fresh_ms:(ops_ms (cls false))
        ~rps:(float_of_int (List.length ops) /. run_total)
        ~peak_mb:(S.top_heap_mb ());
      ops
    end
    else begin
      (* each side carries on its own copy of the op sequence *)
      let streams = [| stream (); stream () |] in
      let slices =
        alternate ~seconds (fun ~traced ~slice:_ budget ->
            if traced then run_loop spans streams.(1) budget
            else run_loop quiet streams.(0) budget)
      in
      let untraced = side false slices and ops = side true slices in
      (* paired: both sides ran the same op sequence; compare the ops
         both completed *)
      let k = min (List.length untraced) (List.length ops) in
      let first l = List.filteri (fun i _ -> i < k) l in
      print_self_times spans ~ops:(List.length ops);
      print_unreached ();
      write_trace spans ~out_dir ~workload ~seed;
      layer_metrics m spans
        ~passes:
          (List.map
             (fun (o : Inproc.op) ->
               { counts = o.Inproc.counts; run_s = o.Inproc.run_s;
                 live_in = o.Inproc.live_in; live_out = o.Inproc.live_out })
             ops)
        ~hits:0 ~lookups:0 ~bytes_in:[] ~bytes_out:[] ~lint_s
        ~prepare_s ~serve:no_server
        ~untraced_ms:(S.median (ops_ms (first untraced)))
        ~traced_ms:(S.median (ops_ms (first ops)));
      untraced @ ops
    end
  in
  result ~m ~attempted:(List.length all_ops)
    ~problems:
      (List.filter_map
         (fun (o : Inproc.op) -> if o.Inproc.problems = [] then None else Some o.Inproc.problems)
         all_ops)

(* ---------------------------------------------------------------- *)
(* serve                                                              *)

module L = Serve_load

(* What verification learned from one distinct response body. *)
type checked = {
  problems : string list;
  fp_out : string;
  speedup : float;
  pass_s : float option;  (* the server's pass wall time; None if unreadable *)
}

let verify_body env (inp : L.input) body =
  match Protocol.decode_outcome body with
  | Error e -> { problems = [ "outcome: " ^ e ]; fp_out = ""; speedup = 1.; pass_s = None }
  | Ok o -> (
      let sj = o.Protocol.stats_json in
      let field k = S.json_field sj k in
      let status =
        {
          Verify.reached_fixpoint = field "reached_fixpoint" = Some "true";
          fuel_exhausted =
            Option.value ~default:(-1) (Option.bind (field "fuel_exhausted") int_of_string_opt);
          deadline_hit = field "deadline_hit" <> Some "false";
          errors = List.length o.Protocol.errors;
          fatal = o.Protocol.fatal <> None;
        }
      in
      let pass_s = Option.bind (field "wall_time_s") float_of_string_opt in
      let sg = Signature.copy env.Std_ops.sg in
      match Codec.Graphs.decode_into ~sg ~infer:env.Std_ops.infer o.Protocol.graph with
      | Error e -> { problems = [ "result graph: " ^ e ]; fp_out = ""; speedup = 1.; pass_s }
      | Ok g ->
          {
            problems = Verify.check inp.L.reference status g;
            fp_out = Verify.fingerprint g;
            speedup = Verify.speedup inp.L.reference g;
            pass_s;
          })

(* Verify every sample after the timed loop: one check per distinct
   (input, body) pair — a cached body is byte-identical to the cold
   one it came from — then equal inputs must have equal output
   fingerprints across the run. *)
let verify_samples env (load : L.load) samples =
  let checked = Hashtbl.create 1024 in
  let out_of_input = Hashtbl.create 1024 in
  List.map
      (fun (s : L.sample) ->
        match s.L.failure with
        | Some f -> (s, None, [ f ])
        | None ->
            let inp = L.input load s.L.input in
            let key = (s.L.input, s.L.body) in
            let c =
              match Hashtbl.find_opt checked key with
              | Some c -> c
              | None ->
                  let c = verify_body env inp (Hashtbl.find load.L.bodies s.L.body) in
                  Hashtbl.replace checked key c;
                  c
            in
            let consistency =
              match Hashtbl.find_opt out_of_input inp.L.fp with
              | Some fp when not (String.equal fp c.fp_out) ->
                  [ Printf.sprintf "request %d: equal inputs gave different outputs" s.L.rid ]
              | Some _ -> []
              | None ->
                  Hashtbl.replace out_of_input inp.L.fp c.fp_out;
                  []
            in
            (s, Some c, c.problems @ consistency))
    samples

let serve_setup ~pypmc ~socket ~warm =
  let runs =
    List.init serve_setup_repeats (fun i ->
        let r = L.start ~pypmc ~socket ~warm in
        if i < serve_setup_repeats - 1 then ignore (L.shutdown r);
        r)
  in
  let r = List.nth runs (serve_setup_repeats - 1) in
  let med f = median_of f runs in
  (r, med (fun r -> r.L.ready_s +. r.L.warm_s), med (fun r -> r.L.ready_s), med (fun r -> r.L.warm_s))

let serve ~seed ~seconds ~traced ~pypmc ~out_dir =
  ensure_dir out_dir;
  let socket = Filename.concat out_dir (Printf.sprintf "serve-%d.sock" (Unix.getpid ())) in
  let env = Std_ops.make () in
  (* every input is drawn before any timing starts (and, mid-run, in
     pauses the timings exclude) *)
  let gen = L.generator ~seed env in
  let warm = List.init L.warm_graphs (fun _ -> L.draw gen) in
  let load = L.new_load gen in
  L.refill gen load;
  let r, setup_s, ready_s, warm_s = serve_setup ~pypmc ~socket ~warm in
  let quiet = Spans.create ~enabled:false in
  let spans = Spans.create ~enabled:traced in
  let rng = Inputs.stream ~seed 103 in
  let phase ~spans ~first_rid budget =
    let samples, wall, failure = L.run_load ~spans ~gen ~rng ~load ~first_rid ~budget r in
    (samples, wall, Option.to_list failure)
  in
  let m = S.metrics () in
  let rt_ms l = List.map (fun (s : L.sample) -> S.ms s.L.rt_s) l in
  let timed l = List.map (fun (s : L.sample) -> (s.L.at_s, S.ms s.L.rt_s)) l in
  let cls hot l = List.filter (fun (s : L.sample) -> s.L.hot = hot) l in
  let samples, hard_failures =
    if not traced then begin
      let samples, wall, failures = phase ~spans:quiet ~first_rid:0 seconds in
      let peak_mb = L.shutdown r in
      let checked = verify_samples env load samples in
      (* the pass ran only for answers the server did not take from its
         cache *)
      let cold =
        List.filter_map
          (fun ((s : L.sample), c, _) ->
            match c with
            | Some { pass_s = Some p; _ } when not s.L.cached ->
                Some (s.L.at_s, p, (L.input load s.L.input).L.live_in)
            | _ -> None)
          checked
      in
      let speedups = Hashtbl.create 256 in
      List.iter
        (fun ((s : L.sample), c, _) ->
          match c with
          | Some c -> Hashtbl.replace speedups s.L.input c.speedup
          | None -> ())
        checked;
      let n = List.length samples in
      let hot = cls true samples in
      let windows = S.window_count n in
      let w f l = S.windowed ~n:windows ~span:wall f l in
      Printf.eprintf
        "requests: %d (%.1f%% repeats of the %d-graph hot set, %.1f%% first sends); \
         server cache hits %d; %d distinct inputs drawn, %d isomorphic draws skipped\n"
        n
        (100. *. float_of_int (List.length hot) /. float_of_int (max 1 n))
        L.hot_set
        (100. *. float_of_int (n - List.length hot) /. float_of_int (max 1 n))
        (List.length (List.filter (fun (s : L.sample) -> s.L.cached) samples))
        (Hashtbl.length load.L.inputs) gen.L.duplicates;
      e2e_metrics m ~setup_s
        ~pct:(fun q -> w (fun l -> S.percentile l q))
        ~windows
        ~compile_ms:(List.map (fun (t, p, _) -> (t, S.ms p)) cold)
        ~nodes_per_s:
          (w
             (fun l ->
               float_of_int (List.fold_left (fun a (_, n) -> a + n) 0 l)
               /. S.sum (List.map fst l))
             (List.map (fun (t, p, n) -> (t, (p, n))) cold))
        ~speedups:(Hashtbl.fold (fun _ s acc -> s :: acc) speedups [])
        ~rt_ms:(timed samples) ~hot_ms:(timed hot) ~fresh_ms:(timed (cls false samples))
        ~rps:
          (w
             (fun l -> float_of_int (List.length l) /. (wall /. float_of_int windows))
             (List.map (fun (s : L.sample) -> (s.L.at_s, ())) samples))
        ~peak_mb;
      (checked, failures)
    end
    else begin
      let failures = ref [] in
      let slices =
        alternate ~seconds (fun ~traced ~slice budget ->
            let samples, _, f =
              phase ~spans:(if traced then spans else quiet) ~first_rid:(slice * 1_000_000) budget
            in
            failures := !failures @ f;
            samples)
      in
      ignore (L.shutdown r);
      let all = List.concat_map snd slices in
      let a = side false slices and b = side true slices in
      (* replay each traced request's server pipeline in-process, in
         send order, against a benchmark-owned cache; untraced requests
         whose input a traced slice sends too are replayed in their
         place, untraced, so the cache holds what the server's held *)
      let ctx, _, lint_s, prepare_s = inproc_setup quiet in
      let cache = Cache.create ~max_bytes:(64 * 1024 * 1024) in
      let replayed = Hashtbl.create 4096 in
      let passes = ref [] and bytes_in = ref [] and bytes_out = ref [] in
      let replay_ratio = ref [] and hits = ref 0 in
      let decode bytes =
        match
          Codec.Graphs.decode_into ~sg:(Signature.copy ctx.Inproc.env.Std_ops.sg)
            ~infer:ctx.Inproc.env.Std_ops.infer bytes
        with
        | Ok g -> g
        | Error e -> failwith e
      in
      let replay spans (s : L.sample) =
        let inp = L.input load s.L.input in
        let miss = not (Hashtbl.mem replayed s.L.input) in
        Hashtbl.replace replayed s.L.input ();
        (* the copy [pass.match_only] runs on, decoded outside every span *)
        let copy = if miss && spans.Spans.enabled then Some (decode inp.L.bytes) else None in
        Spans.set_op spans s.L.rid;
        (* matching alone and the whole-graph probes, outside the
           replayed pipeline: the server does not run them *)
        Option.iter
          (fun copy ->
            Inproc.match_copy spans ctx copy;
            Inproc.probe spans copy)
          copy;
        let t0 = Spans.now () in
        let traced = spans.Spans.enabled in
        Spans.with_span spans "replay" (fun () ->
            let g, key, hit = Inproc.lookup spans ctx cache inp.L.bytes in
            if hit <> None then (if traced then incr hits)
            else begin
              let t = Spans.now () in
              let stats = Inproc.run spans ctx g in
              let run_s = Spans.now () -. t in
              let out, _ = Inproc.respond spans cache stats g ~key ~hit in
              if traced then begin
                passes :=
                  { counts = Inproc.pass_counts stats; run_s; live_in = inp.L.live_in;
                    live_out = Graph.live_count g }
                  :: !passes;
                bytes_out := String.length out :: !bytes_out
              end
            end);
        if traced then begin
          bytes_in := String.length inp.L.bytes :: !bytes_in;
          replay_ratio := ((Spans.now () -. t0) /. s.L.service_s) :: !replay_ratio
        end
      in
      let ok = List.filter (fun (s : L.sample) -> s.L.failure = None) in
      let in_b = Hashtbl.create 4096 in
      List.iter (fun (s : L.sample) -> Hashtbl.replace in_b s.L.input ()) b;
      List.iter
        (fun (traced, samples) ->
          List.iter
            (fun (s : L.sample) ->
              if traced then replay spans s
              else if Hashtbl.mem in_b s.L.input && not (Hashtbl.mem replayed s.L.input) then
                replay quiet s)
            (ok samples))
        slices;
      let traced = ok b in
      let lookups = List.length traced in
      Printf.eprintf "replayed %d traced requests (%d cache hits)\n" lookups !hits;
      print_self_times spans ~ops:lookups;
      print_unreached ();
      write_trace spans ~out_dir ~workload:"serve" ~seed;
      (* the two sides send different requests, except the hot set:
         tracing overhead compares the hot-set repeats the server
         answered from its cache on each side *)
      let repeats = List.filter (fun (s : L.sample) -> s.L.hot && s.L.cached) in
      let service hot = S.ms (median_of (fun (s : L.sample) -> s.L.service_s) (cls hot b)) in
      layer_metrics m spans ~passes:!passes ~hits:!hits ~lookups ~bytes_in:!bytes_in ~bytes_out:!bytes_out
        ~lint_s ~prepare_s
        ~serve:
          {
            service_hot_ms = service true;
            service_fresh_ms = service false;
            wire_ms = S.ms (median_of (fun (s : L.sample) -> s.L.rt_s -. s.L.service_s) b);
            replay_vs_service = S.median !replay_ratio;
            server_ready_ms = S.ms ready_s;
            warmup_ms = S.ms warm_s;
          }
        ~untraced_ms:(S.median (rt_ms (repeats a))) ~traced_ms:(S.median (rt_ms (repeats b)));
      (verify_samples env load all, !failures)
    end
  in
  let r =
    result ~m ~attempted:(List.length samples)
      ~problems:(List.filter_map (fun (_, _, p) -> if p = [] then None else Some p) samples)
  in
  if hard_failures = [] then r
  else { r with failed = r.failed + 1; failures = hard_failures @ r.failures }
