(* The figure harness: regenerates every figure of the paper's evaluation
   (section 4.1) against the simulated device and the synthetic zoos, plus
   bechamel micro-benchmarks for the matcher implementations.

     dune exec bench/main.exe            -- everything
     dune exec bench/main.exe -- fig10   -- HuggingFace speedup histograms
     dune exec bench/main.exe -- fig11   -- TorchVision speedup histograms
     dune exec bench/main.exe -- fig12   -- HF matcher cost vs #matches
     dune exec bench/main.exe -- fig13   -- TV matcher cost vs #matches
     dune exec bench/main.exe -- micro   -- bechamel matcher micro-benches
     dune exec bench/main.exe -- ablation -- pass/matcher design ablations

   Options:
     --engine naive/index/plan/egraph -- pin the matching engine (default:
                                     run the paper's naive engine for the
                                     figure tables, and naive/index/plan
                                     for the engine-comparison section of
                                     fig12/fig13; egraph is opt-in there
                                     since its saturation post-phase can
                                     change the final graph)
     --quick                      -- smoke mode: first 3 models per suite
     --json PATH                  -- fig12/fig13: also write the figure's
                                     machine-readable summary (engine
                                     agreement, per-engine matcher totals)
                                     to PATH; the figure name is inserted
                                     before the extension unless already
                                     present *)

open Pypm

let device = Cost.a6000

(* --engine / --quick, parsed in the driver at the bottom. *)
let engine_filter : Pass.engine option ref = ref None
let quick = ref false

(* The pass configuration running [engine] ([None]: naive). *)
let config_for engine = { Pass.Config.default with Pass.Config.engine }

let engines_selected () =
  match !engine_filter with
  | Some e -> [ e ]
  | None -> [ Pass.Naive; Pass.Index; Pass.Plan ]

let rec take n = function
  | x :: xs when n > 0 -> x :: take (n - 1) xs
  | _ -> []

let suite_models models = if !quick then take 3 models else models

(* Durations come from the monotonic clock: gettimeofday is subject to
   NTP slews and steps, which turn a benchmark row into noise. *)
let time_s f =
  let t0 = Obs.monotonic () in
  let r = f () in
  (r, Obs.monotonic () -. t0)

(* --json PATH: write the figure's machine-readable summary. When the
   path does not already name the figure, it is inserted before the
   extension, so one --json BENCH.json serves fig12 and fig13 both. *)
let json_path : string option ref = ref None

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let json_file_for ~figure =
  match !json_path with
  | None -> None
  | Some p ->
      let fig = String.lowercase_ascii figure in
      if contains_sub (String.lowercase_ascii (Filename.basename p)) fig then
        Some p
      else
        let ext = Filename.extension p in
        let base =
          if ext = "" then p else Filename.remove_extension p
        in
        Some (Printf.sprintf "%s_%s%s" base fig ext)

(* ------------------------------------------------------------------ *)
(* Compile configurations (paper: four ways per model)                 *)
(* ------------------------------------------------------------------ *)

type opt_config = Baseline | Fmha_only | Epilog_only | Both

let program_of sg = function
  | Baseline -> Program.make ~sg []
  | Fmha_only -> Corpus.fmha_program sg
  | Epilog_only -> Corpus.epilog_program sg
  | Both -> Corpus.both_program sg

(* Build the model fresh, compile with [config], return simulated cost and
   the pass stats. *)
let compile_and_time ?engine (model : Zoo.model) config =
  let env, g = model.Zoo.build () in
  let prog = program_of env.Std_ops.sg config in
  let stats = Pass.run_cfg ~config:(config_for engine) prog g in
  let errs = Graph.validate g in
  if errs <> [] then (
    List.iter prerr_endline errs;
    failwith (model.Zoo.mname ^ ": invalid graph after rewriting"));
  (Exec.graph_cost device g, stats)

(* ------------------------------------------------------------------ *)
(* Histogram rendering (figures 10 and 11 are speedup histograms)      *)
(* ------------------------------------------------------------------ *)

let histogram ~title values =
  let buckets =
    [ (1.00, 1.05); (1.05, 1.10); (1.10, 1.20); (1.20, 1.35); (1.35, 1.50);
      (1.50, 1.75); (1.75, 2.00); (2.00, 99.0) ]
  in
  Printf.printf "  %s (n=%d)\n" title (List.length values);
  List.iter
    (fun (lo, hi) ->
      let n =
        List.length (List.filter (fun v -> v >= lo -. 1e-9 && v < hi) values)
      in
      let label =
        if hi > 10. then Printf.sprintf ">= %.2fx      " lo
        else Printf.sprintf "%.2fx - %.2fx" lo hi
      in
      Printf.printf "    %s | %-3d %s\n" label n (String.make n '#'))
    buckets;
  let mean =
    List.fold_left ( +. ) 0. values /. float_of_int (List.length values)
  in
  let mx = List.fold_left Float.max 1.0 values in
  Printf.printf "    mean %.3fx, max %.3fx\n" mean mx

let speedup_figure ~figure ~suite models =
  Printf.printf "== %s: %s relative-speedup histograms ==\n" figure suite;
  Printf.printf
    "   (speedup of each optimized compile vs the same model compiled\n";
  Printf.printf "    with no PyPM rewrites, on the simulated %s)\n\n"
    device.Cost.dname;
  let rows =
    List.map
      (fun (m : Zoo.model) ->
        let base, _ = compile_and_time ?engine:!engine_filter m Baseline in
        let per config =
          let cost, stats = compile_and_time ?engine:!engine_filter m config in
          ( Exec.speedup ~baseline:base ~optimized:cost,
            stats.Pass.total_rewrites )
        in
        let f, fr = per Fmha_only in
        let e, er = per Epilog_only in
        let b, br = per Both in
        Printf.printf
          "  %-16s fmha %.3fx (%d rw)   epilog %.3fx (%d rw)   both %.3fx \
           (%d rw)\n"
          m.Zoo.mname f fr e er b br;
        (f, e, b))
      models
  in
  print_newline ();
  histogram ~title:"FMHA only" (List.map (fun (f, _, _) -> f) rows);
  histogram ~title:"Epilog only" (List.map (fun (_, e, _) -> e) rows);
  histogram ~title:"Both optimizations" (List.map (fun (_, _, b) -> b) rows);
  print_newline ()

let fig10 () =
  speedup_figure ~figure:"FIG10" ~suite:"HuggingFace suite"
    (suite_models (Zoo.hf ()))

let fig11 () =
  speedup_figure ~figure:"FIG11" ~suite:"TorchVision suite"
    (suite_models (Zoo.tv ()))

(* ------------------------------------------------------------------ *)
(* Figures 12 / 13: matcher wall-clock vs number of matches            *)
(* ------------------------------------------------------------------ *)

let pattern_family_time stats =
  List.fold_left
    (fun (m, t) (ps : Pass.pattern_stats) ->
      (m + ps.Pass.matches, t +. ps.Pass.match_time))
    (0, 0.) stats.Pass.per_pattern

(* Structural hash of the live graph after normalization, for the
   cross-engine agreement check. Each model build draws fresh input symbols
   from a global counter ([tokens%1] vs [tokens%19]), so uid suffixes are
   relabelled by first appearance in a DFS from the outputs; shared
   subgraphs are emitted once and referenced, so the hash sees the DAG. *)
let graph_hash g =
  ignore (Graph.gc g);
  let uids = Hashtbl.create 32 in
  let canon_sym (s : Symbol.t) =
    match String.index_opt (s :> string) '%' with
    | None -> (s :> string)
    | Some i ->
        let k =
          match Hashtbl.find_opt uids s with
          | Some k -> k
          | None ->
              let k = Hashtbl.length uids in
              Hashtbl.add uids s k;
              k
        in
        Printf.sprintf "%s#%d" (String.sub (s :> string) 0 i) k
  in
  let buf = Buffer.create 4096 in
  let seen = Hashtbl.create 256 in
  let rec go (n : Graph.node) =
    match Hashtbl.find_opt seen n.Graph.id with
    | Some k -> Buffer.add_string buf (Printf.sprintf "@%d" k)
    | None ->
        Hashtbl.add seen n.Graph.id (Hashtbl.length seen);
        Buffer.add_string buf (canon_sym n.Graph.op);
        List.iter
          (fun (k, v) -> Buffer.add_string buf (Printf.sprintf "{%s=%d}" k v))
          (List.sort compare n.Graph.attrs);
        (match n.Graph.inputs with
        | [] -> ()
        | inputs ->
            Buffer.add_char buf '(';
            List.iteri
              (fun i u ->
                if i > 0 then Buffer.add_char buf ',';
                go u)
              inputs;
            Buffer.add_char buf ')')
  in
  List.iter
    (fun o ->
      go o;
      Buffer.add_char buf ';')
    (Graph.outputs g);
  Hashtbl.hash (Buffer.contents buf)

(* Per-engine totals over the same match workload (the full two-family
   program at every node of every model): total backtracking-matcher node
   visits, matcher invocations, matches found and the sweep's wall time.
   [index] and [plan] match identically (the root-head prefilter, then
   the matcher), so their attempts must be equal; [naive] runs the
   matcher everywhere. *)
type engine_row = {
  er_engine : Pass.engine;
  er_visits : int;
  er_matches : int;
  er_attempts : int;
}

let engine_comparison models =
  Printf.printf
    "\n   engine comparison (match_only, both families, all models):\n";
  Printf.printf "   engine   matcher-visits   attempts   matches      ms\n";
  let rows =
    List.map
      (fun engine ->
        let visits = ref 0
        and attempts = ref 0
        and matches = ref 0
        and ms = ref 0. in
        List.iter
          (fun (m : Zoo.model) ->
            let env, g = m.Zoo.build () in
            let prog = Corpus.both_program env.Std_ops.sg in
            Matcher.reset_cumulative_visits ();
            let stats =
              Pass.match_only_cfg
                ~config:(config_for (Some engine))
                prog g
            in
            visits := !visits + Matcher.cumulative_visits ();
            ms := !ms +. (stats.Pass.wall_time *. 1e3);
            List.iter
              (fun (ps : Pass.pattern_stats) ->
                attempts := !attempts + ps.Pass.attempts;
                matches := !matches + ps.Pass.matches)
              stats.Pass.per_pattern)
          models;
        Printf.printf "   %-8s %14d %10d %9d %7.1f\n" (Pass.engine_name engine)
          !visits !attempts !matches !ms;
        { er_engine = engine; er_visits = !visits; er_matches = !matches;
          er_attempts = !attempts })
      (engines_selected ())
  in
  let attempts_of e =
    List.find_map
      (fun r -> if r.er_engine = e then Some r.er_attempts else None)
      rows
  in
  (match (attempts_of Pass.Index, attempts_of Pass.Plan) with
  | Some ai, Some ap ->
      Printf.printf "   plan vs index attempts: %d vs %d -- %s\n" ap ai
        (if ap = ai then "equal, OK" else "NOT equal -- engines diverge")
  | _ -> ());
  (match rows with
  | r0 :: rest ->
      if not (List.for_all (fun r -> r.er_matches = r0.er_matches) rest) then
        Printf.printf "   WARNING: engines disagree on match counts!\n"
  | [] -> ());
  rows

(* All selected engines must drive the rewrite pass to the same fixpoint:
   same rewrite count, structurally identical final graph. Returns
   whether they did on every model. *)
let engine_agreement models =
  Printf.printf
    "\n   rewrite agreement (full pass to fixpoint, per engine):\n";
  let disagreements = ref 0 in
  List.iter
    (fun (m : Zoo.model) ->
      let results =
        List.map
          (fun engine ->
            let env, g = m.Zoo.build () in
            let stats =
              Pass.run_cfg
                ~config:(config_for (Some engine))
                (Corpus.both_program env.Std_ops.sg)
                g
            in
            (engine, stats.Pass.total_rewrites, graph_hash g))
          (engines_selected ())
      in
      match results with
      | [] | [ _ ] -> ()
      | (_, r0, h0) :: rest ->
          if not (List.for_all (fun (_, r, h) -> r = r0 && h = h0) rest) then (
            incr disagreements;
            Printf.printf "   DISAGREE %-16s %s\n" m.Zoo.mname
              (String.concat "  "
                 (List.map
                    (fun (e, r, h) ->
                      Printf.sprintf "%s: %d rw, graph %08x" (Pass.engine_name e) r
                        h)
                    results))))
    models;
  let n = List.length models in
  if !disagreements = 0 then
    Printf.printf
      "   identical rewrite counts and final graphs across {%s} on all %d \
       models\n"
      (String.concat ", " (List.map Pass.engine_name (engines_selected ())))
      n
  else
    Printf.printf "   DISAGREEMENTS on %d of %d models\n" !disagreements n;
  !disagreements = 0

(* One Chrome trace per figure suite: a full plan-engine rewrite pass over
   the suite's first model, every engine event captured. Loadable in
   chrome://tracing or Perfetto; the file the observability doc points at. *)
let suite_trace ~figure models =
  match models with
  | [] -> ()
  | (m : Zoo.model) :: _ ->
      let path = String.lowercase_ascii figure ^ ".trace.json" in
      let c = Obs.Collector.create () in
      let stats =
        Obs.with_sink (Obs.Collector.sink c) (fun () ->
            let env, g = m.Zoo.build () in
            Pass.run_cfg
              ~config:(config_for (Some Pass.Plan))
              (Corpus.both_program env.Std_ops.sg)
              g)
      in
      Obs.Chrome.write path (Obs.Collector.events c);
      Printf.printf
        "   wrote %s: %d events from a plan-engine pass over %s (%d \
         rewrites, %d provenance steps)\n"
        path (Obs.Collector.length c) m.Zoo.mname stats.Pass.total_rewrites
        (List.length stats.Pass.provenance)

(* The figure's machine-readable summary: whether the selected engines
   agree on every model's fixpoint, and each engine's match_only totals
   over the suite. *)
let write_bench_json ~figure ~suite ~models ~max_pass ~engines_agree rows =
  match json_file_for ~figure with
  | None -> ()
  | Some path ->
      let buf = Buffer.create 1024 in
      Buffer.add_string buf
        (Printf.sprintf
           "{\"figure\":\"%s\",\"suite\":\"%s\",\"quick\":%b,\"models\":%d,\n"
           (String.lowercase_ascii figure)
           suite !quick (List.length models));
      Buffer.add_string buf
        (Printf.sprintf "\"max_full_pass_s\":%.6f,\"engines_agree\":%b,\n"
           max_pass engines_agree);
      Buffer.add_string buf "\"engines\":[";
      List.iteri
        (fun i r ->
          if i > 0 then Buffer.add_string buf ",";
          Buffer.add_string buf
            (Printf.sprintf
               "\n{\"engine\":\"%s\",\"matches\":%d,\"attempts\":%d}"
               (Pass.engine_name r.er_engine) r.er_matches r.er_attempts))
        rows;
      Buffer.add_string buf "]}\n";
      let oc = open_out_bin path in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> Buffer.output_buffer oc buf);
      Printf.printf "   wrote %s\n" path

let compile_cost_figure ~figure ~suite models =
  Printf.printf "== %s: %s pattern-matching compile-time cost ==\n" figure
    suite;
  Printf.printf
    "   model            nodes   MHA matches  MHA ms      Epilog matches  \
     Epilog ms\n";
  let acc_mha_t = ref 0. and acc_epi_t = ref 0. in
  let zero_match_mha_t = ref 0. and zero_match_epi_t = ref 0. in
  let zero_n = ref 0 in
  let max_pass = ref 0. in
  List.iter
    (fun (m : Zoo.model) ->
      let env, g = m.Zoo.build () in
      let nodes = Graph.live_count g in
      let mha_stats =
        Pass.match_only_cfg ~config:(config_for !engine_filter)
          (Corpus.fmha_program env.Std_ops.sg)
          g
      in
      let epi_stats =
        Pass.match_only_cfg ~config:(config_for !engine_filter)
          (Corpus.epilog_program env.Std_ops.sg)
          g
      in
      let mha_m, mha_t = pattern_family_time mha_stats in
      let epi_m, epi_t = pattern_family_time epi_stats in
      (* the paper's "< 3 s" bound is about the full rewrite pass *)
      let _, full = compile_and_time ?engine:!engine_filter m Both in
      max_pass := Float.max !max_pass full.Pass.wall_time;
      acc_mha_t := !acc_mha_t +. mha_t;
      acc_epi_t := !acc_epi_t +. epi_t;
      if mha_m = 0 then (
        incr zero_n;
        zero_match_mha_t := !zero_match_mha_t +. mha_t;
        zero_match_epi_t := !zero_match_epi_t +. epi_t);
      Printf.printf "   %-16s %-7d %-12d %-11.3f %-15d %.3f\n" m.Zoo.mname
        nodes mha_m (mha_t *. 1e3) epi_m (epi_t *. 1e3))
    models;
  Printf.printf
    "\n   total matcher time: MHA %.1f ms, Epilog %.1f ms (ratio %.1fx)\n"
    (!acc_mha_t *. 1e3) (!acc_epi_t *. 1e3)
    (if !acc_mha_t > 0. then !acc_epi_t /. !acc_mha_t else nan);
  if !zero_n > 0 then
    Printf.printf
      "   QUAL1: on the %d models with zero MHA matches, Epilog matching \
       cost\n\
      \          %.1fx the MHA matching cost (paper: ~2 orders of magnitude)\n"
      !zero_n
      (if !zero_match_mha_t > 0. then !zero_match_epi_t /. !zero_match_mha_t
       else nan);
  Printf.printf
    "   QUAL2: max full rewrite-pass time on any model: %.3f s (paper \
     bound: < 3 s)\n"
    !max_pass;
  let rows = engine_comparison models in
  let engines_agree = engine_agreement models in
  write_bench_json ~figure ~suite ~models ~max_pass:!max_pass ~engines_agree
    rows;
  suite_trace ~figure models;
  print_newline ()

let fig12 () =
  compile_cost_figure ~figure:"FIG12" ~suite:"HuggingFace"
    (suite_models (Zoo.hf ()))

let fig13 () =
  compile_cost_figure ~figure:"FIG13" ~suite:"TorchVision"
    (suite_models (Zoo.tv ()))

(* ------------------------------------------------------------------ *)
(* MM (extension): the multimodal models where all three optimization  *)
(* families fire in one graph                                          *)
(* ------------------------------------------------------------------ *)

let mm () =
  Printf.printf
    "== MM (extension): CLIP-style multimodal models, full program ==\n";
  List.iter
    (fun (m : Zoo.model) ->
      let env, g = m.Zoo.build () in
      let base = Exec.graph_cost device g in
      let stats =
        Pass.run_cfg ~config:(config_for !engine_filter)
          (Corpus.full_program env.Std_ops.sg)
          g
      in
      let after = Exec.graph_cost device g in
      Printf.printf
        "   %-12s %3d rewrites: fmha %d, conv-epilog %d, gemm-epilog %d, \
         cublas-xyT %d; speedup %.3fx\n"
        m.Zoo.mname stats.Pass.total_rewrites
        (Graph.count_op g Std_ops.fmha)
        (Graph.count_op g Std_ops.conv_bias_relu)
        (Graph.count_op g Std_ops.gemm_bias_epilog_gelu
        + Graph.count_op g Std_ops.gemm_bias_epilog_relu
        + Graph.count_op g Std_ops.gemm_epilog_gelu
        + Graph.count_op g Std_ops.gemm_epilog_relu)
        (Graph.count_op g Std_ops.cublas_mm_xyt_f32)
        (Exec.speedup ~baseline:base ~optimized:after))
    (suite_models (Zoo.mm ()));
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks (MICRO): matcher internals & ablations    *)
(* ------------------------------------------------------------------ *)

let micro () =
  let open Bechamel in
  let interp : Guard.interp =
    {
      Guard.term_attr =
        (fun a t -> if a = "size" then Some (Term.size t) else None);
      sym_attr = (fun _ _ -> None);
    }
  in
  (* a deep term and matching pattern *)
  let rec deep_term n =
    if n = 0 then Term.const "a" else Term.app "g" [ deep_term (n - 1) ]
  in
  let rec deep_pattern n =
    if n = 0 then Pattern.var "x" else Pattern.app "g" [ deep_pattern (n - 1) ]
  in
  let t64 = deep_term 64 and p64 = deep_pattern 64 in
  (* an alternate pile that forces backtracking: k wrong branches first *)
  let alt_pattern k =
    let wrong = Pattern.app "h" [ Pattern.var "x" ] in
    Pattern.alts (List.init k (fun _ -> wrong) @ [ deep_pattern 8 ])
  in
  let t8 = deep_term 8 in
  (* the recursive unary chain of figure 3 *)
  let chain =
    Pattern.mu "P" ~formals:[ "x"; "F" ] ~actuals:[ "x"; "F" ]
      (Pattern.alt
         (Pattern.fapp "F" [ Pattern.call "P" [ "x"; "F" ] ])
         (Pattern.fapp "F" [ Pattern.var "x" ]))
  in
  (* naive equality ablation: structural equality without the memoized
     hash/size shortcuts *)
  let rec naive_equal (a : Term.t) (b : Term.t) =
    Symbol.equal (Term.head a) (Term.head b)
    && List.length (Term.args a) = List.length (Term.args b)
    && List.for_all2 naive_equal (Term.args a) (Term.args b)
  in
  let t64' = deep_term 64 in
  let run_matcher p t () =
    ignore (Matcher.matches ~interp ~policy:Outcome.Policy.Backtrack p t)
  in
  let run_machine p t () =
    ignore (Machine.run ~interp ~policy:Outcome.Policy.Backtrack p t)
  in
  let tests =
    [
      Test.make ~name:"matcher/deep-64" (Staged.stage (run_matcher p64 t64));
      Test.make ~name:"machine/deep-64" (Staged.stage (run_machine p64 t64));
      Test.make ~name:"matcher/alts-32-backtrack"
        (Staged.stage (run_matcher (alt_pattern 32) t8));
      Test.make ~name:"machine/alts-32-backtrack"
        (Staged.stage (run_machine (alt_pattern 32) t8));
      Test.make ~name:"matcher/mu-chain-64"
        (Staged.stage (run_matcher chain t64));
      Test.make ~name:"machine/mu-chain-64"
        (Staged.stage (run_machine chain t64));
      Test.make ~name:"term-equal/hashed"
        (Staged.stage (fun () -> ignore (Term.equal t64 t64')));
      Test.make ~name:"term-equal/naive"
        (Staged.stage (fun () -> ignore (naive_equal t64 t64')));
    ]
  in
  Printf.printf "== MICRO: matcher micro-benchmarks (bechamel) ==\n%!";
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) () in
  let instance = Toolkit.Instance.monotonic_clock in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      Hashtbl.iter
        (fun name raw ->
          let ols =
            Analyze.ols ~bootstrap:0 ~r_square:false
              ~predictors:[| Measure.run |]
          in
          let est = Analyze.one ols instance raw in
          match Analyze.OLS.estimates est with
          | Some [ ns ] -> Printf.printf "   %-28s %12.1f ns/run\n%!" name ns
          | _ -> Printf.printf "   %-28s (no estimate)\n%!" name)
        results)
    tests;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* ABLATION: design choices called out in DESIGN.md                    *)
(* ------------------------------------------------------------------ *)

let ablation () =
  Printf.printf "== ABLATION: pass and matcher design choices ==\n";
  (* 1. root-head indexing: skip patterns whose root operator cannot match
     the node (the paper's implementation tries every pattern at every
     node). Same rewrites, less matcher work. *)
  Printf.printf "\n-- matching engine (match_only over the full program) --\n";
  List.iter
    (fun name ->
      let m = Option.get (Zoo.find name) in
      let measure engine =
        let env, g = m.Zoo.build () in
        let prog = Corpus.both_program env.Std_ops.sg in
        (* warm, then time best of 3 *)
        let config = config_for (Some engine) in
        ignore (Pass.match_only_cfg ~config prog g);
        let best = ref infinity in
        for _ = 1 to 3 do
          let _, t = time_s (fun () -> Pass.match_only_cfg ~config prog g) in
          best := Float.min !best t
        done;
        let stats = Pass.match_only_cfg ~config prog g in
        let attempts =
          List.fold_left (fun a ps -> a + ps.Pass.attempts) 0 stats.Pass.per_pattern
        in
        (!best, attempts)
      in
      let t_naive, a_naive = measure Pass.Naive in
      let t_idx, a_idx = measure Pass.Index in
      let t_plan, a_plan = measure Pass.Plan in
      Printf.printf
        "   %-14s naive %7.3f ms (%5d att)   index %7.3f ms (%5d att)   plan \
         %7.3f ms (%5d att)  %4.1fx\n"
        name (t_naive *. 1e3) a_naive (t_idx *. 1e3) a_idx (t_plan *. 1e3)
        a_plan (t_naive /. t_plan))
    [ "bert-base"; "gpt2-medium"; "resnet50-ish"; "vgg19-ish" ];
  (* 2. rewrites are identical whichever engine drives the pass *)
  let m = Option.get (Zoo.find "bert-base") in
  let run engine =
    let env, g = m.Zoo.build () in
    let stats = Pass.run_cfg ~config:(config_for (Some engine))
        (Corpus.both_program env.Std_ops.sg)
        g in
    stats.Pass.total_rewrites
  in
  Printf.printf "   rewrites agree: naive %d, indexed %d, plan %d\n"
    (run Pass.Naive) (run Pass.Index) (run Pass.Plan);
  (* 3. machine policy cost: Faithful vs Backtrack on the corpus patterns
     over a model's term views (identical outcomes here, same cost) *)
  Printf.printf "\n-- production matcher vs abstract machine on model terms --\n";
  let env, g = (Option.get (Zoo.find "bert-mini")).Zoo.build () in
  let view = Term_view.create g in
  let interp = Term_view.interp view in
  let prog = Corpus.both_program env.Std_ops.sg in
  let terms = List.map (Term_view.term_of view) (Graph.live_nodes g) in
  let time_impl name run_one =
    let (), t =
      time_s (fun () ->
          List.iter
            (fun (e : Program.entry) ->
              List.iter (fun t -> ignore (run_one e.Program.pattern t)) terms)
            prog.Program.entries)
    in
    Printf.printf "   %-18s %8.3f ms for %d pattern x node attempts\n" name
      (t *. 1e3)
      (List.length terms * List.length prog.Program.entries)
  in
  time_impl "matcher (CPS)" (fun p t ->
      Matcher.matches ~interp ~policy:Outcome.Policy.Backtrack p t);
  time_impl "abstract machine" (fun p t ->
      Machine.run ~interp ~policy:Outcome.Policy.Backtrack p t);
  (* 4. device sensitivity: relative speedups are a property of the graph
     transformation, not of one device profile *)
  Printf.printf "\n-- device sensitivity (speedup under both optimizations) --\n";
  List.iter
    (fun name ->
      let m = Option.get (Zoo.find name) in
      let speedup dev =
        let env, g = m.Zoo.build () in
        let base = Exec.graph_cost dev g in
        ignore (Pass.run_cfg (Corpus.both_program env.Std_ops.sg) g);
        Exec.speedup ~baseline:base ~optimized:(Exec.graph_cost dev g)
      in
      Printf.printf "   %-14s %s %.3fx   %s %.3fx\n" name
        Cost.a6000.Cost.dname (speedup Cost.a6000) Cost.a100.Cost.dname
        (speedup Cost.a100))
    [ "bert-mini"; "gpt2-small"; "resnet18-ish"; "vgg16-ish" ];
  print_newline ()

(* ------------------------------------------------------------------ *)

let () =
  let args =
    match Array.to_list Sys.argv with
    | _ :: rest -> List.filter (fun a -> a <> "--") rest
    | [] -> []
  in
  let engine_names = String.concat "|" (List.map Pass.engine_name Pass.engines) in
  let rec parse acc = function
    | [] -> List.rev acc
    | "--quick" :: rest ->
        quick := true;
        parse acc rest
    | "--engine" :: e :: rest -> (
        match Pass.engine_of_name e with
        | Some _ as engine ->
            engine_filter := engine;
            parse acc rest
        | None ->
            Printf.eprintf "unknown engine %S (%s)\n" e engine_names;
            exit 2)
    | "--engine" :: [] ->
        Printf.eprintf "--engine needs an argument (%s)\n" engine_names;
        exit 2
    | "--json" :: p :: rest ->
        json_path := Some p;
        parse acc rest
    | "--json" :: [] ->
        Printf.eprintf "--json needs a file argument\n";
        exit 2
    | a :: rest -> parse (a :: acc) rest
  in
  let which = parse [] args in
  let all = which = [] || which = [ "all" ] in
  let want name = all || List.mem name which in
  if want "fig10" then fig10 ();
  if want "fig11" then fig11 ();
  if want "fig12" then fig12 ();
  if want "fig13" then fig13 ();
  if want "mm" then mm ();
  if want "micro" then micro ();
  if want "ablation" then ablation ()
