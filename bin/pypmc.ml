(* pypmc: the PyPM command-line driver.

   Mirrors the paper's toolchain shape: the frontend turns pattern source
   into serialized pattern binaries ([compile]); the backend loads binaries
   or source and runs the rewrite pass over models ([optimize]). The other
   commands are developer conveniences: [parse] shows elaborated core
   patterns, [match] runs the matcher on one term, [zoo] lists the
   benchmark models, [partition] reports directed-graph-partitioning
   regions. *)

open Pypm
open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Load a program from a .pypm source file or a .bin pattern binary,
   against (and extending) the std signature. *)
let load_program env path =
  if Filename.check_suffix path ".bin" then
    match Codec.decode_into ~sg:env.Std_ops.sg (read_file path) with
    | Ok p -> Ok p
    | Error e -> Error e
  else
    match Surface.load_file ~sg:env.Std_ops.sg path with
    | Ok p -> Ok p
    | Error e -> Error (Format.asprintf "%a" Surface.pp_error e)

let or_die = function
  | Ok v -> v
  | Error msg ->
      prerr_endline msg;
      exit 1

(* ------------------------------------------------------------------ *)
(* parse                                                               *)
(* ------------------------------------------------------------------ *)

let parse_cmd =
  let run path =
    let env = Std_ops.make () in
    let program = or_die (load_program env path) in
    Format.printf "%a@." Program.pp program;
    match Program.check program with
    | [] -> ()
    | diags ->
        List.iter (Format.printf "%a@." Wf.pp_diagnostic) diags;
        exit 1
  in
  let path =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
           ~doc:"Pattern source (.pypm) or pattern binary (.bin).")
  in
  Cmd.v
    (Cmd.info "parse" ~doc:"Elaborate a pattern file and print its core form")
    Term.(const run $ path)

(* ------------------------------------------------------------------ *)
(* compile                                                             *)
(* ------------------------------------------------------------------ *)

let compile_cmd =
  let run path out =
    let env = Std_ops.make () in
    let program = or_die (load_program env path) in
    Codec.to_file out program;
    Printf.printf "wrote %s (%d pattern(s))\n" out
      (List.length (Program.pattern_names program))
  in
  let path =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
           ~doc:"Pattern source (.pypm).")
  in
  let out =
    Arg.(value & opt string "patterns.bin" & info [ "o"; "output" ]
           ~docv:"OUT" ~doc:"Output pattern binary.")
  in
  Cmd.v
    (Cmd.info "compile"
       ~doc:"Serialize a pattern file to a portable pattern binary")
    Term.(const run $ path $ out)

(* ------------------------------------------------------------------ *)
(* match                                                               *)
(* ------------------------------------------------------------------ *)

(* Ground pattern expressions are terms. *)
let rec term_of_pexp = function
  | Ast.Evar x -> Pypm.Term.const x
  | Ast.Eapp (f, args) -> Pypm.Term.app f (List.map term_of_pexp args)
  | Ast.Ealt _ ->
      prerr_endline "ground terms cannot contain ||";
      exit 1
  | Ast.Elit v -> Pypm.Term.const (Graph.lit_symbol v)

let match_cmd =
  let run path pattern_name term_src trace =
    let env = Std_ops.make () in
    let program = or_die (load_program env path) in
    let entry =
      match Program.entry program pattern_name with
      | Some e -> e
      | None ->
          Printf.eprintf "no pattern named %s (have: %s)\n" pattern_name
            (String.concat ", " (Program.pattern_names program));
          exit 1
    in
    let t =
      try term_of_pexp (Parser.pexp term_src)
      with Parser.Parse_error (pos, msg) ->
        Format.eprintf "term syntax error at %a: %s@." Lexer.pp_pos pos msg;
        exit 1
    in
    let interp = Attrs.structural ~sg:env.Std_ops.sg in
    if trace then (
      let rules, outcome =
        Machine.run_trace ~interp ~policy:Outcome.Policy.Backtrack
          entry.Program.pattern t
      in
      List.iteri
        (fun i r -> Printf.printf "%4d  %s\n" (i + 1) (Machine.rule_name r))
        rules;
      Format.printf "%a@." Outcome.pp outcome)
    else
      match
        Matcher.matches ~interp ~policy:Outcome.Policy.Backtrack
          entry.Program.pattern t
      with
      | Outcome.Matched (theta, phi) ->
          Format.printf "match: theta = %a, phi = %a@." Subst.pp theta
            Fsubst.pp phi
      | o ->
          Format.printf "%a@." Outcome.pp o;
          exit 1
  in
  let path =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
           ~doc:"Pattern source or binary.")
  in
  let pat =
    Arg.(required & opt (some string) None & info [ "p"; "pattern" ]
           ~docv:"NAME" ~doc:"Pattern to match.")
  in
  let term =
    Arg.(required & opt (some string) None & info [ "t"; "term" ]
           ~docv:"TERM" ~doc:"Ground term, e.g. 'MatMul(a, Trans(b))'.")
  in
  let trace =
    Arg.(value & flag & info [ "trace" ]
           ~doc:"Print the abstract machine's transition-rule trace.")
  in
  Cmd.v
    (Cmd.info "match" ~doc:"Match one pattern against one term")
    Term.(const run $ path $ pat $ term $ trace)

(* ------------------------------------------------------------------ *)
(* zoo                                                                 *)
(* ------------------------------------------------------------------ *)

let zoo_cmd =
  let run () =
    List.iter
      (fun (m : Zoo.model) ->
        let _, g = m.Zoo.build () in
        Printf.printf "%-4s %-18s %4d nodes\n"
          (match m.Zoo.family with `HF -> "HF" | `TV -> "TV" | `MM -> "MM")
          m.Zoo.mname (Graph.live_count g))
      (Zoo.all ())
  in
  Cmd.v (Cmd.info "zoo" ~doc:"List the benchmark model zoo") Term.(const run $ const ())

(* ------------------------------------------------------------------ *)
(* optimize                                                            *)
(* ------------------------------------------------------------------ *)

let build_model name =
  match Zoo.find name with
  | Some m -> m.Zoo.build ()
  | None ->
      Printf.eprintf "no model named %s; try `pypmc zoo`\n" name;
      exit 1

(* Shared by optimize and trace: resolve the pattern program. *)
let resolve_program env opt patterns =
  match patterns with
  | Some path -> or_die (load_program env path)
  | None -> (
      match opt with
      | "none" -> Program.make ~sg:env.Std_ops.sg []
      | "fmha" -> Corpus.fmha_program env.Std_ops.sg
      | "epilog" -> Corpus.epilog_program env.Std_ops.sg
      | "both" -> Corpus.both_program env.Std_ops.sg
      | "full" -> Corpus.full_program env.Std_ops.sg
      | other ->
          Printf.eprintf
            "unknown optimization set %s (none|fmha|epilog|both|full)\n" other;
          exit 1)

(* Run [f] while capturing every obs event; write the capture as a Chrome
   trace when [trace] names a file. *)
let with_trace trace f =
  match trace with
  | None -> f ()
  | Some path ->
      let c = Obs.Collector.create () in
      let r = Obs.with_sink (Obs.Collector.sink c) f in
      Obs.Chrome.write path (Obs.Collector.events c);
      Printf.printf
        "wrote %s (%d events) — open in chrome://tracing or \
         https://ui.perfetto.dev\n"
        path (Obs.Collector.length c);
      r

let opt_arg =
  Cmdliner.Arg.(
    value & opt string "both" & info [ "opt" ] ~docv:"SET"
      ~doc:"Optimization set: none, fmha, epilog, both, full.")

let patterns_arg =
  Cmdliner.Arg.(
    value & opt (some file) None & info [ "patterns" ] ~docv:"FILE"
      ~doc:"Use a pattern file/binary instead of a built-in set.")

(* Every engine by its [Pass.engine_name], for [Arg.enum]. *)
let engine_enum f =
  Cmdliner.Arg.enum (List.map (fun e -> (Pass.engine_name e, f e)) Pass.engines)

let engine_arg =
  Cmdliner.Arg.(
    value & opt (engine_enum Fun.id) Pass.Naive & info [ "engine" ] ~docv:"ENGINE"
      ~doc:"Matching engine: $(b,naive) (every pattern at every node), \
            $(b,index) (root-head prefilter), $(b,plan) (the root-head \
            prefilter, re-matching only the region a rewrite changed), or \
            $(b,egraph) (the plan engine plus a cost-guided \
            equality-saturation post-phase that commits only strict cost \
            improvements).")

let fault_points_of_names names =
  List.map
    (fun n ->
      match Resilience.Inject.point_of_name n with
      | Some p -> p
      | None ->
          Printf.eprintf "pypmc: unknown fault point %s (known: %s)\n" n
            (String.concat ", "
               (List.map Resilience.Inject.point_name
                  Resilience.Inject.all_points));
          exit 1)
    names

(* --stats-json: machine-readable pass stats, to a file or stdout. *)
let write_stats_json dest stats =
  match dest with
  | None -> ()
  | Some "-" -> print_endline (Pass.stats_json stats)
  | Some path ->
      let oc = open_out_bin path in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          output_string oc (Pass.stats_json stats);
          output_char oc '\n');
      Printf.printf "wrote %s\n" path

let optimize_cmd =
  let run model opt patterns engine verbose dot debug trace fuel
      deadline fault_seed fault_rate fault_points strict quarantine_after
      stats_json =
    if debug then (
      Logs.set_reporter (Logs.format_reporter ());
      Logs.Src.set_level Pass.log_src (Some Logs.Debug));
    let env, g = build_model model in
    let program = resolve_program env opt patterns in
    let before = Exec.graph_cost Cost.a6000 g in
    let nodes_before = Graph.live_count g in
    let inject =
      match fault_seed with
      | None -> Resilience.Inject.none
      | Some seed ->
          let points =
            match fault_points with
            | [] -> Resilience.Inject.all_points
            | names -> fault_points_of_names names
          in
          Resilience.Inject.seeded ~points ~seed ~rate:fault_rate ()
    in
    let d = Pass.Config.default in
    let config =
      {
        d with
        Pass.Config.engine = Some engine;
        fuel = Option.value fuel ~default:d.Pass.Config.fuel;
        deadline_s = deadline;
        quarantine_after =
          Option.value quarantine_after ~default:d.Pass.Config.quarantine_after;
        inject;
      }
    in
    let stats =
      with_trace trace (fun () ->
          if strict then
            match Pass.run_result_cfg ~config program g with
            | Ok stats -> stats
            | Error (e, stats) ->
                Format.printf "%a@." Pass.pp_stats stats;
                write_stats_json stats_json stats;
                Printf.eprintf "pypmc: fatal pass error: %s\n"
                  (Pass.error_message e);
                exit 1
          else Pass.run_cfg ~config program g)
    in
    write_stats_json stats_json stats;
    (* [Engine_unavailable] is fatal under either policy: there was no
       engine to run the pass with. *)
    (match stats.Pass.fatal with
    | Some e ->
        Printf.eprintf "pypmc: fatal pass error: %s\n" (Pass.error_message e);
        exit 1
    | None -> ());
    (match Graph.validate g with
    | [] -> ()
    | errs ->
        List.iter prerr_endline errs;
        exit 1);
    let after = Exec.graph_cost Cost.a6000 g in
    Format.printf "%a@." Pass.pp_stats stats;
    Printf.printf
      "nodes: %d -> %d\nsimulated inference: %.4f ms -> %.4f ms (speedup %.3fx)\n"
      nodes_before (Graph.live_count g) (before *. 1e3) (after *. 1e3)
      (Exec.speedup ~baseline:before ~optimized:after);
    if verbose then Format.printf "%a@." Graph.pp g;
    match dot with
    | Some path ->
        Dot.write path g;
        Printf.printf "wrote %s\n" path
    | None -> ()
  in
  let model =
    Arg.(required & opt (some string) None & info [ "m"; "model" ]
           ~docv:"NAME" ~doc:"Zoo model to optimize.")
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Dump the final graph.")
  in
  let dot =
    Arg.(value & opt (some string) None & info [ "dot" ] ~docv:"FILE"
           ~doc:"Write the optimized graph as Graphviz DOT.")
  in
  let debug =
    Arg.(value & flag & info [ "debug" ] ~doc:"Log each rule firing.")
  in
  let trace =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
           ~doc:"Capture every engine event and write a Chrome trace-event \
                 JSON file, loadable in chrome://tracing or Perfetto.")
  in
  let fuel =
    Arg.(value & opt (some int) None & info [ "fuel" ] ~docv:"N"
           ~doc:"Per-match fuel bound (matcher node visits).")
  in
  let deadline =
    Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"SECONDS"
           ~doc:"Wall-clock budget for the pass; on expiry it stops where \
                 it is and reports partial stats (deadline hit).")
  in
  let fault_seed =
    Arg.(value & opt (some int) None & info [ "fault-seed" ] ~docv:"SEED"
           ~doc:"Enable deterministic fault injection with this seed (for \
                 exercising and replaying failure handling).")
  in
  let fault_rate =
    Arg.(value & opt float 0.25 & info [ "fault-rate" ] ~docv:"RATE"
           ~doc:"Probability each armed fault point fires (with \
                 $(b,--fault-seed)).")
  in
  let fault_points =
    Arg.(value & opt (list string) [] & info [ "fault-points" ] ~docv:"POINTS"
           ~doc:"Comma-separated fault points to arm (default: all): \
                 instantiate-fail, guard-raise, fuel-cut, replace-cycle, \
                 plan-compile.")
  in
  let strict =
    Arg.(value & flag & info [ "strict" ]
           ~doc:"Stop at the first rule error instead of quarantining the \
                 pattern; exit nonzero with a structured message.")
  in
  let quarantine_after =
    Arg.(value & opt (some int) None & info [ "quarantine-after" ] ~docv:"N"
           ~doc:"Strikes (fuel exhaustions, rule errors, cycle rejections) \
                 before a pattern is quarantined for the rest of the pass \
                 (default 5).")
  in
  let stats_json =
    Arg.(value & opt (some string) None & info [ "stats-json" ] ~docv:"FILE"
           ~doc:"Write the pass statistics as JSON to $(docv) ($(b,-) for \
                 stdout): engine, counters, timings, per-pattern breakdown, \
                 structured errors.")
  in
  Cmd.v
    (Cmd.info "optimize" ~doc:"Run the rewrite pass over a zoo model")
    Term.(const run $ model $ opt_arg $ patterns_arg $ engine_arg
          $ verbose $ dot $ debug $ trace $ fuel $ deadline
          $ fault_seed $ fault_rate $ fault_points $ strict
          $ quarantine_after $ stats_json)

(* ------------------------------------------------------------------ *)
(* lint                                                                *)
(* ------------------------------------------------------------------ *)

let lint_cmd =
  let run opt patterns file json no_overlaps =
    let env = Std_ops.make () in
    let patterns = match file with Some _ -> file | None -> patterns in
    let program = resolve_program env opt patterns in
    (* Well-formedness first: analysis assumes a wf program. *)
    (match Wf.errors (Program.check program) with
    | [] -> ()
    | errs ->
        List.iter (Format.eprintf "%a@." Wf.pp_diagnostic) errs;
        exit 1);
    let diags = Analysis.lint ~overlaps:(not no_overlaps) program in
    if json then print_endline (Analysis.to_json diags)
    else if diags = [] then
      Printf.printf "%d patterns, no findings\n"
        (List.length (Program.pattern_names program))
    else List.iter (Format.printf "%a@." Analysis.pp_diagnostic) diags;
    if Analysis.errors diags <> [] then exit 1
  in
  let json =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Emit the findings as a JSON array instead of text.")
  in
  let no_overlaps =
    Arg.(value & flag & info [ "no-overlaps" ]
           ~doc:"Skip the pairwise overlap-witness search (the only \
                 quadratic check); dead patterns, shadowed alternates, \
                 subsumption and guard satisfiability still run.")
  in
  let file =
    Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE"
           ~doc:"Pattern source (.pypm) or pattern binary (.bin) to lint; \
                 shorthand for $(b,--patterns).")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Statically analyze a pattern library: dead patterns, \
             shadowed alternates, subsumed and overlapping patterns, \
             unsatisfiable guards. Exits nonzero on error-severity \
             findings.")
    Term.(const run $ opt_arg $ patterns_arg $ file $ json $ no_overlaps)

(* ------------------------------------------------------------------ *)
(* trace                                                               *)
(* ------------------------------------------------------------------ *)

let trace_cmd =
  let run model opt patterns engine out events limit =
    let env, g = build_model model in
    let program = resolve_program env opt patterns in
    let config =
      { Pass.Config.default with Pass.Config.engine = Some engine }
    in
    let stats = with_trace out (fun () -> Pass.run_cfg ~config program g) in
    let prov = Pass.provenance stats in
    Printf.printf "rewrite narrative for %s (%s engine, %d step(s)):\n" model
      (Pass.engine_name engine) (List.length prov);
    let shown =
      match limit with
      | Some l when List.length prov > l ->
          let rec take n = function
            | x :: xs when n > 0 -> x :: take (n - 1) xs
            | _ -> []
          in
          take l prov
      | _ -> prov
    in
    List.iter
      (fun s -> Format.printf "%a@." Obs.Provenance.pp_step s)
      shown;
    (match limit with
    | Some l when List.length prov > l ->
        Printf.printf "... (%d more; raise --limit)\n" (List.length prov - l)
    | _ -> ());
    if stats.Pass.fuel_exhausted > 0 then
      Printf.printf
        "WARNING: %d match attempt(s) ran out of fuel — the narrative may \
         be missing rewrites\n"
        stats.Pass.fuel_exhausted;
    if events then (
      Printf.printf "\nmost recent engine events (ring buffer):\n";
      List.iter
        (fun e -> Format.printf "  %a@." Obs.pp_event e)
        (Obs.recent ~limit:40 ()))
  in
  let model =
    Arg.(required & opt (some string) None & info [ "m"; "model" ]
           ~docv:"NAME" ~doc:"Zoo model to optimize and narrate.")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "o"; "trace" ] ~docv:"FILE"
           ~doc:"Also write the full event capture as Chrome trace JSON.")
  in
  let events =
    Arg.(value & flag & info [ "events" ]
           ~doc:"Also dump the tail of the always-on event ring buffer.")
  in
  let limit =
    Arg.(value & opt (some int) None & info [ "limit" ] ~docv:"N"
           ~doc:"Show at most N narrative steps.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run the rewrite pass and replay its provenance log as a \
          human-readable narrative of every rule firing")
    Term.(const run $ model $ opt_arg $ patterns_arg $ engine_arg $ out
          $ events $ limit)

(* ------------------------------------------------------------------ *)
(* query                                                               *)
(* ------------------------------------------------------------------ *)

let query_cmd =
  let run model path pattern_name =
    let env, g = build_model model in
    let program = or_die (load_program env path) in
    let entry =
      match Program.entry program pattern_name with
      | Some e -> e
      | None ->
          Printf.eprintf "no pattern named %s (have: %s)\n" pattern_name
            (String.concat ", " (Program.pattern_names program));
          exit 1
    in
    let hits = Query.solve_rec_all g entry.Program.pattern in
    Printf.printf "%d satisfying root(s) over %d node(s)\n" (List.length hits)
      (Graph.live_count g);
    List.iter
      (fun ((n : Graph.node), env) ->
        Format.printf "  %%%d (%s): %a@." n.Graph.id n.Graph.op Query.pp_env
          env)
      hits
  in
  let model =
    Arg.(required & opt (some string) None & info [ "m"; "model" ]
           ~docv:"NAME" ~doc:"Zoo model whose graph is the database.")
  in
  let path =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
           ~doc:"Pattern source or binary.")
  in
  let pat =
    Arg.(required & opt (some string) None & info [ "p"; "pattern" ]
           ~docv:"NAME" ~doc:"Pattern to evaluate as a query.")
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:
         "Evaluate a pattern as a database query over a model graph \
          (recursive patterns via Datalog-style fixpoints)")
    Term.(const run $ model $ path $ pat)

(* ------------------------------------------------------------------ *)
(* simplify                                                            *)
(* ------------------------------------------------------------------ *)

let simplify_cmd =
  let run path term_src =
    let env = Std_ops.make () in
    let program = or_die (load_program env path) in
    let t =
      try term_of_pexp (Parser.pexp term_src)
      with Parser.Parse_error (pos, msg) ->
        Format.eprintf "term syntax error at %a: %s@." Lexer.pp_pos pos msg;
        exit 1
    in
    let interp = Attrs.structural ~sg:env.Std_ops.sg in
    Format.printf "input:     %a  (size %d)@." Pypm.Term.pp t (Pypm.Term.size t);
    let inner, s1 = Term_rewrite.normalize ~interp program t in
    Format.printf "innermost: %a  (%d step(s)%s)@." Pypm.Term.pp inner
      s1.Term_rewrite.steps
      (if s1.Term_rewrite.normal_form then "" else ", budget hit");
    let outer, s2 =
      Term_rewrite.normalize ~interp ~strategy:Term_rewrite.Outermost program t
    in
    Format.printf "outermost: %a  (%d step(s)%s)@." Pypm.Term.pp outer
      s2.Term_rewrite.steps
      (if s2.Term_rewrite.normal_form then "" else ", budget hit");
    (* [~guards:false]: [simplify] works on bare ground terms, with no
       graph witnesses to evaluate guards against — guarded rules are
       skipped rather than failing closed on every match. *)
    let conv = Eqsat.rules_of_program ~guards:false program in
    let rules = conv.Eqsat.crules in
    if rules = [] then
      print_endline
        "saturation: skipped (no rule is expressible as a simple rewrite)"
    else begin
      let best, stats = Saturate.simplify ~rules t in
      Format.printf "saturation: %a  (%a; %d of %d rule(s) usable)@."
        Pypm.Term.pp best Saturate.pp_stats stats (List.length rules)
        (List.length rules + List.length conv.Eqsat.cskipped)
    end
  in
  let path =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
           ~doc:"Pattern source or binary providing the rewrite rules.")
  in
  let term =
    Arg.(required & opt (some string) None & info [ "t"; "term" ]
           ~docv:"TERM" ~doc:"Ground term to simplify.")
  in
  Cmd.v
    (Cmd.info "simplify"
       ~doc:
         "Normalize a term with greedy rewriting (both strategies) and with \
          equality saturation")
    Term.(const run $ path $ term)

(* ------------------------------------------------------------------ *)
(* partition                                                           *)
(* ------------------------------------------------------------------ *)

let partition_cmd =
  let run model fuse =
    let env, g = build_model model in
    let program = Corpus.partition_program env.Std_ops.sg in
    let regions = Partition.find program g in
    Printf.printf "%d region(s)\n" (List.length regions);
    List.iter (fun r -> Format.printf "  %a@." Partition.pp_region r) regions;
    if fuse then (
      let before = Exec.graph_cost Cost.a6000 g in
      let fused =
        Partition.fuse_all ~annotate:(fun interior -> Cost.fused_attrs g interior)
          program g
      in
      let after = Exec.graph_cost Cost.a6000 g in
      Printf.printf "fused %d region(s): %.4f ms -> %.4f ms (speedup %.3fx)\n"
        (List.length fused) (before *. 1e3) (after *. 1e3)
        (Exec.speedup ~baseline:before ~optimized:after))
  in
  let model =
    Arg.(required & opt (some string) None & info [ "m"; "model" ]
           ~docv:"NAME" ~doc:"Zoo model to partition.")
  in
  let fuse =
    Arg.(value & flag & info [ "fuse" ]
           ~doc:"Fuse the regions (simulated JIT compilation) and report cost.")
  in
  Cmd.v
    (Cmd.info "partition"
       ~doc:"Directed graph partitioning (paper, section 4.2)")
    Term.(const run $ model $ fuse)

(* ------------------------------------------------------------------ *)
(* fuzz                                                                *)
(* ------------------------------------------------------------------ *)

let fuzz_cmd =
  let run seed budget props list =
    if list then
      List.iter print_endline Fuzz.all_prop_names
    else
      let report =
        try Fuzz.run ~props ~seed ~budget ()
        with Invalid_argument msg ->
          prerr_endline msg;
          exit 2
      in
      Format.printf "%a" Fuzz.pp_report report;
      if not (Fuzz.ok report) then exit 1
  in
  let seed =
    Arg.(value & opt int 0 & info [ "seed" ] ~docv:"N"
           ~doc:"Master seed. A failure report prints the exact seed that \
                 replays the failing case.")
  in
  let budget =
    Arg.(value & opt int 10_000 & info [ "budget" ] ~docv:"M"
           ~doc:"Case budget, spread across the selected properties \
                 (expensive properties receive proportionally fewer cases).")
  in
  let props =
    Arg.(value & opt_all string [] & info [ "prop" ] ~docv:"NAME"
           ~doc:"Run only this property (repeatable). Default: all.")
  in
  let list =
    Arg.(value & flag & info [ "list" ] ~doc:"List property names and exit.")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential fuzzing: cross-check the abstract machine, the \
          backtracking matcher, the enumeration oracle and all four pass \
          engines on random inputs; round-trip the \
          codec and the surface syntax; stress the frontend with hostile \
          sources")
    Term.(const run $ seed $ budget $ props $ list)

(* ------------------------------------------------------------------ *)
(* serve / load                                                        *)
(* ------------------------------------------------------------------ *)

let socket_arg =
  Cmdliner.Arg.(
    value & opt string "/tmp/pypmc.sock"
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")

let serve_cmd =
  let run socket workers queue_bound cache_mb job_deadline drain_timeout
      restart_budget max_frame_mb debug =
    if debug then (
      Logs.set_reporter (Logs.format_reporter ());
      Logs.Src.set_level Server.log_src (Some Logs.Debug));
    let cfg =
      {
        Server.socket_path = socket;
        workers;
        queue_bound;
        cache_bytes = cache_mb * 1024 * 1024;
        max_frame_bytes = max_frame_mb * 1024 * 1024;
        job_deadline_s =
          (if job_deadline <= 0. then None else Some job_deadline);
        drain_timeout_s = drain_timeout;
        restart_budget;
      }
    in
    Printf.printf
      "pypmc serve: %s — %d worker(s), queue bound %d, %d MiB cache\n%!"
      socket workers queue_bound cache_mb;
    (* [signals]: SIGTERM/SIGINT drain gracefully; a second signal exits *)
    match Server.run ~signals:true cfg with
    | Ok () -> ()
    | Error msg ->
        Printf.eprintf "pypmc serve: %s\n" msg;
        exit 1
  in
  let workers =
    Arg.(value & opt int 4 & info [ "workers" ] ~docv:"N"
           ~doc:"Worker domains; each prepares its own engine once per \
                 program and reuses it for every request.")
  in
  let queue_bound =
    Arg.(value & opt int 64 & info [ "queue-bound" ] ~docv:"N"
           ~doc:"Jobs queued before admission control answers \
                 $(b,Overloaded) instead of queueing more work.")
  in
  let cache_mb =
    Arg.(value & opt int 64 & info [ "cache-mb" ] ~docv:"MB"
           ~doc:"Result-cache byte bound, in MiB.")
  in
  let job_deadline =
    Arg.(value & opt float 300. & info [ "job-deadline" ] ~docv:"SECONDS"
           ~doc:"Admission-to-completion budget per request; the watchdog \
                 answers $(b,Deadline_exceeded) past it. 0 disables.")
  in
  let drain_timeout =
    Arg.(value & opt float 5. & info [ "drain-timeout" ] ~docv:"SECONDS"
           ~doc:"How long a graceful drain (SIGTERM/SIGINT) waits for \
                 in-flight requests before answering them \
                 $(b,Deadline_exceeded) and exiting.")
  in
  let restart_budget =
    Arg.(value & opt int 10_000 & info [ "restart-budget" ] ~docv:"N"
           ~doc:"Lifetime worker restarts the supervisor will perform \
                 before letting crashed workers stay down.")
  in
  let max_frame_mb =
    Arg.(value & opt int 64 & info [ "max-frame-mb" ] ~docv:"MB"
           ~doc:"Largest request frame accepted, in MiB; bigger length \
                 prefixes are rejected before allocation.")
  in
  let debug =
    Arg.(value & flag & info [ "debug" ] ~doc:"Log connection lifecycle.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the resident optimization service: a Unix-socket server with \
          a supervised domain worker pool, per-job deadline watchdog, \
          graceful drain and a content-addressed result cache")
    Term.(const run $ socket_arg $ workers $ queue_bound $ cache_mb
          $ job_deadline $ drain_timeout $ restart_budget $ max_frame_mb
          $ debug)

let load_cmd =
  let run socket clients requests seed opt engine variants fault_seed
      fault_rate fault_points timeout min_hits =
    (match fault_points with
    | [] -> ()
    | names -> ignore (fault_points_of_names names));
    let options =
      {
        Protocol.default_options with
        Protocol.engine;
        fault_seed = Option.value fault_seed ~default:0;
        fault_rate = (if fault_seed = None then 0. else fault_rate);
        fault_points;
      }
    in
    let r =
      try
        Load.run ~socket ~clients ~requests ~seed ~program:opt ~variants
          ~options ~request_timeout_s:timeout ()
      with Unix.Unix_error (e, fn, _) ->
        Printf.eprintf "pypmc load: %s: %s (is the server running?)\n" fn
          (Unix.error_message e);
        exit 1
    in
    Format.printf "%a@." Load.pp r;
    if r.Load.protocol_errors > 0 then (
      Printf.eprintf "pypmc load: %d protocol error(s)\n" r.Load.protocol_errors;
      exit 1);
    if r.Load.cached < min_hits then (
      Printf.eprintf "pypmc load: %d cache hit(s), expected at least %d\n"
        r.Load.cached min_hits;
      exit 1)
  in
  let clients =
    Arg.(value & opt int 4 & info [ "clients" ] ~docv:"N"
           ~doc:"Client domains, each with its own connection.")
  in
  let requests =
    Arg.(value & opt int 100 & info [ "requests" ] ~docv:"M"
           ~doc:"Total requests, split across the clients.")
  in
  let seed =
    Arg.(value & opt int 0 & info [ "seed" ] ~docv:"S"
           ~doc:"Workload seed; the request mix is deterministic in it.")
  in
  let engine =
    Arg.(value & opt (engine_enum Pass.engine_name) "plan"
         & info [ "engine" ] ~docv:"ENGINE" ~doc:"Matching engine to request.")
  in
  let variants =
    Arg.(value & opt int 4 & info [ "variants" ] ~docv:"K"
           ~doc:"Distinct graphs per client — the cache-miss pressure knob: \
                 low values measure the cache, high values the workers.")
  in
  let fault_seed =
    Arg.(value & opt (some int) None & info [ "fault-seed" ] ~docv:"SEED"
           ~doc:"Ask the server to inject deterministic faults into each \
                 request's pass (resilience drill).")
  in
  let fault_rate =
    Arg.(value & opt float 0.25 & info [ "fault-rate" ] ~docv:"RATE"
           ~doc:"Fault-point fire probability (with $(b,--fault-seed)).")
  in
  let fault_points =
    Arg.(value & opt (list string) [] & info [ "fault-points" ] ~docv:"POINTS"
           ~doc:"Comma-separated fault points to arm (default: all).")
  in
  let timeout =
    Arg.(value & opt float 30. & info [ "timeout" ] ~docv:"SECONDS"
           ~doc:"Per-request send-to-answer timeout; past it the connection \
                 is abandoned and the request retried on a fresh one.")
  in
  let min_hits =
    Arg.(value & opt int 0 & info [ "min-hits" ] ~docv:"N"
           ~doc:"Exit nonzero unless at least $(docv) responses were served \
                 from the cache (CI smoke assertion).")
  in
  Cmd.v
    (Cmd.info "load"
       ~doc:
         "Drive a running server with concurrent clients and report \
          throughput, latency percentiles and cache hit rate")
    Term.(const run $ socket_arg $ clients $ requests $ seed $ opt_arg
          $ engine $ variants $ fault_seed $ fault_rate
          $ fault_points $ timeout $ min_hits)

(* ------------------------------------------------------------------ *)
(* chaos                                                               *)
(* ------------------------------------------------------------------ *)

let chaos_cmd =
  let run socket schedules seed rate =
    let r =
      try Chaos.run ~schedules ~seed ~rate ~socket ()
      with Unix.Unix_error (e, fn, _) ->
        Printf.eprintf "pypmc chaos: %s: %s (is the server running?)\n" fn
          (Unix.error_message e);
        exit 1
    in
    Format.printf "%a@." Chaos.pp r;
    if r.Chaos.violations <> [] then exit 1
  in
  let schedules =
    Arg.(value & opt int 100 & info [ "schedules" ] ~docv:"N"
           ~doc:"Seeded fault schedules to run; each is one connection's \
                 worth of requests with wire faults applied.")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"S"
           ~doc:"Master seed; every fault choice and position derives from \
                 it, so a failing run replays exactly.")
  in
  let rate =
    Arg.(value & opt float 0.25 & info [ "rate" ] ~docv:"RATE"
           ~doc:"Per-point wire-fault fire probability per frame.")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Hammer a running server with seeded wire-level faults — torn, \
          corrupt, stalled and disconnected frames, poison-pill crash \
          drills, pipelined bursts — and verify it never crashes, never \
          interleaves frames, and answers deterministically")
    Term.(const run $ socket_arg $ schedules $ seed $ rate)

(* ------------------------------------------------------------------ *)

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval
       (Cmd.group ~default
          (Cmd.info "pypmc" ~version:"1.0.0"
             ~doc:"PyPM pattern compiler and graph optimizer")
          [ parse_cmd; compile_cmd; match_cmd; zoo_cmd; lint_cmd; optimize_cmd; trace_cmd; simplify_cmd; query_cmd; partition_cmd; fuzz_cmd; serve_cmd; load_cmd; chaos_cmd ]))
