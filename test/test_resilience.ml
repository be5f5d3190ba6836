(* Tests for the resilience layer: graph transactions and rollback, the
   instantiate-leak regression, per-pattern quarantine, the engine
   degradation ladder, wall-clock deadlines, deterministic fault
   injection (including a 500-schedule sweep across all three engines),
   the result-based Ematch/Saturate APIs, and the CLI's structured
   fatal-error exit. *)

open Pypm
module P = Pattern
module Inject = Resilience.Inject
module Breaker = Resilience.Breaker

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)
let f32 shape = Ty.make Dtype.F32 shape

let fresh () =
  let e = Std_ops.make () in
  (e, Graph.create ~sg:e.Std_ops.sg ~infer:e.Std_ops.infer ())

(* A graph the relu-chain rule rewrites: a tower of [n] relus. *)
let relu_tower g ~n x =
  let rec go n acc = if n = 0 then acc else go (n - 1) (Graph.add g Std_ops.relu [ acc ]) in
  go n x

let chain_program env = Program.make ~sg:env.Std_ops.sg [ Corpus.relu_chain ]

let chain_graph ?(n = 5) () =
  let env, g = fresh () in
  let x = Graph.input g ~name:"x" (f32 [ 8 ]) in
  Graph.set_outputs g [ relu_tower g ~n x ];
  (env, g)

(* ------------------------------------------------------------------ *)
(* Graph transactions                                                  *)
(* ------------------------------------------------------------------ *)

let test_txn_rollback_restores () =
  let _env, g = fresh () in
  let x = Graph.input g ~name:"x" (f32 [ 4 ]) in
  let r = Graph.add g Std_ops.relu [ x ] in
  Graph.set_outputs g [ r ];
  let before = List.length (Graph.nodes g) in
  let sp = Graph.Txn.begin_ g in
  let a = Graph.add g Std_ops.relu [ r ] in
  let _b = Graph.add g Std_ops.add [ a; r ] in
  Graph.set_outputs g [ _b ];
  let undone = Graph.Txn.rollback g sp in
  checkb "some mutations undone" true (undone > 0);
  checki "node count restored" before (List.length (Graph.nodes g));
  checki "outputs restored" r.Graph.id
    (List.hd (Graph.outputs g)).Graph.id;
  Alcotest.(check (list string)) "graph valid after rollback" []
    (Graph.validate g)

let test_txn_commit_keeps () =
  let _env, g = fresh () in
  let x = Graph.input g ~name:"x" (f32 [ 4 ]) in
  Graph.set_outputs g [ Graph.add g Std_ops.relu [ x ] ];
  let before = List.length (Graph.nodes g) in
  let sp = Graph.Txn.begin_ g in
  let r2 = Graph.add g Std_ops.relu [ List.hd (Graph.outputs g) ] in
  Graph.set_outputs g [ r2 ];
  Graph.Txn.commit g sp;
  checki "committed nodes stay" (before + 1) (List.length (Graph.nodes g));
  checkb "journal drained outside transactions" true
    (not (Graph.Txn.active g))

let test_txn_nesting_lifo () =
  let _env, g = fresh () in
  let x = Graph.input g ~name:"x" (f32 [ 4 ]) in
  Graph.set_outputs g [ x ];
  let outer = Graph.Txn.begin_ g in
  let a = Graph.add g Std_ops.relu [ x ] in
  let inner = Graph.Txn.begin_ g in
  let _b = Graph.add g Std_ops.relu [ a ] in
  ignore (Graph.Txn.rollback g inner);
  (* the inner rollback removed only b *)
  checkb "outer work survives inner rollback" true
    (List.exists (fun (n : Graph.node) -> n.Graph.id = a.Graph.id)
       (Graph.nodes g));
  ignore (Graph.Txn.rollback g outer);
  checkb "outer rollback removes the rest" true
    (not
       (List.exists (fun (n : Graph.node) -> n.Graph.id = a.Graph.id)
          (Graph.nodes g)))

let test_ids_not_reused_after_rollback () =
  (* rolled-back allocations must not recycle ids: provenance and obs
     events recorded before the rollback reference them *)
  let _env, g = fresh () in
  let x = Graph.input g ~name:"x" (f32 [ 4 ]) in
  Graph.set_outputs g [ x ];
  let sp = Graph.Txn.begin_ g in
  let a = Graph.add g Std_ops.relu [ x ] in
  ignore (Graph.Txn.rollback g sp);
  let b = Graph.add g Std_ops.relu [ x ] in
  checkb "fresh node gets a fresh id" true (b.Graph.id > a.Graph.id)

let test_gc_refused_inside_txn () =
  let _env, g = fresh () in
  let x = Graph.input g ~name:"x" (f32 [ 4 ]) in
  Graph.set_outputs g [ x ];
  let sp = Graph.Txn.begin_ g in
  (match Graph.gc g with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "gc inside an open transaction must be refused");
  Graph.Txn.commit g sp

(* ------------------------------------------------------------------ *)
(* The instantiate-leak regression                                     *)
(* ------------------------------------------------------------------ *)

let test_failing_instantiate_leaks_nothing () =
  let _env, g = fresh () in
  let x = Graph.input g ~name:"x" (f32 [ 4 ]) in
  let r = Graph.add g Std_ops.relu [ x ] in
  Graph.set_outputs g [ r ];
  let view = Term_view.create g in
  let theta = Subst.of_list [ ("x", Term_view.term_of view r) ] in
  (* the first template argument materializes a node, then the second hits
     the unbound variable: pre-journal, that relu leaked until gc *)
  let rhs =
    Rule.Rapp
      (Std_ops.add, [ Rule.Rapp (Std_ops.relu, [ Rule.Rvar "x" ]); Rule.Rvar "nope" ])
  in
  let before = List.length (Graph.nodes g) in
  (match Rule.instantiate g view theta Fsubst.empty rhs with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unbound template variable accepted");
  checki "no node leaked by the failed instantiate" before
    (List.length (Graph.nodes g));
  Alcotest.(check (list string)) "graph valid" [] (Graph.validate g)

(* ------------------------------------------------------------------ *)
(* Circuit breaker                                                     *)
(* ------------------------------------------------------------------ *)

let test_breaker_trips_once () =
  let b = Breaker.create ~threshold:3 in
  checkb "no trip on 1" false (Breaker.strike b);
  checkb "no trip on 2" false (Breaker.strike b);
  checkb "trips exactly on 3" true (Breaker.strike b);
  checkb "tripped" true (Breaker.tripped b);
  checkb "silent after the trip" false (Breaker.strike b);
  checki "strikes frozen" 3 (Breaker.strikes b);
  Breaker.reset b;
  checkb "re-armed" false (Breaker.tripped b);
  match Breaker.create ~threshold:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "threshold 0 accepted"

(* ------------------------------------------------------------------ *)
(* Fault-injection schedules                                           *)
(* ------------------------------------------------------------------ *)

let test_inject_deterministic () =
  let drive () =
    let s = Inject.seeded ~seed:42 ~rate:0.5 () in
    List.init 200 (fun i ->
        Inject.fires s (List.nth Inject.all_points (i mod 5)))
  in
  checkb "same seed, same decisions" true (drive () = drive ());
  let s = Inject.seeded ~seed:43 ~rate:0.5 () in
  let other = List.init 200 (fun i ->
      Inject.fires s (List.nth Inject.all_points (i mod 5)))
  in
  checkb "different seed, different decisions" true (other <> drive ())

let test_inject_rate_and_caps () =
  let s = Inject.seeded ~seed:1 ~rate:0.0 () in
  for _ = 1 to 100 do
    checkb "rate 0 never fires" false (Inject.fires s Inject.Fuel_cut)
  done;
  let s = Inject.seeded ~seed:1 ~rate:1.0 ~max_fires:3 () in
  let fired =
    List.length
      (List.filter Fun.id
         (List.init 100 (fun _ -> Inject.fires s Inject.Guard_raise)))
  in
  checki "max_fires caps the faults" 3 fired;
  checki "fired counter" 3 (Inject.fired s);
  checki "queried counter" 100 (Inject.queried s);
  let s = Inject.seeded ~seed:1 ~rate:1.0 ~points:[ Inject.Fuel_cut ] () in
  checkb "unarmed point never fires" false (Inject.fires s Inject.Guard_raise);
  checkb "armed point fires" true (Inject.fires s Inject.Fuel_cut);
  match Inject.seeded ~seed:1 ~rate:1.5 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "rate out of range accepted"

let test_point_names_roundtrip () =
  List.iter
    (fun p ->
      match Inject.point_of_name (Inject.point_name p) with
      | Some p' -> checkb (Inject.point_name p) true (p = p')
      | None -> Alcotest.failf "name %s does not resolve" (Inject.point_name p))
    Inject.all_points;
  checkb "unknown name" true (Inject.point_of_name "frobnicate" = None)

(* ------------------------------------------------------------------ *)
(* Pass-level resilience                                               *)
(* ------------------------------------------------------------------ *)

(* Baseline sanity: without faults the chain program rewrites the tower. *)
let test_clean_run_rewrites () =
  let env, g = chain_graph () in
  let stats = Pass.run_cfg (chain_program env) g in
  checkb "rewrites fired" true (stats.Pass.total_rewrites > 0);
  checks "engine recorded" "naive" stats.Pass.engine_used;
  checkb "no errors" true (stats.Pass.errors = [] && stats.Pass.fatal = None)

let test_rollback_preserves_fingerprint () =
  let env, g = chain_graph () in
  let before = Fuzz.fingerprint g in
  let inject =
    Inject.seeded ~seed:11 ~rate:1.0 ~points:[ Inject.Instantiate_fail ] ()
  in
  let stats =
    Pass.run_cfg
      ~config:{ Pass.Config.default with Pass.Config.inject = inject }
      (chain_program env)
      g
  in
  checki "no rewrites" 0 stats.Pass.total_rewrites;
  checkb "attempts were rolled back" true (stats.Pass.rolled_back > 0);
  checks "fingerprint unchanged" before (Fuzz.fingerprint g);
  Alcotest.(check (list string)) "graph valid" [] (Graph.validate g)

let test_cycle_rejection_counted_and_rolled_back () =
  let env, g = chain_graph () in
  let before = Fuzz.fingerprint g in
  let inject =
    Inject.seeded ~seed:5 ~rate:1.0 ~points:[ Inject.Replace_cycle ] ()
  in
  let stats =
    Pass.run_cfg
      ~config:{ Pass.Config.default with Pass.Config.inject = inject }
      (chain_program env)
      g
  in
  checkb "cycle rejections counted" true (stats.Pass.cycle_rejections > 0);
  checki "no rewrites" 0 stats.Pass.total_rewrites;
  checks "fingerprint unchanged" before (Fuzz.fingerprint g);
  Alcotest.(check (list string)) "graph valid" [] (Graph.validate g)

let test_guard_raise_becomes_error () =
  let env, g = chain_graph () in
  let inject =
    Inject.seeded ~seed:2 ~rate:1.0 ~points:[ Inject.Guard_raise ] ()
  in
  let stats =
    Pass.run_cfg
      ~config:{ Pass.Config.default with Pass.Config.inject = inject }
      (chain_program env)
      g
  in
  checki "no rewrites" 0 stats.Pass.total_rewrites;
  checkb "guard errors recorded" true
    (List.exists
       (function Pass.Guard_raised _ -> true | _ -> false)
       stats.Pass.errors);
  Alcotest.(check (list string)) "graph valid" [] (Graph.validate g)

let test_fuel_cut_quarantines () =
  let env, g = chain_graph ~n:8 () in
  let inject =
    Inject.seeded ~seed:3 ~rate:1.0 ~points:[ Inject.Fuel_cut ] ()
  in
  let stats =
    Pass.run_cfg
      ~config:
        {
          Pass.Config.default with
          Pass.Config.inject = inject;
          quarantine_after = 3;
        }
      (chain_program env)
      g
  in
  checkb "fuel exhaustions surfaced" true (stats.Pass.fuel_exhausted > 0);
  checki "pattern quarantined" 1 stats.Pass.quarantined;
  checkb "per-pattern flag set" true
    (match Pass.find_pattern_stats stats "ReluChain" with
    | Some ps -> ps.Pass.quarantined
    | None -> false)

let test_quarantine_stops_attempts () =
  (* after the trip, the pattern is skipped: attempts stay below the
     number of matching nodes times traversals *)
  let env, g = chain_graph ~n:10 () in
  let inject =
    Inject.seeded ~seed:3 ~rate:1.0 ~points:[ Inject.Fuel_cut ] ()
  in
  let stats =
    Pass.run_cfg
      ~config:
        {
          Pass.Config.default with
          Pass.Config.inject = inject;
          quarantine_after = 2;
        }
      (chain_program env)
      g
  in
  (match Pass.find_pattern_stats stats "ReluChain" with
  | Some ps ->
      checkb "attempts stop at the trip" true (ps.Pass.attempts <= 3)
  | None -> Alcotest.fail "no stats for ReluChain");
  checki "quarantined" 1 stats.Pass.quarantined

let test_deadline_partial_stats () =
  let env, g = chain_graph ~n:6 () in
  let stats =
    Pass.run_cfg
      ~config:{ Pass.Config.default with Pass.Config.deadline_s = Some 0.0 }
      (chain_program env)
      g
  in
  checkb "deadline hit" true stats.Pass.deadline_hit;
  checkb "not a fixpoint" true (not stats.Pass.reached_fixpoint);
  checki "stopped before rewriting" 0 stats.Pass.total_rewrites;
  Alcotest.(check (list string)) "graph valid" [] (Graph.validate g)

(* ------------------------------------------------------------------ *)
(* Degradation ladder                                                  *)
(* ------------------------------------------------------------------ *)

let test_ladder_plan_to_index () =
  let env, g = chain_graph () in
  let clean =
    Pass.run_cfg
      ~config:{ Pass.Config.default with Pass.Config.engine = Some Pass.Plan }
      (chain_program env)
      g
  in
  let env2, g2 = chain_graph () in
  ignore env2;
  let inject =
    Inject.seeded ~seed:1 ~rate:1.0 ~max_fires:1
      ~points:[ Inject.Plan_compile ] ()
  in
  let c = Obs.Collector.create () in
  let stats =
    Obs.with_sink (Obs.Collector.sink c) (fun () ->
        Pass.run_cfg
          ~config:
            {
              Pass.Config.default with
              Pass.Config.engine = Some Pass.Plan;
              inject;
            }
          (chain_program env)
          g2)
  in
  checks "degraded to index" "index" stats.Pass.engine_used;
  checki "same rewrites as the healthy run" clean.Pass.total_rewrites
    stats.Pass.total_rewrites;
  checkb "degradation event emitted" true
    (List.exists
       (fun (e : Obs.event) ->
         match e.Obs.kind with
         | Obs.Engine_degraded { from_ = "plan"; to_ = "index"; _ } -> true
         | _ -> false)
       (Obs.Collector.events c))

let test_ladder_to_naive_then_fatal () =
  let env, g = chain_graph () in
  let inject =
    Inject.seeded ~seed:1 ~rate:1.0 ~max_fires:2
      ~points:[ Inject.Plan_compile ] ()
  in
  let stats =
    Pass.run_cfg
      ~config:
        {
          Pass.Config.default with
          Pass.Config.engine = Some Pass.Plan;
          inject;
        }
      (chain_program env)
      g
  in
  checks "bottom rung reached" "naive" stats.Pass.engine_used;
  checkb "still rewrote" true (stats.Pass.total_rewrites > 0);
  (* and with every rung poisoned: fatal, contained, graph untouched *)
  let env2, g2 = chain_graph () in
  ignore env2;
  let before = Fuzz.fingerprint g2 in
  let inject =
    Inject.seeded ~seed:1 ~rate:1.0 ~points:[ Inject.Plan_compile ] ()
  in
  match
    Pass.run_result_cfg
      ~config:
        {
          Pass.Config.default with
          Pass.Config.engine = Some Pass.Plan;
          inject;
        }
      (chain_program env)
      g2
  with
  | Ok _ -> Alcotest.fail "no engine available but the pass claims success"
  | Error (Pass.Engine_unavailable { engine; _ }, stats) ->
      checks "died at the bottom rung" "naive" engine;
      checkb "fatal recorded" true (stats.Pass.fatal <> None);
      checks "graph untouched" before (Fuzz.fingerprint g2)
  | Error (e, _) -> Alcotest.failf "unexpected error: %s" (Pass.error_message e)

(* ------------------------------------------------------------------ *)
(* 500 seeded schedules x 3 engines never corrupt the graph            *)
(* ------------------------------------------------------------------ *)

let test_fault_schedule_sweep () =
  let engines = [ Pass.Naive; Pass.Index; Pass.Plan ] in
  for seed = 0 to 499 do
    List.iter
      (fun engine ->
        let env, g = fresh () in
        let x = Graph.input g ~name:"x" (f32 [ 8 ]) in
        let t = relu_tower g ~n:4 x in
        Graph.set_outputs g [ Graph.add g Std_ops.add [ t; relu_tower g ~n:2 x ] ];
        let inject = Inject.seeded ~seed ~rate:0.4 () in
        let stats =
          try
            Pass.run_cfg
              ~config:
                {
                  Pass.Config.default with
                  Pass.Config.engine = Some engine;
                  inject;
                  quarantine_after = 2;
                }
              (chain_program env)
              g
          with e ->
            Alcotest.failf "seed %d, %s engine: pass raised %s" seed
              (Pass.engine_name engine) (Printexc.to_string e)
        in
        ignore stats;
        match Graph.validate g with
        | [] -> ()
        | errs ->
            Alcotest.failf "seed %d, %s engine: invalid graph: %s" seed
              (Pass.engine_name engine)
              (String.concat "; " errs))
      engines
  done

(* ------------------------------------------------------------------ *)
(* Result-based Ematch / Saturate APIs                                 *)
(* ------------------------------------------------------------------ *)

let test_ematch_unsupported_is_error () =
  let g = Egraph.create () in
  let cls = Egraph.add_term g (Term.const "a") in
  (match Ematch.matches_in g (P.Guarded (P.var "x", Guard.True)) cls with
  | Error reason -> checkb "reason given" true (String.length reason > 0)
  | Ok _ -> Alcotest.fail "guarded pattern accepted by e-matching");
  match Ematch.matches g (P.mu "P" ~formals:[] ~actuals:[] (P.var "x")) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "recursive pattern accepted by e-matching"

let test_saturate_rw_validates () =
  (match
     Saturate.rw ~name:"bad"
       (P.app "g" [ P.var "x" ])
       (Saturate.Tvar "unbound")
   with
  | Error reason ->
      checkb "names the variable" true
        (String.length reason > 0)
  | Ok _ -> Alcotest.fail "unbound template variable accepted");
  (match
     Saturate.rw ~name:"badf" (P.app "g" [ P.var "x" ])
       (Saturate.Tfapp ("F", [ Saturate.Tvar "x" ]))
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unbound operator variable accepted");
  match
    Saturate.rw ~name:"ok"
      (P.app "g" [ P.app "g" [ P.var "x" ] ])
      (Saturate.Tvar "x")
  with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "valid rewrite rejected: %s" e

(* ------------------------------------------------------------------ *)
(* CLI: structured fatal errors, no backtrace                          *)
(* ------------------------------------------------------------------ *)

(* The test binary runs from _build/default/test; the driver is a declared
   dependency at ../bin/pypmc.exe. *)
let pypmc = Filename.concat ".." (Filename.concat "bin" "pypmc.exe")

let test_cli_strict_structured_exit () =
  if not (Sys.file_exists pypmc) then
    Alcotest.skip ()
  else begin
    let err = Filename.temp_file "pypmc_strict" ".err" in
    let cmd =
      Printf.sprintf
        "%s optimize -m bert-tiny --fault-seed 3 --fault-rate 1.0 \
         --fault-points instantiate-fail --strict > %s 2> %s"
        (Filename.quote pypmc) Filename.null (Filename.quote err)
    in
    let code = Sys.command cmd in
    let stderr_text =
      let ic = open_in err in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      Sys.remove err;
      s
    in
    checki "nonzero exit" 1 code;
    let contains hay needle =
      let nh = String.length hay and nn = String.length needle in
      let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
      go 0
    in
    checkb "structured message on stderr" true
      (contains stderr_text "fatal pass error");
    checkb "no raw OCaml backtrace" true
      (not (contains stderr_text "Fatal error: exception"));
    checkb "no Raised at frames" true (not (contains stderr_text "Raised at"))
  end

let () =
  Alcotest.run "resilience"
    [
      ( "txn",
        [
          Alcotest.test_case "rollback restores" `Quick test_txn_rollback_restores;
          Alcotest.test_case "commit keeps" `Quick test_txn_commit_keeps;
          Alcotest.test_case "nesting is LIFO" `Quick test_txn_nesting_lifo;
          Alcotest.test_case "ids not reused" `Quick
            test_ids_not_reused_after_rollback;
          Alcotest.test_case "gc refused inside txn" `Quick
            test_gc_refused_inside_txn;
        ] );
      ( "instantiate",
        [
          Alcotest.test_case "failing instantiate leaks nothing" `Quick
            test_failing_instantiate_leaks_nothing;
        ] );
      ( "breaker",
        [ Alcotest.test_case "trips once at threshold" `Quick test_breaker_trips_once ] );
      ( "inject",
        [
          Alcotest.test_case "deterministic" `Quick test_inject_deterministic;
          Alcotest.test_case "rate and caps" `Quick test_inject_rate_and_caps;
          Alcotest.test_case "point names roundtrip" `Quick
            test_point_names_roundtrip;
        ] );
      ( "pass",
        [
          Alcotest.test_case "clean run rewrites" `Quick test_clean_run_rewrites;
          Alcotest.test_case "rollback preserves fingerprint" `Quick
            test_rollback_preserves_fingerprint;
          Alcotest.test_case "cycle rejection rolled back" `Quick
            test_cycle_rejection_counted_and_rolled_back;
          Alcotest.test_case "guard raise becomes error" `Quick
            test_guard_raise_becomes_error;
          Alcotest.test_case "fuel cut quarantines" `Quick
            test_fuel_cut_quarantines;
          Alcotest.test_case "quarantine stops attempts" `Quick
            test_quarantine_stops_attempts;
          Alcotest.test_case "deadline partial stats" `Quick
            test_deadline_partial_stats;
        ] );
      ( "ladder",
        [
          Alcotest.test_case "plan degrades to index" `Quick
            test_ladder_plan_to_index;
          Alcotest.test_case "to naive, then fatal" `Quick
            test_ladder_to_naive_then_fatal;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "500 schedules x 3 engines" `Slow
            test_fault_schedule_sweep;
        ] );
      ( "egraph-api",
        [
          Alcotest.test_case "ematch errors" `Quick
            test_ematch_unsupported_is_error;
          Alcotest.test_case "saturate rw validates" `Quick
            test_saturate_rw_validates;
        ] );
      ( "cli",
        [
          Alcotest.test_case "strict structured exit" `Slow
            test_cli_strict_structured_exit;
        ] );
    ]
