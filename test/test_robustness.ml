(* Failure-injection and robustness tests: pathological patterns, broken
   rules, bad inputs — the engine must fail loudly and boundedly, never
   hang or corrupt the graph. *)

open Pypm
module P = Pattern

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let f32 shape = Ty.make Dtype.F32 shape

let fresh () =
  let e = Std_ops.make () in
  (e, Graph.create ~sg:e.Std_ops.sg ~infer:e.Std_ops.infer ())

(* ------------------------------------------------------------------ *)
(* Pathological matching stays bounded                                 *)
(* ------------------------------------------------------------------ *)

(* exponential backtracking: n nested alternates of conflicting nonlinear
   bindings; the matcher must hit the fuel bound, not hang *)
let test_exponential_backtracking_bounded () =
  let sg = Signature.create () in
  ignore (Signature.declare sg ~arity:2 "f");
  ignore (Signature.declare sg ~arity:0 "a");
  ignore (Signature.declare sg ~arity:0 "b");
  let interp = Attrs.structural ~sg in
  (* pattern: f(x1||y1, f(x2||y2, ... f(xn||yn, z))) over a right comb of
     distinct constants with a final conflicting constraint *)
  let n = 18 in
  let rec pat i =
    if i = 0 then P.var "conflict"
    else P.app "f" [ P.alt (P.var "w") (P.var "w'"); pat (i - 1) ]
  in
  (* conflict: the final variable must equal both a and b *)
  let p = P.app "f" [ pat n; P.app "f" [ P.var "conflict"; P.var "conflict" ] ] in
  let rec comb i =
    if i = 0 then Term.const "a" else Term.app "f" [ Term.const "a"; comb (i - 1) ]
  in
  let t = Term.app "f" [ comb n; Term.app "f" [ Term.const "a"; Term.const "b" ] ] in
  match Matcher.matches ~interp ~fuel:5_000 p t with
  | Outcome.Out_of_fuel | Outcome.No_match -> ()
  | o -> Alcotest.failf "expected bounded failure, got %s" (Outcome.to_string o)

let test_deep_recursion_bounded () =
  (* left-recursive mu with a base case that never matches *)
  let sg = Signature.create () in
  ignore (Signature.declare sg ~arity:1 "g");
  ignore (Signature.declare sg ~arity:0 "a");
  let interp = Attrs.structural ~sg in
  let p =
    P.mu "P" ~formals:[ "x" ] ~actuals:[ "x" ]
      (P.alt (P.call "P" [ "x" ]) (P.app "g" [ P.call "P" [ "x" ] ]))
  in
  (match Matcher.matches ~interp ~fuel:2_000 p (Term.const "a") with
  | Outcome.Out_of_fuel -> ()
  | o -> Alcotest.failf "matcher: expected out-of-fuel, got %s" (Outcome.to_string o));
  match Machine.run ~interp ~fuel:2_000 p (Term.const "a") with
  | Outcome.Out_of_fuel -> ()
  | o -> Alcotest.failf "machine: expected out-of-fuel, got %s" (Outcome.to_string o)

(* ------------------------------------------------------------------ *)
(* Broken rules fail loudly, and the graph survives                    *)
(* ------------------------------------------------------------------ *)

let bad_program env =
  let bad =
    {
      Program.pname = "Bad";
      pattern = P.app Std_ops.relu [ P.var "x" ];
      rules =
        [ Rule.make ~name:"bad" ~pattern:"Bad" (Rule.Rvar "never_bound") ];
    }
  in
  Program.make ~sg:env.Std_ops.sg [ bad ]

(* A rule whose template mentions a variable the pattern never binds: under
   the default policy the error is contained — recorded in [stats.errors],
   the pattern quarantined, the graph intact — and [run] does not raise. *)
let test_rule_with_unbound_var_is_contained () =
  let env, g = fresh () in
  let x = Graph.input g ~name:"x" (f32 [ 4 ]) in
  (* three matching nodes, so one traversal strikes the breaker three
     times: quarantine at threshold 2 trips mid-traversal *)
  let r1 = Graph.add g Std_ops.relu [ x ] in
  let r2 = Graph.add g Std_ops.relu [ r1 ] in
  Graph.set_outputs g [ Graph.add g Std_ops.relu [ r2 ] ];
  let stats =
    Pass.run_cfg
      ~config:{ Pass.Config.default with Pass.Config.quarantine_after = 2 }
      (bad_program env)
      g
  in
  checki "no rewrites fired" 0 stats.Pass.total_rewrites;
  checkb "errors recorded" true (stats.Pass.errors <> []);
  (match List.hd stats.Pass.errors with
  | Pass.Rule_failed { pattern; rule; reason } ->
      Alcotest.(check string) "names the pattern" "Bad" pattern;
      Alcotest.(check string) "names the rule" "bad" rule;
      checkb "names the variable" true (String.length reason > 0)
  | e -> Alcotest.failf "unexpected error: %s" (Pass.error_message e));
  checkb "pattern quarantined" true
    (match Pass.find_pattern_stats stats "Bad" with
    | Some ps -> ps.Pass.quarantined
    | None -> false);
  checkb "every failed firing rolled back" true (stats.Pass.rolled_back > 0);
  checkb "not fatal by default" true (stats.Pass.fatal = None);
  (* the failed instantiations must not have broken the graph *)
  Alcotest.(check (list string)) "graph still valid" [] (Graph.validate g)

(* Under [`Fail] (the CLI's --strict) the same program stops the pass at
   the first error, surfaced through [run_result]. *)
let test_rule_with_unbound_var_strict () =
  let env, g = fresh () in
  let x = Graph.input g ~name:"x" (f32 [ 4 ]) in
  Graph.set_outputs g [ Graph.add g Std_ops.relu [ x ] ];
  match Pass.run_result_cfg (bad_program env) g with
  | Ok _ -> Alcotest.fail "strict mode accepted an unbound rule variable"
  | Error (e, stats) ->
      (match e with
      | Pass.Rule_failed { rule; _ } ->
          Alcotest.(check string) "names the rule" "bad" rule
      | e -> Alcotest.failf "unexpected error: %s" (Pass.error_message e));
      checkb "stats report the fatal error" true (stats.Pass.fatal = Some e);
      Alcotest.(check (list string)) "graph still valid" [] (Graph.validate g)

let test_pass_on_empty_program_is_identity () =
  let env, g = fresh () in
  let x = Graph.input g ~name:"x" (f32 [ 4 ]) in
  Graph.set_outputs g [ Graph.add g Std_ops.relu [ x ] ];
  let before = Graph.live_count g in
  let stats = Pass.run_cfg (Program.make ~sg:env.Std_ops.sg []) g in
  checki "no rewrites" 0 stats.Pass.total_rewrites;
  checki "untouched" before (Graph.live_count g);
  checkb "fixpoint" true stats.Pass.reached_fixpoint

let test_pass_on_empty_graph () =
  let env, g = fresh () in
  Graph.set_outputs g [];
  let stats = Pass.run_cfg (Corpus.both_program env.Std_ops.sg) g in
  checki "nothing visited" 0 stats.Pass.nodes_visited;
  checkb "fixpoint" true stats.Pass.reached_fixpoint

(* ------------------------------------------------------------------ *)
(* Loader robustness                                                   *)
(* ------------------------------------------------------------------ *)

let test_missing_file_is_an_error () =
  let sg = Signature.create () in
  match Surface.load_file ~sg "/nonexistent/patterns.pypm" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing file accepted"

let test_missing_include_is_an_error () =
  let path = Filename.temp_file "pypm_badinc" ".pypm" in
  let oc = open_out path in
  output_string oc "include \"does_not_exist.pypm\";\n";
  close_out oc;
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let sg = Signature.create () in
      match Surface.load_file ~sg path with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "missing include accepted")

(* fuzz: the surface parser is total over arbitrary bytes (errors, never
   exceptions other than its own) *)
let prop_parser_total =
  Pypm_testutil.Fixtures.qtest ~count:500 "surface parsing is total"
    QCheck2.Gen.(string_size (int_range 0 80))
    (fun s -> Printf.sprintf "%S" s)
    (fun src ->
      match Surface.parse src with Ok _ -> true | Error _ -> true)

(* fuzz: pexp parsing is total as well *)
let prop_pexp_total =
  Pypm_testutil.Fixtures.qtest ~count:500 "pexp parsing is total"
    QCheck2.Gen.(string_size (int_range 0 40))
    (fun s -> Printf.sprintf "%S" s)
    (fun src ->
      match Parser.pexp src with
      | _ -> true
      | exception Parser.Parse_error _ -> true
      | exception Lexer.Lex_error _ -> true)

let () =
  Alcotest.run "robustness"
    [
      ( "bounded",
        [
          Alcotest.test_case "exponential backtracking" `Quick
            test_exponential_backtracking_bounded;
          Alcotest.test_case "deep recursion" `Quick test_deep_recursion_bounded;
        ] );
      ( "engine",
        [
          Alcotest.test_case "unbound rule variable" `Quick
            test_rule_with_unbound_var_is_contained;
          Alcotest.test_case "unbound rule variable (strict)" `Quick
            test_rule_with_unbound_var_strict;
          Alcotest.test_case "empty program" `Quick
            test_pass_on_empty_program_is_identity;
          Alcotest.test_case "empty graph" `Quick test_pass_on_empty_graph;
        ] );
      ( "loader",
        [
          Alcotest.test_case "missing file" `Quick test_missing_file_is_an_error;
          Alcotest.test_case "missing include" `Quick
            test_missing_include_is_an_error;
          prop_parser_total;
          prop_pexp_total;
        ] );
    ]
