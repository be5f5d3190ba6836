(* Tests for term-level rewriting: strategies, normal forms, and
   cross-checks against the graph pass and equality saturation. *)

open Pypm
module P = Pattern
module F = Pypm_testutil.Fixtures

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let check_term name expected t =
  Alcotest.(check string) name expected (Term.to_string t)

(* test signature from the shared fixtures: f/2, g/1, a b c *)
let sg = F.sg
let interp = F.interp
let a = F.a
let b = F.b
let g1 = F.g1
let f2 = F.f2

let entry ?(rules = []) name pattern = { Program.pname = name; pattern; rules }

let rw_exn ~name lhs rhs =
  match Saturate.rw ~name lhs rhs with Ok r -> r | Error e -> failwith e

let rule name ~pattern ?guard rhs = Rule.make ?guard ~name ~pattern rhs

(* gg(x) -> x *)
let gg_program =
  Program.make ~sg
    [
      entry "GG"
        (P.app "g" [ P.app "g" [ P.var "x" ] ])
        ~rules:[ rule "gg" ~pattern:"GG" (Rule.Rvar "x") ];
    ]

(* the ordering-trap pair from the e-graph tests:
   R1: f(x, b) -> g(x);  R2: g(f(x, b)) -> x *)
let trap_program =
  Program.make ~sg
    [
      entry "R1"
        (P.app "f" [ P.var "x"; P.const "b" ])
        ~rules:[ rule "r1" ~pattern:"R1" (Rule.Rapp ("g", [ Rule.Rvar "x" ])) ];
      entry "R2"
        (P.app "g" [ P.app "f" [ P.var "x"; P.const "b" ] ])
        ~rules:[ rule "r2" ~pattern:"R2" (Rule.Rvar "x") ];
    ]

let rec tower n = if n = 0 then a else g1 (tower (n - 1))

(* ------------------------------------------------------------------ *)

let test_instantiate () =
  let theta = Subst.of_list [ ("x", a) ] in
  let phi = Fsubst.of_list [ ("F", "g") ] in
  (match
     Term_rewrite.instantiate theta phi
       (Rule.Rfapp ("F", [ Rule.Rapp ("f", [ Rule.Rvar "x"; Rule.Rlit 2.0 ]) ]))
   with
  | Ok t ->
      check_term "built" "g(f(a, lit_f32_2000))" t
  | Error e -> Alcotest.fail e);
  match Term_rewrite.instantiate Subst.empty Fsubst.empty (Rule.Rvar "zz") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unbound accepted"

let test_normalize_tower () =
  let t, stats = Term_rewrite.normalize ~interp gg_program (tower 6) in
  check_term "even tower" "a" t;
  checkb "normal form" true stats.Term_rewrite.normal_form;
  checki "three steps" 3 stats.Term_rewrite.steps;
  let t', _ = Term_rewrite.normalize ~interp gg_program (tower 5) in
  check_term "odd tower" "g(a)" t'

let test_step_none_on_normal_form () =
  checkb "no redex" true (Term_rewrite.step ~interp gg_program a = None)

let test_strategies_differ_on_the_trap () =
  let t = g1 (f2 a b) in
  (* innermost: R1 fires inside first, R2's redex is destroyed *)
  let inner, _ =
    Term_rewrite.normalize ~interp ~strategy:Term_rewrite.Innermost
      trap_program t
  in
  check_term "innermost gets stuck at g(g(a))" "g(g(a))" inner;
  (* outermost: the root redex belongs to... R1 does not match at the root
     (head g); the first root match is R2, the good one *)
  let outer, _ =
    Term_rewrite.normalize ~interp ~strategy:Term_rewrite.Outermost
      trap_program t
  in
  check_term "outermost finds a" "a" outer

let test_saturation_dominates_both_strategies () =
  (* equality saturation finds the best form regardless of strategy *)
  let t = g1 (f2 a b) in
  let rules =
    [
      rw_exn ~name:"r1"
        (P.app "f" [ P.var "x"; P.const "b" ])
        (Saturate.Tapp ("g", [ Saturate.Tvar "x" ]));
      rw_exn ~name:"r2"
        (P.app "g" [ P.app "f" [ P.var "x"; P.const "b" ] ])
        (Saturate.Tvar "x");
    ]
  in
  let best, _ = Saturate.simplify ~rules t in
  let inner, _ = Term_rewrite.normalize ~interp trap_program t in
  let outer, _ =
    Term_rewrite.normalize ~interp ~strategy:Term_rewrite.Outermost
      trap_program t
  in
  checkb "saturation <= innermost" true (Term.size best <= Term.size inner);
  checkb "saturation <= outermost" true (Term.size best <= Term.size outer)

(* on the confluent tower rule, all three engines agree; checked on random
   terms *)
let prop_confluent_rules_agree =
  let gg_rw =
    rw_exn ~name:"gg"
      (P.app "g" [ P.app "g" [ P.var "x" ] ])
      (Saturate.Tvar "x")
  in
  F.qtest ~count:300 "term rewriting agrees with saturation (confluent rules)"
    F.Gen.term Term.to_string (fun t ->
      let inner, s1 = Term_rewrite.normalize ~interp gg_program t in
      let outer, s2 =
        Term_rewrite.normalize ~interp ~strategy:Term_rewrite.Outermost
          gg_program t
      in
      let best, _ = Saturate.simplify ~rules:[ gg_rw ] t in
      s1.Term_rewrite.normal_form && s2.Term_rewrite.normal_form
      && Term.equal inner outer && Term.equal inner best)

(* the graph pass and the term rewriter compute the same normal form on
   tree-shaped graphs *)
let test_agrees_with_graph_pass () =
  let env = Std_ops.make () in
  let g = Graph.create ~sg:env.Std_ops.sg ~infer:env.Std_ops.infer () in
  let x = Graph.input g ~name:"x" (Ty.make Dtype.F32 [ 4 ]) in
  let top =
    Graph.add g Std_ops.relu
      [ Graph.add g Std_ops.relu [ Graph.add g Std_ops.relu [ x ] ] ]
  in
  Graph.set_outputs g [ top ];
  let program = Program.make ~sg:env.Std_ops.sg [ Corpus.relu_chain ] in
  (* term side: rewrite the term view of the same graph *)
  let view = Term_view.create g in
  let t = Term_view.term_of view top in
  let t', _ = Term_rewrite.normalize ~interp:(Term_view.interp view) program t in
  (* graph side *)
  ignore (Pass.run_cfg program g);
  let view' = Term_view.create g in
  let t_graph = Term_view.term_of view' (List.hd (Graph.outputs g)) in
  checkb "same normal form" true (Term.equal t' t_graph)

let test_max_steps () =
  (* a looping rule: g(x) -> g(g(x)) diverges on terms *)
  let looping =
    Program.make ~sg
      [
        entry "L"
          (P.app "g" [ P.var "x" ])
          ~rules:
            [
              rule "loop" ~pattern:"L"
                (Rule.Rapp ("g", [ Rule.Rapp ("g", [ Rule.Rvar "x" ]) ]));
            ];
      ]
  in
  let _, stats = Term_rewrite.normalize ~interp ~max_steps:7 looping (g1 a) in
  checkb "not a normal form" true (not stats.Term_rewrite.normal_form);
  checki "stopped at the budget" 7 stats.Term_rewrite.steps

let () =
  Alcotest.run "term-rewrite"
    [
      ( "basics",
        [
          Alcotest.test_case "instantiate" `Quick test_instantiate;
          Alcotest.test_case "normalize tower" `Quick test_normalize_tower;
          Alcotest.test_case "normal form detected" `Quick
            test_step_none_on_normal_form;
          Alcotest.test_case "max steps" `Quick test_max_steps;
        ] );
      ( "strategies",
        [
          Alcotest.test_case "ordering trap" `Quick
            test_strategies_differ_on_the_trap;
          Alcotest.test_case "saturation dominates" `Quick
            test_saturation_dominates_both_strategies;
          prop_confluent_rules_agree;
        ] );
      ( "cross-checks",
        [
          Alcotest.test_case "agrees with the graph pass" `Quick
            test_agrees_with_graph_pass;
        ] );
    ]
