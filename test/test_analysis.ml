(* The static pattern-library linter (lib/analysis): guard satisfiability
   over the attribute-interval fragment, subsumption and overlap witnesses,
   shadowing under ordered alternates, the skeleton extraction they rest
   on, lint wiring (Program.make ~lint, Pass.Config) and the Pypm_api
   facade. *)

open Pypm_term
open Pypm_pattern
open Pypm_semantics
open Pypm_engine
module F = Pypm_testutil.Fixtures
module P = Pattern
module A = Pypm.Analysis
module Std_ops = Pypm.Std_ops
module Corpus = Pypm.Corpus
module Transformer = Pypm.Transformer
module Graph = Pypm.Graph

let checki = Alcotest.(check int)
let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)
let sg = F.sg
let interp = F.interp
let matched p t = Outcome.is_matched (Matcher.matches ~interp p t)

(* ------------------------------------------------------------------ *)
(* Skeleton extraction                                                 *)
(* ------------------------------------------------------------------ *)

(* The decision fragment every analysis starts from: which patterns
   [Skeleton.extract] linearizes, and its expansion budget. *)
let test_extract_fragment () =
  checkb "app/var compiles" true
    (Skeleton.extract (P.app "f" [ P.var "x"; P.var "y" ]) <> None);
  checkb "alt compiles" true
    (Skeleton.extract (P.alt (P.app "g" [ P.var "x" ]) (P.var "x")) <> None);
  checkb "mu falls back" true
    (Skeleton.extract
       (P.mu "P" ~formals:[ "x" ] ~actuals:[ "x" ]
          (P.alt (P.app "g" [ P.call "P" [ "x" ] ]) (P.var "x")))
    = None);
  checkb "constr falls back" true
    (Skeleton.extract (P.constr (P.var "x") (P.app "g" [ P.var "y" ]) "x")
    = None);
  (match
     Skeleton.extract
       (P.app "f"
          [ P.alt (P.var "x") (P.const "a"); P.alt (P.var "y") (P.const "b") ])
   with
  | Some bs -> checki "2x2 alternates expand to 4 branches" 4 (List.length bs)
  | None -> Alcotest.fail "expected compilable");
  (* expansion budget: a pattern wider than max_branches falls back *)
  let wide =
    P.app "f"
      [
        P.alts (List.init 20 (fun i -> P.const (Printf.sprintf "c%d" i)));
        P.alts (List.init 20 (fun i -> P.const (Printf.sprintf "d%d" i)));
      ]
  in
  checkb "expansion budget enforced" true
    (Skeleton.extract ~max_branches:64 wide = None)

(* ------------------------------------------------------------------ *)
(* Guard satisfiability                                                *)
(* ------------------------------------------------------------------ *)

let test_guard_status () =
  let open Guard in
  let unsat g = A.guard_status g = `Unsat in
  let valid g = A.guard_status g = `Valid in
  let unknown g = A.guard_status g = `Unknown in
  checkb "size < 1 unsat" true (unsat (Lt (Var_attr ("x", "size"), Const 1)));
  checkb "0 <= rank valid" true (valid (Le (Const 0, Var_attr ("x", "rank"))));
  checkb "rank < 9 valid" true (valid (Lt (Var_attr ("x", "rank"), Const 9)));
  checkb "size = 3 unknown" true (unknown (Eq (Var_attr ("x", "size"), Const 3)));
  checkb "x.size = x.size valid" true
    (valid (Eq (Var_attr ("x", "size"), Var_attr ("x", "size"))));
  checkb "conjunction with unsat leg unsat" true
    (unsat
       (And
          ( Le (Const 0, Var_attr ("x", "size")),
            Lt (Var_attr ("y", "depth"), Const 1) )));
  checkb "disjunction with valid leg valid" true
    (valid
       (Or
          ( Le (Const 1, Var_attr ("x", "size")),
            Eq (Var_attr ("x", "size"), Const 3) )));
  (* never-true comparisons against shifted expressions *)
  checkb "size < size unsat" true
    (unsat (Lt (Var_attr ("x", "size"), Var_attr ("x", "size"))))

(* ------------------------------------------------------------------ *)
(* Subsumption                                                         *)
(* ------------------------------------------------------------------ *)

let p_wide = P.app "f" [ P.var "x"; P.var "y" ]
let p_narrow = P.app "f" [ P.app "g" [ P.var "z" ]; P.const "a" ]
let p_xx = P.app "f" [ P.var "x"; P.var "x" ]

let test_subsumes_linear () =
  checkb "f(x,y) subsumes f(g(z),a)" true (A.subsumes p_wide p_narrow = `Yes);
  checkb "not the converse" true (A.subsumes p_narrow p_wide = `Unknown);
  checkb "reflexive" true (A.subsumes p_wide p_wide = `Yes)

let test_subsumes_nonlinear () =
  checkb "f(x,x) does not subsume f(x,y)" true (A.subsumes p_xx p_wide = `Unknown);
  checkb "f(x,y) subsumes f(x,x)" true (A.subsumes p_wide p_xx = `Yes);
  checkb "f(x,x) subsumes alpha-variant f(w,w)" true
    (A.subsumes p_xx (P.app "f" [ P.var "w"; P.var "w" ]) = `Yes)

(* a [`Valid] guard is only "true when it evaluates": a guard over a
   variable the pattern never binds can never evaluate, so the guarded
   pattern matches nothing and must not be claimed to subsume anything
   (found by the lint-soundness fuzz property) *)
let test_subsumes_guard_evaluability () =
  let guarded_unbound =
    P.guarded (P.var "ey") [ Guard.Le (Guard.Const 1, Guard.Var_attr ("x", "depth")) ]
  in
  checkb "unevaluable-guard pattern subsumes nothing" true
    (A.subsumes guarded_unbound (P.var "z") = `Unknown);
  (* with the guard over the bound variable the claim is sound again *)
  let guarded_bound =
    P.guarded (P.var "ey") [ Guard.Le (Guard.Const 1, Guard.Var_attr ("ey", "depth")) ]
  in
  checkb "evaluable valid guard discharges" true
    (A.subsumes guarded_bound (P.var "z") = `Yes)

let test_subsumption_extensional () =
  (* spot-check the semantic claim on a probe set *)
  let probes =
    [
      F.a; F.b; F.c; F.g1 F.a;
      F.f2 F.a F.b; F.f2 (F.g1 F.a) (Term.const "a");
      F.f2 (F.g1 (F.g1 F.b)) F.c; F.h3 F.a F.b F.c;
      F.f2 (F.g1 F.c) F.c; F.f2 F.c F.c;
    ]
  in
  List.iter
    (fun (p, q) ->
      if A.subsumes p q = `Yes then
        List.iter
          (fun t ->
            if matched q t then
              checkb
                (Printf.sprintf "%s subsumes %s on %s" (P.to_string p)
                   (P.to_string q) (Term.to_string t))
                true (matched p t))
          probes)
    [
      (p_wide, p_narrow); (p_wide, p_xx); (P.var "v", p_wide);
      (P.app "f" [ P.var "x"; P.const "a" ], P.app "f" [ P.const "b"; P.const "a" ]);
    ]

(* ------------------------------------------------------------------ *)
(* Overlap witnesses                                                   *)
(* ------------------------------------------------------------------ *)

let test_overlap_witness () =
  let p1 = P.app "f" [ P.var "x"; P.const "a" ] in
  let p2 = P.app "f" [ P.app "g" [ P.var "y" ]; P.var "z" ] in
  (match A.overlap_witness ~sg ~interp p1 p2 with
  | Some t ->
      checkb "witness matches p1" true (matched p1 t);
      checkb "witness matches p2" true (matched p2 t)
  | None -> Alcotest.fail "expected an overlap witness");
  checkb "head conflict: no overlap" true
    (A.overlap_witness ~sg ~interp (P.app "g" [ P.var "x" ]) p_wide = None)

let test_overlap_nonlinear () =
  (* f(x,x) vs f(g(a), y): congruence forces the witness f(g(a), g(a)) *)
  let q = P.app "f" [ P.app "g" [ P.const "a" ]; P.var "y" ] in
  match A.overlap_witness ~sg ~interp p_xx q with
  | Some t ->
      checkb "matches f(x,x)" true (matched p_xx t);
      checkb "matches f(g(a),y)" true (matched q t)
  | None -> Alcotest.fail "expected a nonlinear overlap witness"

(* ------------------------------------------------------------------ *)
(* Lint: the known-bad model library                                   *)
(* ------------------------------------------------------------------ *)

(* One program exhibiting all three headline defects: an ordered alternate
   whose second arm is shadowed by the first, a pattern subsumed by an
   earlier one, and an unsatisfiable guard. *)
let bad_program () =
  let shadowed =
    P.alt p_wide (P.app "f" [ P.app "g" [ P.var "z" ]; P.var "w" ])
  in
  let unsat_g =
    P.guarded (P.app "g" [ P.var "x" ])
      [ Guard.Lt (Guard.Var_attr ("x", "size"), Guard.Const 1) ]
  in
  Program.make ~sg
    [
      { pname = "P_wide"; pattern = p_wide; rules = [] };
      { pname = "P_shadow"; pattern = shadowed; rules = [] };
      { pname = "P_narrow"; pattern = p_narrow; rules = [] };
      { pname = "P_unsat"; pattern = unsat_g; rules = [] };
    ]

let find_kind kind ds =
  List.filter (fun (d : A.diagnostic) -> d.A.kind = kind) ds

let test_lint_bad_library () =
  let ds = A.lint (bad_program ()) in
  (* all three defects reported *)
  (match find_kind A.Shadowed_branch ds with
  | d :: _ ->
      checkb "shadowed names P_shadow" true (List.mem "P_shadow" d.A.patterns);
      (match d.A.witness with
      | Some w ->
          checkb "shadow witness matches the pattern" true
            (matched (P.alt p_wide (P.app "f" [ P.app "g" [ P.var "z" ]; P.var "w" ])) w)
      | None -> Alcotest.fail "shadowed-branch witness missing")
  | [] -> Alcotest.fail "no shadowed-branch diagnostic");
  (match find_kind A.Subsumed_pattern ds with
  | subs ->
      checkb "P_narrow reported subsumed by P_wide" true
        (List.exists
           (fun (d : A.diagnostic) -> d.A.patterns = [ "P_wide"; "P_narrow" ])
           subs);
      List.iter
        (fun (d : A.diagnostic) ->
          match d.A.witness with
          | Some w ->
              List.iter
                (fun name ->
                  let e = Option.get (Program.entry (bad_program ()) name) in
                  checkb
                    (Printf.sprintf "subsumption witness matches %s" name)
                    true
                    (matched e.Program.pattern w))
                d.A.patterns
          | None -> Alcotest.fail "subsumption witness missing")
        subs);
  (match find_kind A.Unsat_guard ds with
  | d :: _ -> checkb "unsat guard names P_unsat" true (d.A.patterns = [ "P_unsat" ])
  | [] -> Alcotest.fail "no unsat-guard diagnostic");
  (match find_kind A.Dead_pattern ds with
  | d :: _ ->
      checkb "dead pattern is an error" true (d.A.severity = Wf.Error);
      checkb "dead pattern is P_unsat" true (d.A.patterns = [ "P_unsat" ])
  | [] -> Alcotest.fail "no dead-pattern diagnostic");
  (* severity partition *)
  checkb "errors nonempty" true (A.errors ds <> []);
  checkb "warnings nonempty" true (A.warnings ds <> [])

let test_lint_json () =
  let ds = A.lint (bad_program ()) in
  let json = A.to_json ds in
  checkb "json mentions every kind name" true
    (List.for_all
       (fun k -> contains json ("\"" ^ k ^ "\""))
       [ "shadowed-branch"; "subsumed-pattern"; "unsat-guard"; "dead-pattern" ])

let test_lint_dead_branch_and_vacuous () =
  let dead_arm =
    P.alt
      (P.guarded (P.app "g" [ P.var "x" ])
         [ Guard.Lt (Guard.Var_attr ("x", "depth"), Guard.Const 1) ])
      (P.app "g" [ P.var "x" ])
  in
  let vacuous =
    P.guarded (P.app "g" [ P.var "x" ])
      [ Guard.Le (Guard.Const 1, Guard.Var_attr ("x", "size")) ]
  in
  let prog =
    Program.make ~sg
      [
        { pname = "P_deadarm"; pattern = dead_arm; rules = [] };
        { pname = "P_vac"; pattern = vacuous; rules = [] };
      ]
  in
  let ds = A.lint prog in
  checkb "dead arm reported, pattern still live" true
    (find_kind A.Dead_branch ds <> [] && find_kind A.Dead_pattern ds = []);
  checkb "vacuous evaluable guard reported" true
    (List.exists
       (fun (d : A.diagnostic) -> d.A.patterns = [ "P_vac" ])
       (find_kind A.Vacuous_guard ds))

(* a guard over a variable the branch never binds can never evaluate:
   the branch is dead, not vacuously true *)
let test_lint_unbound_guard_var () =
  let p =
    P.guarded (P.var "ey")
      [ Guard.Le (Guard.Const 1, Guard.Var_attr ("x", "depth")) ]
  in
  let prog = Program.make ~sg [ { pname = "P"; pattern = p; rules = [] } ] in
  let ds = A.lint prog in
  checkb "flagged dead" true (find_kind A.Dead_pattern ds <> []);
  (* and indeed nothing matches it *)
  List.iter
    (fun t -> checkb "matches nothing" false (matched p t))
    [ F.a; F.g1 F.b; F.f2 F.a F.b ]

(* ------------------------------------------------------------------ *)
(* Lint: corpus zoos                                                   *)
(* ------------------------------------------------------------------ *)

let test_lint_corpus_zoos () =
  let env = Std_ops.make () in
  List.iter
    (fun (name, prog) ->
      let ds = A.lint prog in
      checki (name ^ " has no error-severity findings") 0
        (List.length (A.errors ds)))
    [
      ("fmha", Corpus.fmha_program env.Std_ops.sg);
      ("epilog", Corpus.epilog_program env.Std_ops.sg);
      ("both", Corpus.both_program env.Std_ops.sg);
      ("partition", Corpus.partition_program env.Std_ops.sg);
      ("cleanup", Corpus.cleanup_program env.Std_ops.sg);
      ("full", Corpus.full_program env.Std_ops.sg);
    ];
  (* the one known warning: MulOne / MulZero share witnesses like
     Mul(x, lit_1) with x = lit_0 — pinned so new findings surface *)
  let env = Std_ops.make () in
  let ds = A.lint (Corpus.full_program env.Std_ops.sg) in
  checki "full corpus: exactly one finding" 1 (List.length ds);
  match ds with
  | [ d ] ->
      checkb "it is the MulOne/MulZero overlap" true
        (d.A.kind = A.Overlapping_patterns
        && List.sort compare d.A.patterns = [ "MulOne"; "MulZero" ])
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Admission wiring                                                    *)
(* ------------------------------------------------------------------ *)

let test_program_make_lint () =
  let dead =
    P.guarded (P.app "g" [ P.var "x" ])
      [ Guard.Lt (Guard.Var_attr ("x", "size"), Guard.Const 1) ]
  in
  (* errors reject at construction *)
  (try
     ignore
       (Program.make ~lint:A.wf_lint ~sg
          [ { pname = "P"; pattern = dead; rules = [] } ]);
     Alcotest.fail "lint should have rejected the dead pattern"
   with Invalid_argument msg ->
     checkb "message names the defect" true (contains msg "never"));
  (* warnings are tolerated *)
  let p =
    Program.make ~lint:A.wf_lint ~sg
      [
        { pname = "P_wide"; pattern = p_wide; rules = [] };
        { pname = "P_narrow"; pattern = p_narrow; rules = [] };
      ]
  in
  checki "warned program still constructed" 2 (List.length p.Program.entries)

(* ------------------------------------------------------------------ *)
(* Pass.Config                                                         *)
(* ------------------------------------------------------------------ *)

let test_config_equivalence () =
  (* the one-shot [run_cfg] and a [prepare_cfg] + [run_prepared_cfg] pair
     are the same pass *)
  let build () =
    let env = Std_ops.make () in
    let cfg = Transformer.config "t" ~layers:2 ~hidden:64 ~seq:16 in
    (env, Transformer.build env cfg)
  in
  let env1, g1 = build () in
  let config =
    {
      Pypm.Pass.Config.default with
      Pypm.Pass.Config.engine = Some Pypm.Pass.Plan;
    }
  in
  let s1 = Pypm.Pass.run_cfg ~config (Corpus.both_program env1.Std_ops.sg) g1 in
  let env2, g2 = build () in
  let prepared =
    Pypm.Pass.prepare_cfg ~config (Corpus.both_program env2.Std_ops.sg)
  in
  let s2 = Pypm.Pass.run_prepared_cfg ~config prepared g2 in
  checki "same rewrites" s1.Pypm.Pass.total_rewrites s2.Pypm.Pass.total_rewrites;
  checks "same final graph" (Pypm.Fuzz.fingerprint g1) (Pypm.Fuzz.fingerprint g2)

let test_stats_json_config_block () =
  let env = Std_ops.make () in
  let cfg = Transformer.config "t" ~layers:1 ~hidden:64 ~seq:16 in
  let g = Transformer.build env cfg in
  let config =
    {
      Pypm.Pass.Config.default with
      Pypm.Pass.Config.engine = Some Pypm.Pass.Plan;
      fuel = 12345;
    }
  in
  let stats = Pypm.Pass.run_cfg ~config (Corpus.both_program env.Std_ops.sg) g in
  let json = Pypm.Pass.stats_json stats in
  let has s = contains json s in
  checkb "config block present" true (has "\"config\"");
  checkb "requested engine recorded" true (has "\"engine_requested\":\"plan\"");
  checkb "fuel recorded" true (has "\"fuel\":12345")

(* ------------------------------------------------------------------ *)
(* Pypm_api facade                                                     *)
(* ------------------------------------------------------------------ *)

let test_api_pipeline () =
  let env = Pypm.Api.env () in
  let src =
    "pattern DoubleRelu(x) { return Relu(Relu(x)); }\n\
     rule fuse for DoubleRelu(x) { return Relu(x); }\n"
  in
  match Pypm.Api.parse ~sg:env.Pypm_patterns.Std_ops.sg src with
  | Error e -> Alcotest.fail ("facade parse failed: " ^ e)
  | Ok prog ->
      checki "facade lint clean" 0 (List.length (Pypm.Api.lint prog));
      let cfg = Transformer.config "t" ~layers:1 ~hidden:64 ~seq:16 in
      let g = Transformer.build env cfg in
      let config =
        { Pypm.Api.Config.default with Pypm.Api.Config.engine = Some Pypm.Pass.Plan }
      in
      let prepared = Pypm.Api.prepare ~config prog in
      let stats = Pypm.Api.run ~config prepared g in
      checkb "facade stats json has config" true
        (contains (Pypm.Api.stats_json stats) "\"config\"")

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "analysis"
    [
      ( "skeleton",
        [ Alcotest.test_case "decision fragment" `Quick test_extract_fragment ] );
      ("guards", [ Alcotest.test_case "interval verdicts" `Quick test_guard_status ]);
      ( "subsumption",
        [
          Alcotest.test_case "linear" `Quick test_subsumes_linear;
          Alcotest.test_case "nonlinear" `Quick test_subsumes_nonlinear;
          Alcotest.test_case "guard evaluability" `Quick
            test_subsumes_guard_evaluability;
          Alcotest.test_case "extensional on probes" `Quick
            test_subsumption_extensional;
        ] );
      ( "overlap",
        [
          Alcotest.test_case "witness verified" `Quick test_overlap_witness;
          Alcotest.test_case "nonlinear congruence" `Quick test_overlap_nonlinear;
        ] );
      ( "lint",
        [
          Alcotest.test_case "known-bad library" `Quick test_lint_bad_library;
          Alcotest.test_case "json schema" `Quick test_lint_json;
          Alcotest.test_case "dead arm / vacuous guard" `Quick
            test_lint_dead_branch_and_vacuous;
          Alcotest.test_case "unbound guard variable" `Quick
            test_lint_unbound_guard_var;
          Alcotest.test_case "corpus zoos stay clean" `Quick
            test_lint_corpus_zoos;
        ] );
      ( "wiring",
        [
          Alcotest.test_case "Program.make ~lint admission" `Quick
            test_program_make_lint;
        ] );
      ( "config",
        [
          Alcotest.test_case "record = labelled shims" `Quick
            test_config_equivalence;
          Alcotest.test_case "stats json config block" `Quick
            test_stats_json_config_block;
        ] );
      ("api", [ Alcotest.test_case "facade pipeline" `Quick test_api_pipeline ]);
    ]
