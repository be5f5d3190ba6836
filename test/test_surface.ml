(* Tests for the surface language: lexer, parser, and end-to-end loading
   of the paper's figures written in concrete syntax. *)

open Pypm

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)
(* ------------------------------------------------------------------ *)

let toks src = Array.to_list (Lexer.tokenize src) |> List.map (fun s -> s.Lexer.tok)

let test_lex_punctuation () =
  Alcotest.(check bool)
    "all tokens" true
    (toks "( ) { } , ; . = == != < <= && || ! + - * ->"
    = Lexer.
        [
          LPAREN; RPAREN; LBRACE; RBRACE; COMMA; SEMI; DOT; EQ; EQEQ; NEQ; LT;
          LE; ANDAND; OROR; BANG; PLUS; MINUS; STAR; ARROW; EOF;
        ])

let test_lex_literals () =
  (match toks "42 2.5 \"hello\" name" with
  | [ Lexer.INT 42; Lexer.FLOAT f; Lexer.STRING "hello"; Lexer.IDENT "name"; Lexer.EOF ] ->
      Alcotest.(check (float 1e-9)) "float" 2.5 f
  | _ -> Alcotest.fail "wrong tokens");
  ()

let test_lex_comments () =
  checkb "line comments skipped" true
    (toks "a // comment\nb # another\nc" = Lexer.[ IDENT "a"; IDENT "b"; IDENT "c"; EOF ])

let test_lex_positions () =
  let spanned = Lexer.tokenize "a\n  b" in
  Alcotest.(check int) "b line" 2 spanned.(1).Lexer.pos.Lexer.line;
  Alcotest.(check int) "b col" 3 spanned.(1).Lexer.pos.Lexer.col

let test_lex_errors () =
  (match Lexer.tokenize "a $ b" with
  | exception Lexer.Lex_error (_, _) -> ()
  | _ -> Alcotest.fail "bad character accepted");
  match Lexer.tokenize "\"unterminated" with
  | exception Lexer.Lex_error (_, _) -> ()
  | _ -> Alcotest.fail "unterminated string accepted"

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

let test_parse_pexp () =
  (match Parser.pexp "MatMul(x, Trans(y))" with
  | Ast.Eapp ("MatMul", [ Ast.Evar "x"; Ast.Eapp ("Trans", [ Ast.Evar "y" ]) ]) -> ()
  | _ -> Alcotest.fail "wrong pexp");
  match Parser.pexp "Div(x, 2)" with
  | Ast.Eapp ("Div", [ Ast.Evar "x"; Ast.Elit 2.0 ]) -> ()
  | _ -> Alcotest.fail "integer literal should become a float literal"

let test_parse_gform () =
  (match Parser.gform "x.shape.rank == 2 && y.eltType == f32" with
  | Ast.Gand
      ( Ast.Geq (Ast.Gattr ("x", [ "shape"; "rank" ]), Ast.Gint 2),
        Ast.Geq (Ast.Gattr ("y", [ "eltType" ]), Ast.Gdtype "f32") ) ->
      ()
  | _ -> Alcotest.fail "wrong gform");
  (* parenthesized formula vs parenthesized arithmetic *)
  (match Parser.gform "(x.rank == 2) || (x.rank == 3)" with
  | Ast.Gor (Ast.Geq _, Ast.Geq _) -> ()
  | _ -> Alcotest.fail "parenthesized formulas");
  match Parser.gform "(x.rank + 1) == 3" with
  | Ast.Geq (Ast.Gadd _, Ast.Gint 3) -> ()
  | _ -> Alcotest.fail "parenthesized arithmetic"

let test_parse_inline_alt () =
  (* inline alternation at the expression level *)
  (match Parser.pexp "Div(x, 2) || Mul(x, 0.5) || Mul(0.5, x)" with
  | Ast.Ealt (Ast.Ealt (Ast.Eapp ("Div", _), Ast.Eapp ("Mul", _)), Ast.Eapp ("Mul", _)) ->
      ()
  | _ -> Alcotest.fail "wrong alternation shape");
  (* parenthesized subexpressions *)
  match Parser.pexp "Relu((a || b))" with
  | Ast.Eapp ("Relu", [ Ast.Ealt (Ast.Evar "a", Ast.Evar "b") ]) -> ()
  | _ -> Alcotest.fail "parenthesized alternation"

let test_inline_alt_end_to_end () =
  (* the Half pattern written with inline alternation instead of repeated
     definitions: identical behavior *)
  let src =
    {|
      op Div(x, y) class "binary_pointwise";
      op Mul(x, y) class "binary_pointwise";
      pattern Half(x) { return Div(x, 2) || Mul(x, 0.5); }
    |}
  in
  let sg = Signature.create () in
  let p =
    match Surface.load ~sg src with
    | Ok p -> p
    | Error e -> Alcotest.failf "load: %a" Surface.pp_error e
  in
  let e = Option.get (Program.entry p "Half") in
  let lit v = Term.const (Graph.lit_symbol v) in
  let a = Term.const "leaf" in
  let interp = Attrs.structural ~sg in
  let m t = Outcome.is_matched (Matcher.matches ~interp e.Program.pattern t) in
  checkb "div spelling" true (m (Term.app "Div" [ a; lit 2.0 ]));
  checkb "mul spelling" true (m (Term.app "Mul" [ a; lit 0.5 ]));
  checkb "other rejected" false (m (Term.app "Mul" [ a; lit 0.25 ]))

let test_parse_mod () =
  match Parser.gform "x.dim1 % 8 == 0" with
  | Ast.Geq (Ast.Gmod (Ast.Gattr ("x", [ "dim1" ]), Ast.Gint 8), Ast.Gint 0) ->
      ()
  | _ -> Alcotest.fail "modulo form"

let test_parse_opclass () =
  match Parser.gform "F.op_class == opclass(\"unary_pointwise\")" with
  | Ast.Geq (Ast.Gattr ("F", [ "op_class" ]), Ast.Gopclass "unary_pointwise") -> ()
  | _ -> Alcotest.fail "opclass form"

let test_parse_errors_have_positions () =
  match Parser.program "pattern P(x) { return; }" with
  | exception Parser.Parse_error (pos, _) ->
      checkb "line recorded" true (pos.Lexer.line >= 1)
  | _ -> Alcotest.fail "bad program accepted"

(* ------------------------------------------------------------------ *)
(* End to end: the paper's figures in concrete syntax                  *)
(* ------------------------------------------------------------------ *)

let figure1_src =
  {|
    // Figure 1 of the paper, in the surface syntax.
    op MatMul(x, y) class "matmul";
    op Trans(x) class "transpose";
    op cublasMM_xyT_f32(x, y) class "fused_kernel";
    op cublasMM_xyT_i8(x, y) class "fused_kernel";

    pattern MMxyT(x, y) {
      assert x.shape.rank == 2;
      assert y.shape.rank == 2;
      yt = Trans(y);
      return MatMul(x, yt);
    }

    rule cublasrule for MMxyT(x, y) {
      assert x.eltType == f32 && y.eltType == f32
          || x.eltType == i8 && y.eltType == i8;
      return cublasMM_xyT_f32(x, y) when x.eltType == f32 && y.eltType == f32;
      return cublasMM_xyT_i8(x, y)  when x.eltType == i8  && y.eltType == i8;
    }
  |}

let load src =
  let sg = Signature.create () in
  match Surface.load ~sg src with
  | Ok p -> (sg, p)
  | Error e -> Alcotest.failf "load failed: %a" Surface.pp_error e

let test_figure1_loads () =
  let sg, p = load figure1_src in
  checkb "MatMul declared" true (Signature.mem sg "MatMul");
  Alcotest.(check (list string)) "one pattern" [ "MMxyT" ] (Program.pattern_names p);
  let e = Option.get (Program.entry p "MMxyT") in
  checki "two rules from two branches" 2 (List.length e.Program.rules)

let test_figure1_runs () =
  (* load against the std signature and run the rewrite on a real graph *)
  let env = Std_ops.make () in
  let p =
    match Surface.load ~sg:env.Std_ops.sg figure1_src with
    | Ok p -> p
    | Error e -> Alcotest.failf "load failed: %a" Surface.pp_error e
  in
  let g = Graph.create ~sg:env.Std_ops.sg ~infer:env.Std_ops.infer () in
  let x = Graph.input g ~name:"x" (Ty.make Dtype.F32 [ 2; 3 ]) in
  let w = Graph.input g ~name:"w" (Ty.make Dtype.F32 [ 5; 3 ]) in
  let mm = Graph.add g Std_ops.matmul [ x; Graph.add g Std_ops.trans [ w ] ] in
  Graph.set_outputs g [ mm ];
  let stats = Pass.run_cfg p g in
  checki "one rewrite" 1 stats.Pass.total_rewrites;
  checki "kernel node" 1 (Graph.count_op g "cublasMM_xyT_f32")

let figure2_src =
  {|
    op Mul(x, y) class "binary_pointwise";
    op Div(x, y) class "binary_pointwise";
    op Add(x, y) class "binary_pointwise";
    op Erf(x) class "unary_pointwise";
    op Gelu(x) class "unary_pointwise";

    pattern Half(x) { return Div(x, 2); }
    pattern Half(x) { return Mul(x, 0.5); }

    pattern Gelu(x) {
      return Mul(Half(x), Add(1, Erf(Div(x, 1.414))));
    }

    rule gelurule for Gelu(x) { return Gelu(x); }
  |}

let test_figure2_loads_and_matches () =
  let _sg, p = load figure2_src in
  let e = Option.get (Program.entry p "Gelu") in
  checkb "has alternates from Half" true (Pattern.count_alts e.Program.pattern >= 1);
  (* Mul(Div(a,2), Add(1, Erf(Div(a, 1.414)))) *)
  let lit v = Term.const (Graph.lit_symbol v) in
  let a = Term.const "leaf" in
  let t =
    Term.app "Mul"
      [
        Term.app "Div" [ a; lit 2.0 ];
        Term.app "Add" [ lit 1.0; Term.app "Erf" [ Term.app "Div" [ a; lit 1.414 ] ] ];
      ]
  in
  let interp = Pypm_testutil.Fixtures.interp in
  checkb "matches the div spelling" true
    (Outcome.is_matched (Matcher.matches ~interp e.Program.pattern t));
  (* the Mul(x, 0.5) spelling of Half *)
  let t2 =
    Term.app "Mul"
      [
        Term.app "Mul" [ a; lit 0.5 ];
        Term.app "Add" [ lit 1.0; Term.app "Erf" [ Term.app "Div" [ a; lit 1.414 ] ] ];
      ]
  in
  checkb "matches the mul spelling" true
    (Outcome.is_matched (Matcher.matches ~interp e.Program.pattern t2))

let figure3_src =
  {|
    pattern UnaryChain(x, f) { return f(UnaryChain(x, f)); }
    pattern UnaryChain(x, f) { return f(x); }
  |}

let test_figure3_loads_and_matches () =
  let sg = Signature.create () in
  ignore (Signature.declare sg ~arity:1 ~op_class:"unary_pointwise" "Relu");
  let p =
    match Surface.load ~sg figure3_src with
    | Ok p -> p
    | Error e -> Alcotest.failf "load failed: %a" Surface.pp_error e
  in
  let e = Option.get (Program.entry p "UnaryChain") in
  checkb "is a mu" true (Pattern.count_mus e.Program.pattern >= 1);
  let rec tower n =
    if n = 0 then Term.const "leaf" else Term.app "Relu" [ tower (n - 1) ]
  in
  let interp = Attrs.structural ~sg in
  checkb "tower of 5" true
    (Outcome.is_matched (Matcher.matches ~interp e.Program.pattern (tower 5)))

let figure4_src =
  {|
    pattern P(x, f, g) {
      y = var();
      x <= f(P(y, f, g));
      return x;
    }
    pattern P(x, f, g) {
      y = var();
      z = var();
      x <= g(P(y, f, g), P(z, f, g));
      return x;
    }
    pattern P(x, f, g) { return x; }
  |}

let test_figure4_loads_and_matches () =
  let sg = Signature.create () in
  ignore (Signature.declare sg ~arity:1 ~op_class:"unary_pointwise" "Relu");
  ignore (Signature.declare sg ~arity:2 ~op_class:"binary_pointwise" "Add");
  let p =
    match Surface.load ~sg figure4_src with
    | Ok p -> p
    | Error e -> Alcotest.failf "load failed: %a" Surface.pp_error e
  in
  let e = Option.get (Program.entry p "P") in
  let leaf = Term.const "leaf" in
  let tree =
    Term.app "Relu" [ Term.app "Add" [ Term.app "Relu" [ leaf ]; leaf ] ]
  in
  let interp = Attrs.structural ~sg in
  match Matcher.matches ~interp e.Program.pattern tree with
  | Outcome.Matched (theta, phi) ->
      (match Subst.find "x" theta with
      | Some t -> checkb "x is the root" true (Term.equal t tree)
      | None -> Alcotest.fail "x unbound");
      Alcotest.(check (option string)) "f" (Some "Relu") (Fsubst.find "f" phi);
      Alcotest.(check (option string)) "g" (Some "Add") (Fsubst.find "g" phi)
  | o -> Alcotest.failf "figure 4 should match: %s" (Outcome.to_string o)

let figure14_src =
  {|
    op MatMul(x, y) class "matmul";

    pattern PwSubgraph(x) {
      UnaryOp = Op(1, 1);
      assert UnaryOp.op_class == opclass("unary_pointwise");
      y = var();
      x <= UnaryOp(PwSubgraph(y));
      return x;
    }
    pattern PwSubgraph(x) { return x; }

    pattern MatMulEpilog(x) {
      a = var();
      b = var();
      x <= PwSubgraph(MatMul(a, b));
      return x;
    }
  |}

let fig14_sig () =
  let sg = Signature.create () in
  ignore (Signature.declare sg ~arity:1 ~op_class:"unary_pointwise" "Relu");
  ignore (Signature.declare sg ~arity:1 ~op_class:"unary_pointwise" "Gelu");
  ignore (Signature.declare sg ~arity:1 ~op_class:"softmax" "Softmax");
  sg

let load_fig14 sg src =
  match Surface.load ~sg src with
  | Ok p -> Option.get (Program.entry p "MatMulEpilog")
  | Error e -> Alcotest.failf "load failed: %a" Surface.pp_error e

(* Figure 14 exactly as printed. As written, PwSubgraph's parameter is the
   *root* of the chain (it is returned and constrained by the body), while
   MatMulEpilog passes the pattern MatMul(a, b) as that parameter — so the
   root itself must be the matmul and only the empty chain can match. We
   reproduce that behaviour faithfully and then test the evidently intended
   leaf-parameterized variant (which the corpus version uses). *)
let test_figure14_verbatim_is_degenerate () =
  let sg = fig14_sig () in
  let e = load_fig14 sg figure14_src in
  let interp = Attrs.structural ~sg in
  let m t = Outcome.is_matched (Matcher.matches ~interp e.Program.pattern t) in
  let a = Term.const "a_leaf" and b = Term.const "b_leaf" in
  let mm = Term.app "MatMul" [ a; b ] in
  checkb "bare matmul matches" true (m mm);
  checkb "a chained matmul does not (x is both root and matmul)" false
    (m (Term.app "Relu" [ mm ]))

let figure14_fixed_src =
  {|
    op MatMul(x, y) class "matmul";

    // leaf-parameterized chain: z names the innermost subgraph
    pattern PwSubgraph(z) {
      UnaryOp = Op(1, 1);
      assert UnaryOp.op_class == opclass("unary_pointwise");
      return UnaryOp(PwSubgraph(z));
    }
    pattern PwSubgraph(z) { return z; }

    pattern MatMulEpilog(x) {
      a = var();
      b = var();
      z = var();
      x <= PwSubgraph(z);
      z <= MatMul(a, b);
      return x;
    }
  |}

let test_figure14_fixed_matches_chains () =
  let sg = fig14_sig () in
  let e = load_fig14 sg figure14_fixed_src in
  let interp = Attrs.structural ~sg in
  let m t = Outcome.is_matched (Matcher.matches ~interp e.Program.pattern t) in
  let a = Term.const "a_leaf" and b = Term.const "b_leaf" in
  let mm = Term.app "MatMul" [ a; b ] in
  checkb "pointwise chain over a matmul" true
    (m (Term.app "Gelu" [ Term.app "Relu" [ mm ] ]));
  checkb "bare matmul (empty chain)" true (m mm);
  checkb "softmax breaks the chain" false
    (m (Term.app "Relu" [ Term.app "Softmax" [ mm ] ]));
  checkb "chain over a non-matmul leaf" false (m (Term.app "Relu" [ a ]))

let test_copying_rule () =
  let env = Std_ops.make () in
  let src =
    {|
      pattern ConvRelu(x, w, b) {
        c = var();
        c <= Conv2d(x, w, b);
        return Relu(c);
      }
      rule fuse for ConvRelu(x, w, b) copying c {
        return ConvBiasRelu(x, w, b);
      }
    |}
  in
  let p =
    match Surface.load ~sg:env.Std_ops.sg src with
    | Ok p -> p
    | Error e -> Alcotest.failf "load failed: %a" Surface.pp_error e
  in
  let g = Graph.create ~sg:env.Std_ops.sg ~infer:env.Std_ops.infer () in
  let f32 s = Ty.make Dtype.F32 s in
  let x = Graph.input g ~name:"x" (f32 [ 1; 3; 16; 16 ]) in
  let w = Graph.input g ~name:"w" (f32 [ 8; 3; 3; 3 ]) in
  let b = Graph.input g ~name:"b" (f32 [ 8; 1; 1 ]) in
  let c = Graph.add g Std_ops.conv2d ~attrs:[ ("stride", 2); ("pad", 1) ] [ x; w; b ] in
  Graph.set_outputs g [ Graph.add g Std_ops.relu [ c ] ];
  ignore (Pass.run_cfg p g);
  let fused =
    List.find (fun n -> Symbol.equal n.Graph.op Std_ops.conv_bias_relu)
      (Graph.live_nodes g)
  in
  Alcotest.(check (option int)) "stride copied through the surface rule"
    (Some 2)
    (List.assoc_opt "stride" fused.Graph.attrs)

(* pretty-printing an AST yields valid surface syntax that parses back to
   the same AST *)
let test_pp_roundtrip () =
  List.iter
    (fun src ->
      match Surface.parse src with
      | Error e -> Alcotest.failf "setup parse failed: %a" Surface.pp_error e
      | Ok ast -> (
          let printed = Format.asprintf "%a" Ast.pp_program ast in
          match Surface.parse printed with
          | Error e ->
              Alcotest.failf "re-parse of@.%s@.failed: %a" printed
                Surface.pp_error e
          | Ok ast' ->
              checkb "ASTs equal after round trip" true (ast = ast')))
    [ figure1_src; figure2_src; figure3_src; figure4_src; figure14_src;
      figure14_fixed_src ]

let write_tmp name content =
  let path = Filename.concat (Filename.get_temp_dir_name ()) name in
  let oc = open_out path in
  output_string oc content;
  close_out oc;
  path

let test_include_resolution () =
  let base =
    write_tmp "pypm_inc_base.pypm"
      "op Trans(x) class \"transpose\";\n\
       pattern TT(x) { return Trans(Trans(x)); }\n\
       rule tt for TT(x) { return x; }\n"
  in
  let main =
    write_tmp "pypm_inc_main.pypm"
      (Printf.sprintf
         "include %S;\npattern JustT(x) { return Trans(x); }\n"
         (Filename.basename base))
  in
  let sg = Signature.create () in
  (match Surface.load_file ~sg main with
  | Ok p ->
      (* included patterns come first, then the includer's *)
      Alcotest.(check (list string))
        "order" [ "TT"; "JustT" ]
        (Program.pattern_names p);
      checkb "included op declared" true (Signature.mem sg "Trans")
  | Error e -> Alcotest.failf "include load failed: %a" Surface.pp_error e);
  Sys.remove base;
  Sys.remove main

let test_include_is_idempotent () =
  (* diamond: two files include the same base; its patterns appear once *)
  let base =
    write_tmp "pypm_diam_base.pypm"
      "op Relu(x) class \"unary_pointwise\";\n\
       pattern R(x) { return Relu(x); }\n"
  in
  let mid =
    write_tmp "pypm_diam_mid.pypm"
      (Printf.sprintf "include %S;\n" (Filename.basename base))
  in
  let main =
    write_tmp "pypm_diam_main.pypm"
      (Printf.sprintf "include %S;\ninclude %S;\ninclude %S;\n"
         (Filename.basename base) (Filename.basename mid)
         (Filename.basename base))
  in
  let sg = Signature.create () in
  (match Surface.load_file ~sg main with
  | Ok p ->
      Alcotest.(check (list string)) "one copy" [ "R" ] (Program.pattern_names p)
  | Error e -> Alcotest.failf "diamond load failed: %a" Surface.pp_error e);
  List.iter Sys.remove [ base; mid; main ]

let test_include_cycle_detected () =
  let a_path = Filename.concat (Filename.get_temp_dir_name ()) "pypm_cyc_a.pypm" in
  let b_path = Filename.concat (Filename.get_temp_dir_name ()) "pypm_cyc_b.pypm" in
  let write path content =
    let oc = open_out path in
    output_string oc content;
    close_out oc
  in
  write a_path (Printf.sprintf "include %S;\n" (Filename.basename b_path));
  write b_path (Printf.sprintf "include %S;\n" (Filename.basename a_path));
  let sg = Signature.create () in
  (match Surface.load_file ~sg a_path with
  | Error (Surface.Syntax (_, msg)) ->
      checkb "mentions a cycle" true
        (String.length msg >= 5)
  | Error e -> Alcotest.failf "wrong error: %a" Surface.pp_error e
  | Ok _ -> Alcotest.fail "cycle accepted");
  List.iter Sys.remove [ a_path; b_path ]

let test_syntax_error_reported () =
  let sg = Signature.create () in
  match Surface.load ~sg "pattern P(x { return x; }" with
  | Error (Surface.Syntax (_, _)) -> ()
  | Error e -> Alcotest.failf "wrong error kind: %a" Surface.pp_error e
  | Ok _ -> Alcotest.fail "bad syntax accepted"

let test_elab_error_reported () =
  let sg = Signature.create () in
  match Surface.load ~sg "pattern P(x) { return NoSuchOp(x); }" with
  | Error (Surface.Elab _) -> ()
  | Error e -> Alcotest.failf "wrong error kind: %a" Surface.pp_error e
  | Ok _ -> Alcotest.fail "unknown operator accepted"

let () =
  Alcotest.run "surface"
    [
      ( "lexer",
        [
          Alcotest.test_case "punctuation" `Quick test_lex_punctuation;
          Alcotest.test_case "literals" `Quick test_lex_literals;
          Alcotest.test_case "comments" `Quick test_lex_comments;
          Alcotest.test_case "positions" `Quick test_lex_positions;
          Alcotest.test_case "errors" `Quick test_lex_errors;
        ] );
      ( "parser",
        [
          Alcotest.test_case "pattern expressions" `Quick test_parse_pexp;
          Alcotest.test_case "guard formulas" `Quick test_parse_gform;
          Alcotest.test_case "opclass" `Quick test_parse_opclass;
          Alcotest.test_case "modulo" `Quick test_parse_mod;
          Alcotest.test_case "inline alternation" `Quick test_parse_inline_alt;
          Alcotest.test_case "inline alternation end to end" `Quick
            test_inline_alt_end_to_end;
          Alcotest.test_case "error positions" `Quick
            test_parse_errors_have_positions;
        ] );
      ( "figures",
        [
          Alcotest.test_case "figure 1 loads" `Quick test_figure1_loads;
          Alcotest.test_case "figure 1 rewrites" `Quick test_figure1_runs;
          Alcotest.test_case "figure 2" `Quick test_figure2_loads_and_matches;
          Alcotest.test_case "figure 3" `Quick test_figure3_loads_and_matches;
          Alcotest.test_case "figure 4" `Quick test_figure4_loads_and_matches;
          Alcotest.test_case "figure 14 verbatim" `Quick
            test_figure14_verbatim_is_degenerate;
          Alcotest.test_case "figure 14 leaf-parameterized" `Quick
            test_figure14_fixed_matches_chains;
          Alcotest.test_case "copying rule" `Quick test_copying_rule;
        ] );
      ( "errors",
        [
          Alcotest.test_case "pretty-print round trip" `Quick
            test_pp_roundtrip;
          Alcotest.test_case "include resolution" `Quick
            test_include_resolution;
          Alcotest.test_case "diamond includes" `Quick
            test_include_is_idempotent;
          Alcotest.test_case "include cycles" `Quick
            test_include_cycle_detected;
          Alcotest.test_case "syntax errors" `Quick test_syntax_error_reported;
          Alcotest.test_case "elaboration errors" `Quick
            test_elab_error_reported;
        ] );
    ]
