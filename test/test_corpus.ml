(* Tests for the paper's pattern corpus: every figure's pattern matches the
   graphs it should and rewrites them correctly. *)

open Pypm

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let f32 shape = Ty.make Dtype.F32 shape

let fresh () =
  let e = Std_ops.make () in
  (e, Graph.create ~sg:e.Std_ops.sg ~infer:e.Std_ops.infer ())

let run_entry env g entry =
  Pass.run_cfg (Program.make ~sg:env.Std_ops.sg [ entry ]) g

let match_count env g entry =
  let stats =
    Pass.match_only_cfg (Program.make ~sg:env.Std_ops.sg [ entry ]) g
  in
  (Option.get (Pass.find_pattern_stats stats entry.Program.pname)).Pass.matches

(* ------------------------------------------------------------------ *)
(* Figure 1: MMxyT / cuBLAS                                            *)
(* ------------------------------------------------------------------ *)

let mmxyt_graph dtype =
  let e, g = fresh () in
  let x = Graph.input g ~name:"x" (Ty.make dtype [ 2; 3 ]) in
  let w = Graph.input g ~name:"w" (Ty.make dtype [ 5; 3 ]) in
  let mm = Graph.add g Std_ops.matmul [ x; Graph.add g Std_ops.trans [ w ] ] in
  Graph.set_outputs g [ mm ];
  (e, g)

let test_mmxyt_f32 () =
  let e, g = mmxyt_graph Dtype.F32 in
  ignore (run_entry e g Corpus.mmxyt);
  checki "f32 kernel" 1 (Graph.count_op g Std_ops.cublas_mm_xyt_f32)

let test_mmxyt_i8 () =
  let e, g = mmxyt_graph Dtype.I8 in
  ignore (run_entry e g Corpus.mmxyt);
  checki "i8 kernel" 1 (Graph.count_op g Std_ops.cublas_mm_xyt_i8)

let test_mmxyt_rank_guard () =
  (* rank-3 tensors: the pattern's rank==2 guard must reject *)
  let e, g = fresh () in
  let x = Graph.input g ~name:"x" (f32 [ 7; 2; 3 ]) in
  let w = Graph.input g ~name:"w" (f32 [ 7; 5; 3 ]) in
  let mm = Graph.add g Std_ops.matmul [ x; Graph.add g Std_ops.trans [ w ] ] in
  Graph.set_outputs g [ mm ];
  checki "no match" 0 (match_count e g Corpus.mmxyt)

let aligned_graph m k n =
  let e, g = fresh () in
  let x = Graph.input g ~name:"x" (f32 [ m; k ]) in
  let w = Graph.input g ~name:"w" (f32 [ n; k ]) in
  let mm = Graph.add g Std_ops.matmul [ x; Graph.add g Std_ops.trans [ w ] ] in
  Graph.set_outputs g [ mm ];
  (e, g)

let test_mmxyt_alignment_guard () =
  (* 16x8 @ (24x8)^T: every dimension divisible by 8 -> kernel fires *)
  let e, g = aligned_graph 16 8 24 in
  ignore (run_entry e g Corpus.mmxyt_aligned);
  checki "aligned fires" 1 (Graph.count_op g Std_ops.cublas_mm_xyt_f32);
  (* 16x9: inner dimension not divisible by 8 -> no match *)
  let e2, g2 = aligned_graph 16 9 24 in
  checki "misaligned rejected" 0 (match_count e2 g2 Corpus.mmxyt_aligned)

(* ------------------------------------------------------------------ *)
(* Figure 2: GELU alternates                                           *)
(* ------------------------------------------------------------------ *)

let gelu_graph variant =
  let e, g = fresh () in
  let x = Graph.input g ~name:"x" (f32 [ 4; 8 ]) in
  let half =
    match variant with
    | `Div2 -> Graph.add g Std_ops.div [ x; Graph.constant g 2.0 ]
    | `MulHalf -> Graph.add g Std_ops.mul [ x; Graph.constant g 0.5 ]
    | `HalfMul -> Graph.add g Std_ops.mul [ Graph.constant g 0.5; x ]
  in
  let erf =
    Graph.add g Std_ops.erf
      [ Graph.add g Std_ops.div [ x; Graph.constant g Std_ops.sqrt2 ] ]
  in
  let inner = Graph.add g Std_ops.add [ Graph.constant g 1.0; erf ] in
  let out = Graph.add g Std_ops.mul [ half; inner ] in
  Graph.set_outputs g [ out ];
  (e, g)

let test_gelu_all_variants () =
  List.iter
    (fun variant ->
      let e, g = gelu_graph variant in
      let stats = run_entry e g Corpus.gelu_fuse in
      checki "one rewrite" 1 stats.Pass.total_rewrites;
      checki "gelu node" 1 (Graph.count_op g Std_ops.gelu);
      checki "no erf left" 0 (Graph.count_op g Std_ops.erf);
      Alcotest.(check (list string)) "valid" [] (Graph.validate g))
    [ `Div2; `MulHalf; `HalfMul ]

let test_gelu_needs_shared_x () =
  (* half(x) * (1 + erf(y / sqrt2)) with y <> x must NOT match: the
     pattern is nonlinear in x *)
  let e, g = fresh () in
  let x = Graph.input g ~name:"x" (f32 [ 4; 8 ]) in
  let y = Graph.input g ~name:"y" (f32 [ 4; 8 ]) in
  let half = Graph.add g Std_ops.div [ x; Graph.constant g 2.0 ] in
  let erf =
    Graph.add g Std_ops.erf
      [ Graph.add g Std_ops.div [ y; Graph.constant g Std_ops.sqrt2 ] ]
  in
  let inner = Graph.add g Std_ops.add [ Graph.constant g 1.0; erf ] in
  let out = Graph.add g Std_ops.mul [ half; inner ] in
  Graph.set_outputs g [ out ];
  checki "no match" 0 (match_count e g Corpus.gelu_fuse)

let test_gelu_wrong_constant () =
  (* dividing by 3 is not a GELU *)
  let e, g = fresh () in
  let x = Graph.input g ~name:"x" (f32 [ 4; 8 ]) in
  let half = Graph.add g Std_ops.div [ x; Graph.constant g 3.0 ] in
  let erf =
    Graph.add g Std_ops.erf
      [ Graph.add g Std_ops.div [ x; Graph.constant g Std_ops.sqrt2 ] ]
  in
  let inner = Graph.add g Std_ops.add [ Graph.constant g 1.0; erf ] in
  let out = Graph.add g Std_ops.mul [ half; inner ] in
  Graph.set_outputs g [ out ];
  checki "no match" 0 (match_count e g Corpus.gelu_fuse)

(* ------------------------------------------------------------------ *)
(* MHA -> FMHA                                                         *)
(* ------------------------------------------------------------------ *)

let mha_graph ~scale =
  let e, g = fresh () in
  let q = Graph.input g ~name:"q" (f32 [ 2; 64; 32 ]) in
  let k = Graph.input g ~name:"k" (f32 [ 2; 64; 32 ]) in
  let v = Graph.input g ~name:"v" (f32 [ 2; 64; 32 ]) in
  let qk = Graph.add g Std_ops.matmul [ q; Graph.add g Std_ops.trans [ k ] ] in
  let alpha = Graph.constant g 0.125 in
  let scaled =
    match scale with
    | `Mul -> Graph.add g Std_ops.mul [ qk; alpha ]
    | `MulRev -> Graph.add g Std_ops.mul [ alpha; qk ]
    | `Div -> Graph.add g Std_ops.div [ qk; alpha ]
  in
  let att = Graph.add g Std_ops.matmul [ Graph.add g Std_ops.softmax [ scaled ]; v ] in
  Graph.set_outputs g [ att ];
  (e, g, q, k, v)

let test_mha_all_scales () =
  List.iter
    (fun scale ->
      let e, g, _, _, _ = mha_graph ~scale in
      let stats = run_entry e g Corpus.mha_fuse in
      checki "one rewrite" 1 stats.Pass.total_rewrites;
      checki "fmha node" 1 (Graph.count_op g Std_ops.fmha);
      checki "no softmax left" 0 (Graph.count_op g Std_ops.softmax);
      Alcotest.(check (list string)) "valid" [] (Graph.validate g))
    [ `Mul; `MulRev; `Div ]

let test_mha_binds_qkv () =
  let e, g, q, k, v = mha_graph ~scale:`Mul in
  ignore (run_entry e g Corpus.mha_fuse);
  let fmha =
    List.find (fun n -> Symbol.equal n.Graph.op Std_ops.fmha) (Graph.live_nodes g)
  in
  Alcotest.(check (list int))
    "inputs are q, k, v"
    [ q.Graph.id; k.Graph.id; v.Graph.id ]
    (List.map (fun n -> n.Graph.id) fmha.Graph.inputs)

let test_mha_scale_must_be_scalar () =
  (* a tensor-shaped scale must be rejected by the s.rank == 0 guard *)
  let e, g = fresh () in
  let q = Graph.input g ~name:"q" (f32 [ 2; 64; 32 ]) in
  let k = Graph.input g ~name:"k" (f32 [ 2; 64; 32 ]) in
  let v = Graph.input g ~name:"v" (f32 [ 2; 64; 32 ]) in
  let qk = Graph.add g Std_ops.matmul [ q; Graph.add g Std_ops.trans [ k ] ] in
  let bad_scale = Graph.input g ~name:"m" (f32 [ 64; 64 ]) in
  let scaled = Graph.add g Std_ops.mul [ qk; bad_scale ] in
  let att = Graph.add g Std_ops.matmul [ Graph.add g Std_ops.softmax [ scaled ]; v ] in
  Graph.set_outputs g [ att ];
  checki "no match" 0 (match_count e g Corpus.mha_fuse)

(* ------------------------------------------------------------------ *)
(* Epilogs                                                             *)
(* ------------------------------------------------------------------ *)

let test_epilog_bias_relu () =
  let e, g = fresh () in
  let x = Graph.input g ~name:"x" (f32 [ 4; 16 ]) in
  let w = Graph.input g ~name:"w" (f32 [ 16; 8 ]) in
  let b = Graph.input g ~name:"b" (f32 [ 8 ]) in
  let pre = Graph.add g Std_ops.add [ Graph.add g Std_ops.matmul [ x; w ]; b ] in
  let out = Graph.add g Std_ops.relu [ pre ] in
  Graph.set_outputs g [ out ];
  ignore (run_entry e g Corpus.epilog_bias_relu);
  checki "fused" 1 (Graph.count_op g Std_ops.gemm_bias_epilog_relu);
  checki "three nodes" 4 (Graph.live_count g)

let test_epilog_bias_rank_guard () =
  (* a matrix "bias" must be rejected (b.rank == 1 guard) *)
  let e, g = fresh () in
  let x = Graph.input g ~name:"x" (f32 [ 4; 16 ]) in
  let w = Graph.input g ~name:"w" (f32 [ 16; 8 ]) in
  let b = Graph.input g ~name:"b" (f32 [ 4; 8 ]) in
  let pre = Graph.add g Std_ops.add [ Graph.add g Std_ops.matmul [ x; w ]; b ] in
  let out = Graph.add g Std_ops.relu [ pre ] in
  Graph.set_outputs g [ out ];
  checki "no match" 0 (match_count e g Corpus.epilog_bias_relu)

let test_epilog_plain () =
  let e, g = fresh () in
  let x = Graph.input g ~name:"x" (f32 [ 4; 16 ]) in
  let w = Graph.input g ~name:"w" (f32 [ 16; 8 ]) in
  let out = Graph.add g Std_ops.gelu [ Graph.add g Std_ops.matmul [ x; w ] ] in
  Graph.set_outputs g [ out ];
  ignore (run_entry e g Corpus.epilog_gelu);
  checki "fused" 1 (Graph.count_op g Std_ops.gemm_epilog_gelu)

let test_conv_epilog_copies_attrs () =
  let e, g = fresh () in
  let x = Graph.input g ~name:"x" (f32 [ 1; 3; 16; 16 ]) in
  let w = Graph.input g ~name:"w" (f32 [ 8; 3; 3; 3 ]) in
  let b = Graph.input g ~name:"b" (f32 [ 8; 1; 1 ]) in
  let c =
    Graph.add g Std_ops.conv2d ~attrs:[ ("stride", 2); ("pad", 1) ] [ x; w; b ]
  in
  let out = Graph.add g Std_ops.relu [ c ] in
  Graph.set_outputs g [ out ];
  ignore (run_entry e g Corpus.conv_epilog);
  let fused =
    List.find
      (fun n -> Symbol.equal n.Graph.op Std_ops.conv_bias_relu)
      (Graph.live_nodes g)
  in
  Alcotest.(check (option int)) "stride" (Some 2)
    (List.assoc_opt "stride" fused.Graph.attrs);
  Alcotest.(check string)
    "same output type as the conv" "f32[1x8x8x8]"
    (match fused.Graph.ty with Some ty -> Ty.to_string ty | None -> "?")

(* ------------------------------------------------------------------ *)
(* Figures 3, 4: recursive chains                                      *)
(* ------------------------------------------------------------------ *)

let relu_tower n =
  let e, g = fresh () in
  let x = Graph.input g ~name:"x" (f32 [ 4 ]) in
  let rec go n acc = if n = 0 then acc else go (n - 1) (Graph.add g Std_ops.relu [ acc ]) in
  let top = go n x in
  Graph.set_outputs g [ top ];
  (e, g)

let test_relu_chain_collapses () =
  List.iter
    (fun n ->
      let e, g = relu_tower n in
      ignore (run_entry e g Corpus.relu_chain);
      checki
        (Printf.sprintf "tower of %d collapses to one relu" n)
        1
        (Graph.count_op g Std_ops.relu))
    [ 2; 3; 7 ]

let test_relu_chain_leaves_single () =
  let e, g = relu_tower 1 in
  let stats = run_entry e g Corpus.relu_chain in
  checki "no rewrite on a single relu" 0 stats.Pass.total_rewrites

let test_unary_chain_matches_any_tower () =
  let e, g = fresh () in
  let x = Graph.input g ~name:"x" (f32 [ 4 ]) in
  let top =
    Graph.add g Std_ops.exp_
      [ Graph.add g Std_ops.exp_ [ Graph.add g Std_ops.exp_ [ x ] ] ]
  in
  Graph.set_outputs g [ top ];
  (* UnaryChain (figure 3 verbatim) is match-only and matches at every
     chain node: exp^3, exp^2, exp^1 *)
  checki "matches" 3 (match_count e g Corpus.unary_chain)

let test_fig4_matches_mixed_tree () =
  (* the fig 4 pattern over a tree of one unary (Relu) and one binary (Add)
     operation; alternates 1/2 recurse, alternate 3 accepts leaves *)
  let _e, g = fresh () in
  let x = Graph.input g ~name:"x" (f32 [ 4 ]) in
  let y = Graph.input g ~name:"y" (f32 [ 4 ]) in
  let tree =
    Graph.add g Std_ops.relu
      [ Graph.add g Std_ops.add [ Graph.add g Std_ops.relu [ x ]; y ] ]
  in
  Graph.set_outputs g [ tree ];
  let view = Term_view.create g in
  let t = Term_view.term_of view tree in
  match
    Matcher.matches ~interp:(Term_view.interp view)
      Corpus.fig4.Program.pattern t
  with
  | Outcome.Matched (theta, phi) ->
      (* x (the root variable) must be bound to the whole tree *)
      (match Subst.find "x" theta with
      | Some root -> checkb "root capture" true (Term.equal root t)
      | None -> Alcotest.fail "x unbound");
      Alcotest.(check (option string)) "f" (Some Std_ops.relu) (Fsubst.find "f" phi);
      Alcotest.(check (option string)) "g" (Some Std_ops.add) (Fsubst.find "g" phi)
  | o -> Alcotest.failf "fig4 should match: %s" (Outcome.to_string o)

(* ------------------------------------------------------------------ *)
(* Figure 14: MatMulEpilog chain                                       *)
(* ------------------------------------------------------------------ *)

let test_matmul_epilog_chain () =
  let _e, g = fresh () in
  let a = Graph.input g ~name:"a" (f32 [ 2; 3 ]) in
  let b = Graph.input g ~name:"b" (f32 [ 3; 5 ]) in
  let mm = Graph.add g Std_ops.matmul [ a; b ] in
  (* a chain of *different* pointwise ops: needs the per-level fresh
     function variable (Exists_f) *)
  let top =
    Graph.add g Std_ops.gelu
      [ Graph.add g Std_ops.sigmoid [ Graph.add g Std_ops.relu [ mm ] ] ]
  in
  Graph.set_outputs g [ top ];
  let view = Term_view.create g in
  let t = Term_view.term_of view top in
  match
    Matcher.matches ~interp:(Term_view.interp view)
      Corpus.matmul_epilog_chain.Program.pattern t
  with
  | Outcome.Matched (theta, _) ->
      checkb "a bound" true (Subst.mem "a" theta);
      checkb "b bound" true (Subst.mem "b" theta);
      (match Subst.find "x" theta with
      | Some root -> checkb "x is the chain root" true (Term.equal root t)
      | None -> Alcotest.fail "x unbound")
  | o -> Alcotest.failf "MatMulEpilog should match: %s" (Outcome.to_string o)

let test_matmul_epilog_rejects_nonpointwise_chain () =
  (* softmax is not unary_pointwise: the class guard stops the chain, and
     the leaf under it is not a matmul, so no match at the top node *)
  let _e, g = fresh () in
  let a = Graph.input g ~name:"a" (f32 [ 2; 3 ]) in
  let b = Graph.input g ~name:"b" (f32 [ 3; 5 ]) in
  let mm = Graph.add g Std_ops.matmul [ a; b ] in
  let top = Graph.add g Std_ops.relu [ Graph.add g Std_ops.softmax [ mm ] ] in
  Graph.set_outputs g [ top ];
  let view = Term_view.create g in
  let t = Term_view.term_of view top in
  match
    Matcher.matches ~interp:(Term_view.interp view)
      Corpus.matmul_epilog_chain.Program.pattern t
  with
  | Outcome.No_match -> ()
  | o -> Alcotest.failf "expected no match, got %s" (Outcome.to_string o)

let test_matmul_epilog_empty_chain () =
  (* zero pointwise ops: a bare matmul is a valid (degenerate) epilog *)
  let e, g = fresh () in
  let a = Graph.input g ~name:"a" (f32 [ 2; 3 ]) in
  let b = Graph.input g ~name:"b" (f32 [ 3; 5 ]) in
  let mm = Graph.add g Std_ops.matmul [ a; b ] in
  Graph.set_outputs g [ mm ];
  checki "matches at the matmul" 1 (match_count e g Corpus.matmul_epilog_chain)

(* ------------------------------------------------------------------ *)
(* Cleanups and programs                                               *)
(* ------------------------------------------------------------------ *)

let test_algebraic_cleanups () =
  let e, g = fresh () in
  let x = Graph.input g ~name:"x" (f32 [ 4; 4 ]) in
  (* ((x + 0) - 0) / 1 * 1, then a transpose pair *)
  let t1 = Graph.add g Std_ops.add [ x; Graph.constant g 0.0 ] in
  let t2 = Graph.add g Std_ops.sub [ t1; Graph.constant g 0.0 ] in
  let t3 = Graph.add g Std_ops.div [ t2; Graph.constant g 1.0 ] in
  let t4 = Graph.add g Std_ops.mul [ t3; Graph.constant g 1.0 ] in
  let t5 = Graph.add g Std_ops.trans [ Graph.add g Std_ops.trans [ t4 ] ] in
  Graph.set_outputs g [ Graph.add g Std_ops.relu [ t5 ] ];
  let stats = Pass.run_cfg (Corpus.cleanup_program e.Std_ops.sg) g in
  checkb "several rewrites" true (stats.Pass.total_rewrites >= 5);
  (* everything collapses to relu(x) *)
  checki "two nodes" 2 (Graph.live_count g);
  Alcotest.(check (list string)) "valid" [] (Graph.validate g)

let test_mul_zero_keeps_type () =
  let e, g = fresh () in
  let x = Graph.input g ~name:"x" (f32 [ 4; 8 ]) in
  let m = Graph.add g Std_ops.mul [ x; Graph.constant g 0.0 ] in
  let out = Graph.add g Std_ops.relu [ m ] in
  Graph.set_outputs g [ out ];
  ignore (Pass.run_cfg (Corpus.cleanup_program e.Std_ops.sg) g);
  checki "zeros node" 1 (Graph.count_op g Std_ops.zeros_like);
  match (List.hd out.Graph.inputs).Graph.ty with
  | Some ty -> Alcotest.(check string) "type preserved" "f32[4x8]" (Ty.to_string ty)
  | None -> Alcotest.fail "untyped"

let test_type_check_rejects_bad_rule () =
  (* a rule that would replace a matrix by a scalar literal: rejected under
     the type check, fired without it *)
  let e, g = fresh () in
  let x = Graph.input g ~name:"x" (f32 [ 4; 8 ]) in
  let m = Graph.add g Std_ops.mul [ x; Graph.constant g 0.0 ] in
  Graph.set_outputs g [ Graph.add g Std_ops.relu [ m ] ];
  let bad_entry =
    {
      Program.pname = "BadZero";
      pattern =
        Pattern.alts
          [
            Pattern.app Std_ops.mul
              [ Pattern.var "x"; Pattern.const (Graph.lit_symbol 0.0) ];
          ];
      rules = [ Rule.make ~name:"bad" ~pattern:"BadZero" (Rule.Rlit 0.0) ];
    }
  in
  let prog = Program.make ~sg:e.Std_ops.sg [ bad_entry ] in
  let stats = Pass.run_cfg prog g in
  checki "rejected" 0 stats.Pass.total_rewrites;
  checkb "counted" true (stats.Pass.type_rejections >= 1);
  (* without the check the unsound rule fires *)
  let e2, g2 = fresh () in
  let x2 = Graph.input g2 ~name:"x" (f32 [ 4; 8 ]) in
  let m2 = Graph.add g2 Std_ops.mul [ x2; Graph.constant g2 0.0 ] in
  Graph.set_outputs g2 [ m2 ];
  let stats2 =
    Pass.run_cfg
      ~config:{ Pass.Config.default with Pass.Config.check_types = false }
      (Program.make ~sg:e2.Std_ops.sg [ bad_entry ])
      g2
  in
  checki "fires unchecked" 1 stats2.Pass.total_rewrites

let test_mul_one () =
  let e, g = fresh () in
  let x = Graph.input g ~name:"x" (f32 [ 4 ]) in
  let m = Graph.add g Std_ops.mul [ x; Graph.constant g 1.0 ] in
  let out = Graph.add g Std_ops.relu [ m ] in
  Graph.set_outputs g [ out ];
  ignore (run_entry e g Corpus.mul_one);
  checki "mul removed" 0 (Graph.count_op g Std_ops.mul)

let test_trans_of_matmul () =
  let e, g = fresh () in
  let a = Graph.input g ~name:"a" (f32 [ 2; 3 ]) in
  let b = Graph.input g ~name:"b" (f32 [ 3; 5 ]) in
  let t = Graph.add g Std_ops.trans [ Graph.add g Std_ops.matmul [ a; b ] ] in
  Graph.set_outputs g [ t ];
  let root_ty = t.Graph.ty in
  ignore (run_entry e g Corpus.trans_of_matmul);
  (* Trans(MatMul(a,b)) became MatMul(Trans(b), Trans(a)) *)
  checki "two transposes now" 2 (Graph.count_op g Std_ops.trans);
  let out = List.hd (Graph.outputs g) in
  Alcotest.(check string) "root is a matmul" Std_ops.matmul out.Graph.op;
  checkb "type preserved" true (out.Graph.ty = root_ty);
  Alcotest.(check (list string)) "valid" [] (Graph.validate g)

let test_matmul_of_trans_paper_example () =
  (* the introduction's rewrite: MatMul(Trans(x), Trans(y)) ->
     Trans(MatMul(y, x)) *)
  let e, g = fresh () in
  let x = Graph.input g ~name:"x" (f32 [ 3; 2 ]) in
  let y = Graph.input g ~name:"y" (f32 [ 5; 3 ]) in
  let mm =
    Graph.add g Std_ops.matmul
      [ Graph.add g Std_ops.trans [ x ]; Graph.add g Std_ops.trans [ y ] ]
  in
  Graph.set_outputs g [ mm ];
  ignore (run_entry e g Corpus.matmul_of_trans);
  let out = List.hd (Graph.outputs g) in
  Alcotest.(check string) "root is a transpose" Std_ops.trans out.Graph.op;
  (* type: [3;2]^T @ [5;3]^T = [2;3]@[3;5] = [2;5] *)
  (match out.Graph.ty with
  | Some ty -> Alcotest.(check string) "shape" "f32[2x5]" (Ty.to_string ty)
  | None -> Alcotest.fail "untyped");
  Alcotest.(check (list string)) "valid" [] (Graph.validate g)

let test_softmax_shift () =
  let e, g = fresh () in
  let x = Graph.input g ~name:"x" (f32 [ 4; 16 ]) in
  let shifted =
    Graph.add g Std_ops.softmax
      [ Graph.add g Std_ops.add [ x; Graph.constant g 3.0 ] ]
  in
  Graph.set_outputs g [ shifted ];
  ignore (run_entry e g Corpus.softmax_shift);
  checki "add removed" 0 (Graph.count_op g Std_ops.add);
  checki "softmax kept" 1 (Graph.count_op g Std_ops.softmax);
  (* a tensor shift must NOT be removed (not shift-invariant per row) *)
  let e2, g2 = fresh () in
  let x2 = Graph.input g2 ~name:"x" (f32 [ 4; 16 ]) in
  let bias = Graph.input g2 ~name:"b" (f32 [ 16 ]) in
  let s2 =
    Graph.add g2 Std_ops.softmax [ Graph.add g2 Std_ops.add [ x2; bias ] ]
  in
  Graph.set_outputs g2 [ s2 ];
  checki "tensor shift kept" 0 (match_count e2 g2 Corpus.softmax_shift)

let test_neg_neg () =
  let e, g = fresh () in
  let x = Graph.input g ~name:"x" (f32 [ 4 ]) in
  let nn = Graph.add g Std_ops.neg [ Graph.add g Std_ops.neg [ x ] ] in
  Graph.set_outputs g [ Graph.add g Std_ops.relu [ nn ] ];
  ignore (run_entry e g Corpus.neg_neg);
  checki "negations gone" 0 (Graph.count_op g Std_ops.neg)

let test_programs_are_wf () =
  let e = Std_ops.make () in
  List.iter
    (fun prog ->
      Alcotest.(check int)
        "no diagnostics" 0
        (List.length (Program.check prog)))
    [
      Corpus.fmha_program e.Std_ops.sg;
      Corpus.epilog_program e.Std_ops.sg;
      Corpus.both_program e.Std_ops.sg;
      Corpus.partition_program e.Std_ops.sg;
      Corpus.full_program e.Std_ops.sg;
    ]

let () =
  Alcotest.run "corpus"
    [
      ( "fig1-cublas",
        [
          Alcotest.test_case "f32 dispatch" `Quick test_mmxyt_f32;
          Alcotest.test_case "i8 dispatch" `Quick test_mmxyt_i8;
          Alcotest.test_case "rank guard" `Quick test_mmxyt_rank_guard;
          Alcotest.test_case "alignment guard (modulo)" `Quick
            test_mmxyt_alignment_guard;
        ] );
      ( "fig2-gelu",
        [
          Alcotest.test_case "all spellings fuse" `Quick test_gelu_all_variants;
          Alcotest.test_case "nonlinearity enforced" `Quick
            test_gelu_needs_shared_x;
          Alcotest.test_case "wrong constant rejected" `Quick
            test_gelu_wrong_constant;
        ] );
      ( "mha",
        [
          Alcotest.test_case "all scale spellings" `Quick test_mha_all_scales;
          Alcotest.test_case "binds q, k, v" `Quick test_mha_binds_qkv;
          Alcotest.test_case "scalar guard" `Quick test_mha_scale_must_be_scalar;
        ] );
      ( "epilog",
        [
          Alcotest.test_case "bias + relu" `Quick test_epilog_bias_relu;
          Alcotest.test_case "bias rank guard" `Quick
            test_epilog_bias_rank_guard;
          Alcotest.test_case "plain gelu" `Quick test_epilog_plain;
          Alcotest.test_case "conv attrs copied" `Quick
            test_conv_epilog_copies_attrs;
        ] );
      ( "fig3-fig4",
        [
          Alcotest.test_case "relu tower collapses" `Quick
            test_relu_chain_collapses;
          Alcotest.test_case "single relu kept" `Quick
            test_relu_chain_leaves_single;
          Alcotest.test_case "unary chain matches" `Quick
            test_unary_chain_matches_any_tower;
          Alcotest.test_case "fig4 mixed tree" `Quick
            test_fig4_matches_mixed_tree;
        ] );
      ( "fig14",
        [
          Alcotest.test_case "mixed pointwise chain" `Quick
            test_matmul_epilog_chain;
          Alcotest.test_case "class guard stops chain" `Quick
            test_matmul_epilog_rejects_nonpointwise_chain;
          Alcotest.test_case "empty chain" `Quick test_matmul_epilog_empty_chain;
        ] );
      ( "misc",
        [
          Alcotest.test_case "mul by one" `Quick test_mul_one;
          Alcotest.test_case "algebraic cleanups" `Quick
            test_algebraic_cleanups;
          Alcotest.test_case "mul by zero keeps type" `Quick
            test_mul_zero_keeps_type;
          Alcotest.test_case "type check gates rules" `Quick
            test_type_check_rejects_bad_rule;
          Alcotest.test_case "trans of matmul" `Quick test_trans_of_matmul;
          Alcotest.test_case "paper's transpose example" `Quick
            test_matmul_of_trans_paper_example;
          Alcotest.test_case "softmax shift invariance" `Quick
            test_softmax_shift;
          Alcotest.test_case "double negation" `Quick test_neg_neg;
          Alcotest.test_case "programs well-formed" `Quick
            test_programs_are_wf;
        ] );
    ]
