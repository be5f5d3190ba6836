(* Tests for the rewrite engine: rule instantiation, the greedy pass
   (ordering, first-rule-fires, fixpoint, divergence backstop), and
   directed graph partitioning. *)

open Pypm
module P = Pattern

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let f32 shape = Ty.make Dtype.F32 shape

let fresh_graph () =
  let e = Std_ops.make () in
  (e, Graph.create ~sg:e.Std_ops.sg ~infer:e.Std_ops.infer ())

(* ------------------------------------------------------------------ *)
(* Rule instantiation                                                  *)
(* ------------------------------------------------------------------ *)

(* graph: relu(matmul(x, w)), matched by Relu(MatMul(x, w)) *)
let epilog_site () =
  let _, g = fresh_graph () in
  let x = Graph.input g ~name:"x" (f32 [ 2; 3 ]) in
  let w = Graph.input g ~name:"w" (f32 [ 3; 5 ]) in
  let mm = Graph.add g Std_ops.matmul [ x; w ] in
  let r = Graph.add g Std_ops.relu [ mm ] in
  Graph.set_outputs g [ r ];
  (g, x, w, mm, r)

let match_at g root pattern =
  let view = Term_view.create g in
  let t = Term_view.term_of view root in
  match Matcher.matches ~interp:(Term_view.interp view) pattern t with
  | Outcome.Matched (theta, phi) -> (view, theta, phi)
  | o -> Alcotest.failf "expected a match, got %s" (Outcome.to_string o)

let test_instantiate_rvar () =
  let g, x, _, _, r = epilog_site () in
  let pattern = P.app Std_ops.relu [ P.app Std_ops.matmul [ P.var "x"; P.var "w" ] ] in
  let view, theta, phi = match_at g r pattern in
  match Rule.instantiate g view theta phi (Rule.Rvar "x") with
  | Ok n -> checki "resolves to the matched node" x.Graph.id n.Graph.id
  | Error e -> Alcotest.fail e

let test_instantiate_rapp () =
  let g, _, _, _, r = epilog_site () in
  let pattern = P.app Std_ops.relu [ P.app Std_ops.matmul [ P.var "x"; P.var "w" ] ] in
  let view, theta, phi = match_at g r pattern in
  match
    Rule.instantiate g view theta phi
      (Rule.Rapp (Std_ops.gemm_epilog_relu, [ Rule.Rvar "x"; Rule.Rvar "w" ]))
  with
  | Ok n ->
      Alcotest.(check string) "op" Std_ops.gemm_epilog_relu n.Graph.op;
      Alcotest.(check string)
        "typed like the matmul" "f32[2x5]"
        (match n.Graph.ty with Some ty -> Ty.to_string ty | None -> "opaque")
  | Error e -> Alcotest.fail e

let test_instantiate_rfapp () =
  let g, _, _, _, r = epilog_site () in
  let pattern = P.fapp "F" [ P.app Std_ops.matmul [ P.var "x"; P.var "w" ] ] in
  let view, theta, phi = match_at g r pattern in
  match Rule.instantiate g view theta phi (Rule.Rfapp ("F", [ Rule.Rvar "x" ])) with
  | Ok n -> Alcotest.(check string) "phi(F) applied" Std_ops.relu n.Graph.op
  | Error e -> Alcotest.fail e

let test_instantiate_rlit () =
  let g, _, _, _, r = epilog_site () in
  let pattern = P.var "root" in
  let view, theta, phi = match_at g r pattern in
  match Rule.instantiate g view theta phi (Rule.Rlit 3.0) with
  | Ok n ->
      Alcotest.(check (option (float 1e-9))) "constant" (Some 3.0)
        (Graph.constant_value n)
  | Error e -> Alcotest.fail e

let test_instantiate_unbound () =
  let g, _, _, _, r = epilog_site () in
  let pattern = P.var "root" in
  let view, theta, phi = match_at g r pattern in
  match Rule.instantiate g view theta phi (Rule.Rvar "nope") with
  | Ok _ -> Alcotest.fail "unbound variable accepted"
  | Error _ -> ()

let test_instantiate_copy_attrs () =
  let _, g = fresh_graph () in
  let x = Graph.input g ~name:"x" (f32 [ 1; 3; 16; 16 ]) in
  let w = Graph.input g ~name:"w" (f32 [ 8; 3; 3; 3 ]) in
  let b = Graph.input g ~name:"b" (f32 [ 8; 1; 1 ]) in
  let c =
    Graph.add g Std_ops.conv2d ~attrs:[ ("stride", 2); ("pad", 1) ] [ x; w; b ]
  in
  let r = Graph.add g Std_ops.relu [ c ] in
  Graph.set_outputs g [ r ];
  let entry = Corpus.conv_epilog in
  let view, theta, phi = match_at g r entry.Program.pattern in
  match
    Rule.instantiate g view theta phi
      (Rule.Rcopy_attrs
         (Std_ops.conv_bias_relu, [ Rule.Rvar "x"; Rule.Rvar "w"; Rule.Rvar "b" ], "c"))
  with
  | Ok n ->
      Alcotest.(check (option int)) "stride copied" (Some 2)
        (List.assoc_opt "stride" n.Graph.attrs);
      Alcotest.(check string)
        "type recomputed with stride" "f32[1x8x8x8]"
        (match n.Graph.ty with Some ty -> Ty.to_string ty | None -> "opaque")
  | Error e -> Alcotest.fail e

let test_check_guard () =
  let g, _, _, _, r = epilog_site () in
  let pattern = P.app Std_ops.relu [ P.app Std_ops.matmul [ P.var "x"; P.var "w" ] ] in
  let view, theta, phi = match_at g r pattern in
  let mk guard = Rule.make ~guard ~name:"t" ~pattern:"p" (Rule.Rvar "x") in
  checkb "true guard" true (Rule.check_guard view theta phi (mk Guard.True));
  checkb "false guard" false (Rule.check_guard view theta phi (mk Guard.False));
  checkb "tensor guard" true
    (Rule.check_guard view theta phi
       (mk (Guard.Eq (Guard.Var_attr ("x", "rank"), Guard.Const 2))));
  checkb "unverifiable guard fails" false
    (Rule.check_guard view theta phi
       (mk (Guard.Eq (Guard.Var_attr ("zzz", "rank"), Guard.Const 2))))

let test_rhs_vars () =
  let vars, fvars =
    Rule.rhs_vars
      (Rule.Rfapp ("F", [ Rule.Rcopy_attrs ("Op", [ Rule.Rvar "x" ], "c") ]))
  in
  checkb "x" true (Symbol.Set.mem "x" vars);
  checkb "c" true (Symbol.Set.mem "c" vars);
  checkb "F" true (Symbol.Set.mem "F" fvars)

(* ------------------------------------------------------------------ *)
(* The pass                                                            *)
(* ------------------------------------------------------------------ *)

let test_pass_rewrites_to_fixpoint () =
  let env, g = fresh_graph () in
  let x = Graph.input g ~name:"x" (f32 [ 4 ]) in
  (* relu(relu(relu(x))): the ReluChain rule collapses it to relu(x) *)
  let r =
    Graph.add g Std_ops.relu
      [ Graph.add g Std_ops.relu [ Graph.add g Std_ops.relu [ x ] ] ]
  in
  Graph.set_outputs g [ r ];
  let prog = Program.make ~sg:env.Std_ops.sg [ Corpus.relu_chain ] in
  let stats = Pass.run_cfg prog g in
  checkb "fixpoint" true stats.Pass.reached_fixpoint;
  checki "one relu left" 1 (Graph.count_op g Std_ops.relu);
  checkb "at least one rewrite" true (stats.Pass.total_rewrites >= 1);
  Alcotest.(check (list string)) "valid" [] (Graph.validate g)

let test_pass_first_rule_fires () =
  (* two rules on the same pattern; the first with a passing guard wins *)
  let env, g = fresh_graph () in
  let x = Graph.input g ~name:"x" (f32 [ 2; 3 ]) in
  let w = Graph.input g ~name:"w" (f32 [ 5; 3 ]) in
  let mm = Graph.add g Std_ops.matmul [ x; Graph.add g Std_ops.trans [ w ] ] in
  Graph.set_outputs g [ mm ];
  (* f32 inputs: the f32 rule (first) must fire, not the i8 rule *)
  let prog = Program.make ~sg:env.Std_ops.sg [ Corpus.mmxyt ] in
  let stats = Pass.run_cfg prog g in
  checki "one rewrite" 1 stats.Pass.total_rewrites;
  checki "f32 kernel" 1 (Graph.count_op g Std_ops.cublas_mm_xyt_f32);
  checki "no i8 kernel" 0 (Graph.count_op g Std_ops.cublas_mm_xyt_i8)

let test_pass_rule_guards_gate () =
  (* i16-ish unsupported dtype: pattern matches but neither rule fires *)
  let env, g = fresh_graph () in
  let x = Graph.input g ~name:"x" (Ty.make Dtype.F64 [ 2; 3 ]) in
  let w = Graph.input g ~name:"w" (Ty.make Dtype.F64 [ 5; 3 ]) in
  let mm = Graph.add g Std_ops.matmul [ x; Graph.add g Std_ops.trans [ w ] ] in
  Graph.set_outputs g [ mm ];
  let prog = Program.make ~sg:env.Std_ops.sg [ Corpus.mmxyt ] in
  let stats = Pass.run_cfg prog g in
  checki "no rewrites" 0 stats.Pass.total_rewrites;
  let ps = Option.get (Pass.find_pattern_stats stats "MMxyT") in
  checkb "pattern matched anyway" true (ps.Pass.matches >= 1)

let test_pass_identity_rhs () =
  (* Trans(Trans(x)) -> x: replacement is an existing node *)
  let env, g = fresh_graph () in
  let x = Graph.input g ~name:"x" (f32 [ 2; 3 ]) in
  let tt = Graph.add g Std_ops.trans [ Graph.add g Std_ops.trans [ x ] ] in
  let r = Graph.add g Std_ops.relu [ tt ] in
  Graph.set_outputs g [ r ];
  let prog = Program.make ~sg:env.Std_ops.sg [ Corpus.trans_trans ] in
  let stats = Pass.run_cfg prog g in
  checki "one rewrite" 1 stats.Pass.total_rewrites;
  checki "no transposes left" 0 (Graph.count_op g Std_ops.trans);
  checkb "relu reads x" true
    (List.exists (fun i -> i.Graph.id = x.Graph.id) r.Graph.inputs)

let test_pass_divergence_backstop () =
  (* a deliberately silly rule: relu(x) -> relu(relu(x)) grows forever;
     the max_rewrites backstop must stop it *)
  let env, g = fresh_graph () in
  let x = Graph.input g ~name:"x" (f32 [ 4 ]) in
  let r = Graph.add g Std_ops.relu [ x ] in
  Graph.set_outputs g [ r ];
  let entry =
    {
      Program.pname = "grow";
      pattern = P.app Std_ops.relu [ P.var "x" ];
      rules =
        [
          Rule.make ~name:"grow" ~pattern:"grow"
            (Rule.Rapp (Std_ops.relu, [ Rule.Rapp (Std_ops.relu, [ Rule.Rvar "x" ]) ]));
        ];
    }
  in
  let prog = Program.make ~sg:env.Std_ops.sg [ entry ] in
  let stats =
    Pass.run_cfg
      ~config:{ Pass.Config.default with Pass.Config.max_rewrites = 25 }
      prog
      g
  in
  checkb "did not reach fixpoint" false stats.Pass.reached_fixpoint;
  checki "stopped at the backstop" 25 stats.Pass.total_rewrites

let test_match_only_counts_without_rewriting () =
  let env, g = fresh_graph () in
  let x = Graph.input g ~name:"x" (f32 [ 4 ]) in
  let r = Graph.add g Std_ops.relu [ Graph.add g Std_ops.relu [ x ] ] in
  Graph.set_outputs g [ r ];
  let before = Graph.live_count g in
  let prog = Program.make ~sg:env.Std_ops.sg [ Corpus.relu_chain ] in
  let stats = Pass.match_only_cfg prog g in
  checki "graph untouched" before (Graph.live_count g);
  checki "no rewrites" 0 stats.Pass.total_rewrites;
  let ps = Option.get (Pass.find_pattern_stats stats "ReluChain") in
  checki "one match" 1 ps.Pass.matches

let test_matches_of () =
  let env, g = fresh_graph () in
  let x = Graph.input g ~name:"x" (f32 [ 4 ]) in
  let r1 = Graph.add g Std_ops.relu [ x ] in
  let r2 = Graph.add g Std_ops.relu [ r1 ] in
  let r3 = Graph.add g Std_ops.relu [ r2 ] in
  Graph.set_outputs g [ r3 ];
  let prog = Program.make ~sg:env.Std_ops.sg [ Corpus.relu_chain ] in
  match Pass.matches_of prog g with
  | [ ("ReluChain", hits) ] ->
      (* matches at relu(relu(..)) roots: r2 and r3 *)
      Alcotest.(check (list int))
        "hit roots"
        [ r2.Graph.id; r3.Graph.id ]
        (List.map (fun (id, _, _) -> id) hits)
  | _ -> Alcotest.fail "unexpected result shape"

let test_program_restrict_and_check () =
  let env, _ = fresh_graph () in
  let prog = Corpus.both_program env.Std_ops.sg in
  let restricted = Program.restrict prog [ "MHA" ] in
  Alcotest.(check (list string)) "restricted" [ "MHA" ]
    (Program.pattern_names restricted);
  Alcotest.(check int) "full program is clean" 0
    (List.length (Program.check prog));
  (* a rule using a variable the pattern does not bind is flagged *)
  let bad =
    {
      Program.pname = "bad";
      pattern = P.var "x";
      rules = [ Rule.make ~name:"bad" ~pattern:"bad" (Rule.Rvar "zzz") ];
    }
  in
  let diags = Program.check (Program.make ~sg:env.Std_ops.sg [ bad ]) in
  checkb "unbound rule var flagged" true (List.length diags >= 1)

let test_indexed_pass_equivalent () =
  (* the indexed pass must compute the same rewrites while skipping work *)
  let build () =
    let env = Std_ops.make () in
    let cfg = Transformer.config "t" ~layers:2 ~hidden:64 ~seq:16 in
    (env, Transformer.build env cfg)
  in
  let env1, g1 = build () in
  let s1 = Pass.run_cfg (Corpus.both_program env1.Std_ops.sg) g1 in
  let env2, g2 = build () in
  let s2 =
    Pass.run_cfg
      ~config:{ Pass.Config.default with Pass.Config.engine = Some Pass.Index }
      (Corpus.both_program env2.Std_ops.sg)
      g2
  in
  checki "same rewrites" s1.Pass.total_rewrites s2.Pass.total_rewrites;
  checki "same final size" (Graph.live_count g1) (Graph.live_count g2);
  let skipped stats =
    List.fold_left (fun acc ps -> acc + ps.Pass.skipped) 0 stats.Pass.per_pattern
  in
  checki "naive pass skips nothing" 0 (skipped s1);
  checkb "indexed pass skips plenty" true (skipped s2 > 100);
  checkb "indexed attempts strictly fewer" true
    (List.fold_left (fun a ps -> a + ps.Pass.attempts) 0 s2.Pass.per_pattern
    < List.fold_left (fun a ps -> a + ps.Pass.attempts) 0 s1.Pass.per_pattern)

(* ------------------------------------------------------------------ *)
(* Directed graph partitioning (figure 14 / section 4.2)               *)
(* ------------------------------------------------------------------ *)

(* gelu(relu(matmul(a, b))) with an extra consumer of the matmul's input *)
let partition_site () =
  let e = Std_ops.make () in
  let g = Graph.create ~sg:e.Std_ops.sg ~infer:e.Std_ops.infer () in
  let a = Graph.input g ~name:"a" (f32 [ 2; 3 ]) in
  let b = Graph.input g ~name:"b" (f32 [ 3; 5 ]) in
  let mm = Graph.add g Std_ops.matmul [ a; b ] in
  let r = Graph.add g Std_ops.relu [ mm ] in
  let ge = Graph.add g Std_ops.gelu [ r ] in
  Graph.set_outputs g [ ge ];
  (e, g, a, b, mm, r, ge)

let fig14_program sg =
  Program.make ~sg [ Corpus.matmul_epilog_chain ]

let test_partition_finds_region () =
  let e, g, a, b, mm, r, ge = partition_site () in
  let prog = fig14_program e.Std_ops.sg in
  match Partition.find prog g with
  | [ region ] ->
      Alcotest.(check string) "pattern" "MatMulEpilog" region.Partition.pattern_name;
      checki "root is the chain top" ge.Graph.id region.Partition.root.Graph.id;
      let ids = List.map (fun n -> n.Graph.id) region.Partition.interior in
      checkb "contains gelu" true (List.mem ge.Graph.id ids);
      checkb "contains relu" true (List.mem r.Graph.id ids);
      checkb "contains matmul" true (List.mem mm.Graph.id ids);
      let input_ids = List.map (fun n -> n.Graph.id) region.Partition.inputs in
      checkb "a is an input" true (List.mem a.Graph.id input_ids);
      checkb "b is an input" true (List.mem b.Graph.id input_ids)
  | rs -> Alcotest.failf "expected one region, got %d" (List.length rs)

let test_partition_fuse () =
  let e, g, _, _, _, _, _ = partition_site () in
  let prog = fig14_program e.Std_ops.sg in
  let fused = Partition.fuse_all prog g in
  checki "one fused node" 1 (List.length fused);
  checki "fused count" 1 (Graph.count_class g "fused");
  checki "graph shrank to inputs + fused" 3 (Graph.live_count g);
  Alcotest.(check (list string)) "valid" [] (Graph.validate g);
  match fused with
  | [ n ] ->
      Alcotest.(check (option int)) "interior size recorded" (Some 3)
        (List.assoc_opt "fused_ops" n.Graph.attrs)
  | _ -> assert false

let test_partition_regions_disjoint () =
  (* two chains over two separate matmuls: two disjoint regions *)
  let e = Std_ops.make () in
  let g = Graph.create ~sg:e.Std_ops.sg ~infer:e.Std_ops.infer () in
  let a = Graph.input g ~name:"a" (f32 [ 2; 3 ]) in
  let b = Graph.input g ~name:"b" (f32 [ 3; 5 ]) in
  let m1 = Graph.add g Std_ops.matmul [ a; b ] in
  let c1 = Graph.add g Std_ops.relu [ m1 ] in
  let m2 = Graph.add g Std_ops.matmul [ a; b ] in
  let c2 = Graph.add g Std_ops.gelu [ m2 ] in
  let top = Graph.add g Std_ops.add [ c1; c2 ] in
  Graph.set_outputs g [ top ];
  let prog = fig14_program e.Std_ops.sg in
  let regions = Partition.find prog g in
  checki "two regions" 2 (List.length regions);
  let all_interior =
    List.concat_map
      (fun r -> List.map (fun n -> n.Graph.id) r.Partition.interior)
      regions
  in
  checki "disjoint"
    (List.length all_interior)
    (List.length (List.sort_uniq compare all_interior))

(* the extended pattern links through bias adds and scales and accepts a
   convolution leaf *)
let test_partition_extended_epilog () =
  let e = Std_ops.make () in
  let g = Graph.create ~sg:e.Std_ops.sg ~infer:e.Std_ops.infer () in
  let x = Graph.input g ~name:"x" (f32 [ 2; 16 ]) in
  let w = Graph.input g ~name:"w" (f32 [ 16; 8 ]) in
  let b = Graph.input g ~name:"b" (f32 [ 8 ]) in
  let pre = Graph.add g Std_ops.add [ Graph.add g Std_ops.matmul [ x; w ]; b ] in
  let scaled = Graph.add g Std_ops.mul [ pre; Graph.constant g 0.5 ] in
  let out = Graph.add g Std_ops.relu [ scaled ] in
  Graph.set_outputs g [ out ];
  let prog = Corpus.partition_program e.Std_ops.sg in
  match Partition.find prog g with
  | [ region ] ->
      Alcotest.(check string) "extended pattern won" "EpilogPartition"
        region.Partition.pattern_name;
      (* matmul + add + mul + relu + the interned 0.5 constant *)
      checki "interior spans the bias and scale" 5
        (List.length region.Partition.interior);
      (* x, w and the bias are graph leaves, hence region inputs *)
      checki "inputs" 3 (List.length region.Partition.inputs)
  | rs -> Alcotest.failf "expected one region, got %d" (List.length rs)

let test_extract_region () =
  let e, g, _, _, mm, r, ge = partition_site () in
  let prog = fig14_program e.Std_ops.sg in
  match Partition.find prog g with
  | [ region ] ->
      let sub, root = Partition.extract_region g region in
      Alcotest.(check (list string)) "standalone graph valid" []
        (Graph.validate sub);
      checki "two inputs + three interior" 5 (Graph.live_count sub);
      (* the copied root reproduces the chain shape *)
      Alcotest.(check string) "root op" ge.Graph.op root.Graph.op;
      checki "one matmul inside" 1 (Graph.count_op sub Std_ops.matmul);
      (* same output type as the original root *)
      (match (root.Graph.ty, ge.Graph.ty) with
      | Some a, Some b -> checkb "type preserved" true (Ty.equal a b)
      | _ -> Alcotest.fail "untyped");
      ignore (mm, r)
  | rs -> Alcotest.failf "expected one region, got %d" (List.length rs)

let test_compile_region_recursively () =
  (* the paper's 4.2 story: hand the region to a compiler that can build
     the fused kernel — here, the epilog rewrite program *)
  let e = Std_ops.make () in
  let g = Graph.create ~sg:e.Std_ops.sg ~infer:e.Std_ops.infer () in
  let f32 s = Ty.make Dtype.F32 s in
  let x = Graph.input g ~name:"x" (f32 [ 2; 16 ]) in
  let w = Graph.input g ~name:"w" (f32 [ 16; 8 ]) in
  let out = Graph.add g Std_ops.relu [ Graph.add g Std_ops.matmul [ x; w ] ] in
  Graph.set_outputs g [ out ];
  let prog = Corpus.partition_program e.Std_ops.sg in
  match Partition.find prog g with
  | [ region ] ->
      let compiled =
        Partition.compile_region
          ~compile:(fun sub ->
            ignore (Pass.run_cfg (Corpus.epilog_program e.Std_ops.sg) sub))
          g region
      in
      (* the recursive compile fused the extracted subgraph *)
      checki "fused kernel inside the region compile" 1
        (Graph.count_op compiled Std_ops.gemm_epilog_relu);
      Alcotest.(check (list string)) "compiled region valid" []
        (Graph.validate compiled)
  | rs -> Alcotest.failf "expected one region, got %d" (List.length rs)

let () =
  Alcotest.run "engine"
    [
      ( "rule",
        [
          Alcotest.test_case "Rvar" `Quick test_instantiate_rvar;
          Alcotest.test_case "Rapp" `Quick test_instantiate_rapp;
          Alcotest.test_case "Rfapp" `Quick test_instantiate_rfapp;
          Alcotest.test_case "Rlit" `Quick test_instantiate_rlit;
          Alcotest.test_case "unbound" `Quick test_instantiate_unbound;
          Alcotest.test_case "Rcopy_attrs" `Quick test_instantiate_copy_attrs;
          Alcotest.test_case "guards" `Quick test_check_guard;
          Alcotest.test_case "rhs_vars" `Quick test_rhs_vars;
        ] );
      ( "pass",
        [
          Alcotest.test_case "rewrites to fixpoint" `Quick
            test_pass_rewrites_to_fixpoint;
          Alcotest.test_case "first rule fires" `Quick
            test_pass_first_rule_fires;
          Alcotest.test_case "rule guards gate" `Quick
            test_pass_rule_guards_gate;
          Alcotest.test_case "identity replacement" `Quick
            test_pass_identity_rhs;
          Alcotest.test_case "divergence backstop" `Quick
            test_pass_divergence_backstop;
          Alcotest.test_case "match_only" `Quick
            test_match_only_counts_without_rewriting;
          Alcotest.test_case "matches_of" `Quick test_matches_of;
          Alcotest.test_case "restrict and check" `Quick
            test_program_restrict_and_check;
          Alcotest.test_case "indexed pass equivalent" `Quick
            test_indexed_pass_equivalent;
        ] );
      ( "partition",
        [
          Alcotest.test_case "finds the region" `Quick
            test_partition_finds_region;
          Alcotest.test_case "fuses it" `Quick test_partition_fuse;
          Alcotest.test_case "regions are disjoint" `Quick
            test_partition_regions_disjoint;
          Alcotest.test_case "extended epilog chain" `Quick
            test_partition_extended_epilog;
          Alcotest.test_case "extract region" `Quick test_extract_region;
          Alcotest.test_case "recursive region compile" `Quick
            test_compile_region_recursively;
        ] );
    ]
