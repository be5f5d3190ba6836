(* Tests for the synthetic model zoo: determinism, structural validity,
   expected pattern-site counts, and end-to-end optimization. *)

open Pypm

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* RNG                                                                 *)
(* ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  let seq r = List.init 20 (fun _ -> Rng.int r 1000) in
  Alcotest.(check (list int)) "same seed same stream" (seq a) (seq b);
  let c = Rng.create ~seed:43 in
  checkb "different seed differs" true (seq (Rng.create ~seed:42) <> seq c)

let test_rng_bounds () =
  let r = Rng.create ~seed:7 in
  for _ = 1 to 1000 do
    let v = Rng.int r 10 in
    checkb "in range" true (v >= 0 && v < 10)
  done;
  for _ = 1 to 100 do
    let v = Rng.range r 3 5 in
    checkb "range inclusive" true (v >= 3 && v <= 5)
  done

let test_rng_pick () =
  let r = Rng.create ~seed:9 in
  for _ = 1 to 50 do
    checkb "picks member" true (List.mem (Rng.pick r [ 1; 2; 3 ]) [ 1; 2; 3 ])
  done

(* ------------------------------------------------------------------ *)
(* Transformers                                                        *)
(* ------------------------------------------------------------------ *)

let build_tf cfg =
  let env = Std_ops.make () in
  (env, Transformer.build env cfg)

let test_transformer_valid () =
  let cfg = Transformer.config "t" ~layers:3 ~hidden:64 ~seq:16 ~batch:2 in
  let _, g = build_tf cfg in
  Alcotest.(check (list string)) "valid" [] (Graph.validate g);
  checki "one output" 1 (List.length (Graph.outputs g));
  checkb "every node typed" true
    (List.for_all (fun n -> n.Graph.ty <> None) (Graph.live_nodes g))

let test_transformer_output_shape () =
  let cfg =
    Transformer.config "t" ~layers:1 ~hidden:64 ~seq:16 ~batch:2 ~vocab:100
  in
  let _, g = build_tf cfg in
  match (List.hd (Graph.outputs g)).Graph.ty with
  | Some ty -> Alcotest.(check string) "logits" "f32[2x16x100]" (Ty.to_string ty)
  | None -> Alcotest.fail "untyped output"

let test_transformer_mha_sites () =
  List.iter
    (fun layers ->
      let cfg = Transformer.config "t" ~layers ~hidden:64 ~seq:16 in
      let env, g = build_tf cfg in
      let stats = Pass.match_only_cfg (Corpus.fmha_program env.Std_ops.sg) g in
      let ps = Option.get (Pass.find_pattern_stats stats "MHA") in
      checki
        (Printf.sprintf "%d layers -> %d MHA sites" layers layers)
        (Transformer.expected_mha_sites cfg)
        ps.Pass.matches)
    [ 1; 2; 5 ]

let test_transformer_gelu_variants_differ () =
  let mk act seed =
    let cfg =
      Transformer.config "t" ~layers:1 ~hidden:64 ~seq:16 ~activation:act ~seed
    in
    build_tf cfg
  in
  let _, g_div = mk (Transformer.Act_gelu Transformer.Div_two) 3 in
  let _, g_mul = mk (Transformer.Act_gelu Transformer.Mul_half) 3 in
  checki "div spelling uses Div" 2 (Graph.count_op g_div Std_ops.div);
  (* Mul_half spelling: one less Div (only the erf argument), extra Mul *)
  checki "mul spelling uses one Div" 1 (Graph.count_op g_mul Std_ops.div);
  (* both fuse to exactly one Gelu per layer *)
  List.iter
    (fun (env, g) ->
      ignore (Pass.run_cfg (Corpus.epilog_program env.Std_ops.sg) g);
      checki "one gelu epilog fused" 1
        (Graph.count_op g Std_ops.gemm_bias_epilog_gelu))
    [ mk (Transformer.Act_gelu Transformer.Div_two) 5;
      mk (Transformer.Act_gelu Transformer.Mul_half) 5 ]

let test_transformer_relu_models () =
  let cfg =
    Transformer.config "t" ~layers:2 ~hidden:64 ~seq:16
      ~activation:Transformer.Act_relu
  in
  let env, g = build_tf cfg in
  ignore (Pass.run_cfg (Corpus.epilog_program env.Std_ops.sg) g);
  checki "relu epilogs fused" 2 (Graph.count_op g Std_ops.gemm_bias_epilog_relu);
  checki "no gelu epilogs" 0 (Graph.count_op g Std_ops.gemm_bias_epilog_gelu)

let test_transformer_deterministic () =
  let cfg = Transformer.config "t" ~layers:2 ~hidden:64 ~seq:16 ~seed:17 in
  let _, g1 = build_tf cfg in
  let _, g2 = build_tf cfg in
  checki "same node count" (Graph.live_count g1) (Graph.live_count g2);
  let ops g = List.map (fun n -> n.Graph.op) (Graph.live_nodes g) in
  (* input symbols are freshened per graph; compare op name prefixes *)
  let strip s = match String.index_opt s '%' with
    | Some i -> String.sub s 0 i
    | None -> s
  in
  Alcotest.(check (list string))
    "same op sequence"
    (List.map strip (ops g1))
    (List.map strip (ops g2))

(* ------------------------------------------------------------------ *)
(* Vision models                                                       *)
(* ------------------------------------------------------------------ *)

let build_v cfg =
  let env = Std_ops.make () in
  (env, Vision.build env cfg)

let test_vision_valid () =
  let cfg = Vision.config "v" ~stages:3 ~blocks_per_stage:2 ~residual:true in
  let _, g = build_v cfg in
  Alcotest.(check (list string)) "valid" [] (Graph.validate g);
  checkb "every node typed" true
    (List.for_all (fun n -> n.Graph.ty <> None) (Graph.live_nodes g))

let test_vision_output_shape () =
  let cfg = Vision.config "v" ~stages:2 ~blocks_per_stage:1 ~batch:2 ~classes:10 in
  let _, g = build_v cfg in
  match (List.hd (Graph.outputs g)).Graph.ty with
  | Some ty -> Alcotest.(check string) "logits" "f32[2x10]" (Ty.to_string ty)
  | None -> Alcotest.fail "untyped output"

let test_vision_conv_epilogs () =
  let cfg = Vision.config "v" ~stages:3 ~blocks_per_stage:2 in
  let env, g = build_v cfg in
  let stats = Pass.match_only_cfg (Corpus.epilog_program env.Std_ops.sg) g in
  let ps = Option.get (Pass.find_pattern_stats stats "ConvEpilog") in
  checki "expected conv epilog sites" (Vision.expected_conv_epilogs cfg)
    ps.Pass.matches

let test_vision_vgg_pools () =
  let cfg = Vision.config "v" ~stages:3 ~blocks_per_stage:1 ~residual:false in
  let _, g = build_v cfg in
  checki "one pool per downsampling stage" 2 (Graph.count_op g Std_ops.max_pool);
  let cfg_res = Vision.config "v" ~stages:3 ~blocks_per_stage:1 ~residual:true in
  let _, g2 = build_v cfg_res in
  checki "residual nets use strided convs" 0 (Graph.count_op g2 Std_ops.max_pool)

let test_vision_no_mha () =
  let cfg = Vision.config "v" in
  let env, g = build_v cfg in
  let stats = Pass.match_only_cfg (Corpus.fmha_program env.Std_ops.sg) g in
  let ps = Option.get (Pass.find_pattern_stats stats "MHA") in
  checki "no MHA sites in CNNs" 0 ps.Pass.matches

let test_vision_classifier_hidden_epilog () =
  let cfg =
    Vision.config "v" ~stages:1 ~blocks_per_stage:1
      ~classifier_hidden:(Some 64)
  in
  let env, g = build_v cfg in
  ignore (Pass.run_cfg (Corpus.epilog_program env.Std_ops.sg) g);
  checki "hidden FC fused" 1 (Graph.count_op g Std_ops.gemm_bias_epilog_relu)

(* ------------------------------------------------------------------ *)
(* Multimodal models                                                   *)
(* ------------------------------------------------------------------ *)

let test_multimodal_all_families_fire () =
  let env = Std_ops.make () in
  let cfg = Multimodal.config "clip-test" ~embed:64 ~image:32 ~text_layers:2 ~text_seq:16 in
  let g = Multimodal.build env cfg in
  Alcotest.(check (list string)) "valid" [] (Graph.validate g);
  (* all three optimization families have sites in one graph *)
  let full = Corpus.full_program env.Std_ops.sg in
  let before = Exec.graph_cost Cost.a6000 g in
  let stats = Pass.run_cfg full g in
  let after = Exec.graph_cost Cost.a6000 g in
  checkb "fmha fused" true (Graph.count_op g Std_ops.fmha >= 2);
  checkb "conv epilogs fused" true (Graph.count_op g Std_ops.conv_bias_relu >= 2);
  checkb "gelu epilogs fused" true
    (Graph.count_op g Std_ops.gemm_bias_epilog_gelu >= 2);
  checki "figure-1 similarity head fused" 1
    (Graph.count_op g Std_ops.cublas_mm_xyt_f32);
  checkb "rewrites" true (stats.Pass.total_rewrites >= 7);
  checkb "faster" true (after < before);
  Alcotest.(check (list string)) "still valid" [] (Graph.validate g)

(* ------------------------------------------------------------------ *)
(* Zoo                                                                 *)
(* ------------------------------------------------------------------ *)

let test_zoo_sizes () =
  checkb "hf >= 25 models" true (List.length (Zoo.hf ()) >= 25);
  checkb "tv >= 25 models" true (List.length (Zoo.tv ()) >= 25);
  checkb "mm >= 3 models" true (List.length (Zoo.mm ()) >= 3)

let test_zoo_names_unique () =
  let names = List.map (fun m -> m.Zoo.mname) (Zoo.all ()) in
  checki "unique" (List.length names) (List.length (List.sort_uniq compare names))

let test_zoo_find () =
  checkb "find hit" true (Zoo.find "bert-tiny" <> None);
  checkb "find miss" true (Zoo.find "nonexistent" = None)

let test_zoo_all_build_valid () =
  (* smoke-build the three smallest of each family *)
  List.iter
    (fun name ->
      match Zoo.find name with
      | Some m ->
          let _, g = m.Zoo.build () in
          Alcotest.(check (list string)) (name ^ " valid") [] (Graph.validate g)
      | None -> Alcotest.failf "missing zoo model %s" name)
    [ "pico"; "nano-relu"; "femto"; "conv-pico"; "conv-nano"; "conv-femto" ]

let test_zoo_end_to_end_speedup () =
  (* optimizing any transformer strictly reduces simulated cost *)
  let m = Option.get (Zoo.find "bert-tiny") in
  let env, g = m.Zoo.build () in
  let before = Exec.graph_cost Cost.a6000 g in
  ignore (Pass.run_cfg (Corpus.both_program env.Std_ops.sg) g);
  let after = Exec.graph_cost Cost.a6000 g in
  checkb "optimization helps" true (after < before)

let () =
  Alcotest.run "models"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "pick" `Quick test_rng_pick;
        ] );
      ( "transformer",
        [
          Alcotest.test_case "valid" `Quick test_transformer_valid;
          Alcotest.test_case "output shape" `Quick test_transformer_output_shape;
          Alcotest.test_case "MHA sites" `Quick test_transformer_mha_sites;
          Alcotest.test_case "gelu variants" `Quick
            test_transformer_gelu_variants_differ;
          Alcotest.test_case "relu models" `Quick test_transformer_relu_models;
          Alcotest.test_case "deterministic" `Quick
            test_transformer_deterministic;
        ] );
      ( "vision",
        [
          Alcotest.test_case "valid" `Quick test_vision_valid;
          Alcotest.test_case "output shape" `Quick test_vision_output_shape;
          Alcotest.test_case "conv epilog sites" `Quick
            test_vision_conv_epilogs;
          Alcotest.test_case "VGG pooling" `Quick test_vision_vgg_pools;
          Alcotest.test_case "no MHA" `Quick test_vision_no_mha;
          Alcotest.test_case "classifier hidden epilog" `Quick
            test_vision_classifier_hidden_epilog;
        ] );
      ( "multimodal",
        [
          Alcotest.test_case "all families fire" `Quick
            test_multimodal_all_families_fire;
        ] );
      ( "zoo",
        [
          Alcotest.test_case "sizes" `Quick test_zoo_sizes;
          Alcotest.test_case "unique names" `Quick test_zoo_names_unique;
          Alcotest.test_case "find" `Quick test_zoo_find;
          Alcotest.test_case "small models build" `Quick
            test_zoo_all_build_valid;
          Alcotest.test_case "end-to-end speedup" `Quick
            test_zoo_end_to_end_speedup;
        ] );
    ]
