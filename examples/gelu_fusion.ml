(* The GELU story from section 2.1 of the paper: the same conceptual
   operation is spelled differently across models — Div(x, 2) in some
   HuggingFace transformers, Mul(x, 0.5) in others — and pattern
   alternates let one pattern cover both.

     dune exec examples/gelu_fusion.exe *)

open Pypm

let build_transformer variant seed =
  let env = Std_ops.make () in
  let cfg =
    Transformer.config "demo" ~layers:2 ~hidden:128 ~seq:64 ~batch:4
      ~activation:(Transformer.Act_gelu variant) ~seed
  in
  (env, Transformer.build env cfg)

let describe env g label =
  Printf.printf "%-28s %3d nodes, %d Div, %d Mul, %d Erf, %d Gelu\n" label
    (Graph.live_count g)
    (Graph.count_op g Std_ops.div)
    (Graph.count_op g Std_ops.mul)
    (Graph.count_op g Std_ops.erf)
    (Graph.count_op g Std_ops.gelu);
  ignore env

let run variant name =
  let env, g = build_transformer variant 42 in
  describe env g (name ^ " (before)");
  let before = Exec.graph_cost Cost.a6000 g in
  let stats = Pass.run_cfg (Corpus.epilog_program env.Std_ops.sg) g in
  let after = Exec.graph_cost Cost.a6000 g in
  describe env g (name ^ " (after)");
  let gelu_stats = Option.get (Pass.find_pattern_stats stats "Gelu") in
  Printf.printf
    "  GELU pattern: %d matches, %d rewrites; epilog fused %d; %.4f ms -> \
     %.4f ms (%.2fx)\n\n"
    gelu_stats.Pass.matches gelu_stats.Pass.rewrites
    (Graph.count_op g Std_ops.gemm_bias_epilog_gelu)
    (before *. 1e3) (after *. 1e3)
    (Exec.speedup ~baseline:before ~optimized:after)

let () =
  print_endline
    "Both GELU spellings found in the HuggingFace transformers (paper,";
  print_endline
    "section 2.1) are covered by one pattern with alternates:\n";
  run Transformer.Div_two "Div(x, 2) spelling";
  run Transformer.Mul_half "Mul(x, 0.5) spelling";
  (* show the pattern itself *)
  let entry = Corpus.gelu_fuse in
  Format.printf "the core pattern (alternates as ||):@.%a@."
    Pattern.pp entry.Program.pattern
