(* Quickstart: define operators, a pattern and a rule with the combinator
   DSL, build a small computation graph, and run the rewrite pass.

     dune exec examples/quickstart.exe

   This is figure 1 of the paper end to end: MatMul(x, Trans(y)) over
   rank-2 f32 tensors is rewritten to the fused cuBLAS xyT kernel. *)

open Pypm

let () =
  (* 1. Operators: the analogue of the @op declarations. The standard
     vocabulary already declares MatMul, Trans and the cuBLAS kernels. *)
  let env = Std_ops.make () in

  (* 2. A pattern and its rule, via the embedded DSL (@pattern / @rule). *)
  let session = Dsl.create () in
  Dsl.pattern session "MMxyT" ~params:[ "x"; "y" ] (fun b ->
      Dsl.assert_ b Dsl.(attr "x" "shape.rank" ==. i 2);
      Dsl.assert_ b Dsl.(attr "y" "shape.rank" ==. i 2);
      let yt = Dsl.app "Trans" [ Dsl.v "y" ] in
      Dsl.app "MatMul" [ Dsl.v "x"; yt ]);
  Dsl.rule session "cublasrule" ~for_:"MMxyT" ~params:[ "x"; "y" ]
    [
      ( Some Dsl.(attr "x" "eltType" ==. dtype "f32" &&. (attr "y" "eltType" ==. dtype "f32")),
        Dsl.app "cublasMM_xyT_f32" [ Dsl.v "x"; Dsl.v "y" ] );
      ( Some Dsl.(attr "x" "eltType" ==. dtype "i8" &&. (attr "y" "eltType" ==. dtype "i8")),
        Dsl.app "cublasMM_xyT_i8" [ Dsl.v "x"; Dsl.v "y" ] );
    ];
  let program =
    match Dsl.program session ~sg:env.Std_ops.sg with
    | Ok p -> p
    | Error errs ->
        List.iter (Format.eprintf "%a@." Elaborate.pp_error) errs;
        exit 1
  in
  Format.printf "== elaborated program ==@.%a@." Program.pp program;

  (* 3. A computation graph containing the pattern's shape. *)
  let g = Graph.create ~sg:env.Std_ops.sg ~infer:env.Std_ops.infer () in
  let f32 s = Ty.make Dtype.F32 s in
  let x = Graph.input g ~name:"x" (f32 [ 128; 256 ]) in
  let w = Graph.input g ~name:"w" (f32 [ 512; 256 ]) in
  let mm = Graph.add g Std_ops.matmul [ x; Graph.add g Std_ops.trans [ w ] ] in
  Graph.set_outputs g [ Graph.add g Std_ops.relu [ mm ] ];
  Format.printf "== before ==@.%a@.@." Graph.pp g;

  (* 4. Run the greedy rewrite pass to fixpoint. *)
  let before = Exec.graph_cost Cost.a6000 g in
  let stats = Pass.run_cfg program g in
  let after = Exec.graph_cost Cost.a6000 g in
  Format.printf "== after ==@.%a@.@." Graph.pp g;
  Format.printf "%a@." Pass.pp_stats stats;
  Printf.printf "simulated inference: %.4f ms -> %.4f ms (%.2fx)\n"
    (before *. 1e3) (after *. 1e3)
    (Exec.speedup ~baseline:before ~optimized:after)
