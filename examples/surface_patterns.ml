(* The full frontend/backend toolchain of section 2.4: parse a textual
   pattern file, elaborate it to the core calculus, serialize it to a
   portable pattern binary, reload the binary into a fresh "backend", and
   run the rewrite pass.

     dune exec examples/surface_patterns.exe *)

open Pypm

let pattern_file = "examples/patterns.pypm"

let () =
  (* frontend: parse + elaborate + serialize *)
  let front_env = Std_ops.make () in
  let program =
    match Surface.load_file ~sg:front_env.Std_ops.sg pattern_file with
    | Ok p -> p
    | Error e ->
        Format.eprintf "%a@." Surface.pp_error e;
        exit 1
  in
  Format.printf "== elaborated from %s ==@.%a@." pattern_file Program.pp
    program;
  let binary = Codec.encode program in
  Printf.printf "serialized pattern binary: %d bytes\n\n" (String.length binary);

  (* backend: load the binary into a fresh environment and rewrite *)
  let env = Std_ops.make () in
  let program =
    match Codec.decode_into ~sg:env.Std_ops.sg binary with
    | Ok p -> p
    | Error e ->
        prerr_endline e;
        exit 1
  in
  let g = Graph.create ~sg:env.Std_ops.sg ~infer:env.Std_ops.infer () in
  let f32 s = Ty.make Dtype.F32 s in
  let x = Graph.input g ~name:"x" (f32 [ 64; 32 ]) in
  let w = Graph.input g ~name:"w" (f32 [ 96; 32 ]) in
  (* Relu(Relu(Relu(MatMul(Trans(Trans(x)), Trans(w))))): all three
     patterns in the file have work to do *)
  let tt = Graph.add g Std_ops.trans [ Graph.add g Std_ops.trans [ x ] ] in
  let mm = Graph.add g Std_ops.matmul [ tt; Graph.add g Std_ops.trans [ w ] ] in
  let rec relus n acc =
    if n = 0 then acc else relus (n - 1) (Graph.add g Std_ops.relu [ acc ])
  in
  Graph.set_outputs g [ relus 3 mm ];
  Format.printf "== before ==@.%a@.@." Graph.pp g;
  let stats = Pass.run_cfg program g in
  Format.printf "== after ==@.%a@.@." Graph.pp g;
  Format.printf "%a@." Pass.pp_stats stats
