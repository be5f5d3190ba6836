(* Multi-head attention fusion (section 4.1): recognize the
   softmax(alpha Q K^T) V subgraph that AI frontends emit for attention and
   replace it with the fused FMHA kernel; then fuse the MLP epilogs too.
   Prints a per-configuration cost table like the paper's evaluation.

     dune exec examples/mha_fusion.exe *)

open Pypm

let device = Cost.a6000

let compile model_name config_name program_of =
  match Zoo.find model_name with
  | None -> failwith ("unknown model " ^ model_name)
  | Some m ->
      let env, g = m.Zoo.build () in
      let baseline = Exec.graph_cost device g in
      let stats = Pass.run_cfg (program_of env.Std_ops.sg) g in
      let cost = Exec.graph_cost device g in
      let totals = Exec.totals device g in
      Printf.printf "  %-10s %8.4f ms  speedup %5.3fx  %4.0f launches  %3d rewrites\n"
        config_name (cost *. 1e3)
        (Exec.speedup ~baseline ~optimized:cost)
        totals.Exec.launches stats.Pass.total_rewrites

let () =
  List.iter
    (fun model ->
      Printf.printf "%s:\n" model;
      compile model "baseline" (fun sg -> Program.make ~sg []);
      compile model "fmha" Corpus.fmha_program;
      compile model "epilog" Corpus.epilog_program;
      compile model "both" Corpus.both_program;
      print_newline ())
    [ "bert-tiny"; "bert-base"; "gpt2-small"; "relu-former-m" ];
  (* peek at what the FMHA rewrite does to one attention block *)
  let m = Option.get (Zoo.find "pico") in
  let env, g = m.Zoo.build () in
  Format.printf "pico before:@.%a@.@." Graph.pp g;
  ignore (Pass.run_cfg (Corpus.both_program env.Std_ops.sg) g);
  Format.printf "pico after:@.%a@." Graph.pp g
