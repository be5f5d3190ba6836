(* End-to-end validation of the surface language at full scale: the entire
   evaluation corpus written in examples/corpus.pypm must reproduce the
   built-in OCaml corpus rewrite for rewrite on the model zoos. *)

open Pypm

let checki = Alcotest.(check int)

let corpus_path =
  (* tests run from the build sandbox; locate the source tree's copy *)
  let candidates =
    [
      "examples/corpus.pypm";
      "../examples/corpus.pypm";
      "../../examples/corpus.pypm";
      "../../../examples/corpus.pypm";
      Filename.concat (Sys.getenv_opt "DUNE_SOURCEROOT" |> Option.value ~default:".")
        "examples/corpus.pypm";
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> Alcotest.fail "cannot locate examples/corpus.pypm"

let load_surface_program env =
  match Surface.load_file ~sg:env.Std_ops.sg corpus_path with
  | Ok p -> p
  | Error e -> Alcotest.failf "corpus.pypm failed to load: %a" Surface.pp_error e

let fused_counts g =
  List.map
    (fun op -> (op, Graph.count_op g op))
    [
      Std_ops.fmha;
      Std_ops.gemm_bias_epilog_relu;
      Std_ops.gemm_bias_epilog_gelu;
      Std_ops.gemm_epilog_relu;
      Std_ops.gemm_epilog_gelu;
      Std_ops.conv_bias_relu;
      Std_ops.gelu;
    ]

let compare_on_model name =
  let m = Option.get (Zoo.find name) in
  (* built-in corpus *)
  let env1, g1 = m.Zoo.build () in
  let s1 = Pass.run_cfg (Corpus.both_program env1.Std_ops.sg) g1 in
  (* surface corpus *)
  let env2, g2 = m.Zoo.build () in
  let s2 = Pass.run_cfg (load_surface_program env2) g2 in
  checki (name ^ ": same number of rewrites") s1.Pass.total_rewrites
    s2.Pass.total_rewrites;
  List.iter2
    (fun (op, n1) (op2, n2) ->
      assert (String.equal op op2);
      checki (Printf.sprintf "%s: same %s count" name op) n1 n2)
    (fused_counts g1) (fused_counts g2);
  checki (name ^ ": same final size") (Graph.live_count g1) (Graph.live_count g2);
  Alcotest.(check (list string)) (name ^ ": valid") [] (Graph.validate g2)

let test_hf () = List.iter compare_on_model [ "bert-tiny"; "gpt2-nano"; "relu-former-s"; "femto" ]
let test_tv () = List.iter compare_on_model [ "conv-nano"; "resnet10-ish"; "vgg11-ish" ]
let test_mm () = List.iter compare_on_model [ "clip-pico"; "clip-small" ]

let test_roundtrips_through_binary () =
  (* surface corpus -> pattern binary -> reload -> same rewrites *)
  let m = Option.get (Zoo.find "bert-tiny") in
  let env, g = m.Zoo.build () in
  let bytes = Codec.encode (load_surface_program env) in
  let env2, g2 = m.Zoo.build () in
  let p =
    match Codec.decode_into ~sg:env2.Std_ops.sg bytes with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let s1 = Pass.run_cfg (load_surface_program env) g in
  let s2 = Pass.run_cfg p g2 in
  checki "same rewrites after the binary round trip" s1.Pass.total_rewrites
    s2.Pass.total_rewrites

let () =
  Alcotest.run "surface-corpus"
    [
      ( "equivalence",
        [
          Alcotest.test_case "transformer zoo" `Quick test_hf;
          Alcotest.test_case "vision zoo" `Quick test_tv;
          Alcotest.test_case "multimodal zoo" `Quick test_mm;
          Alcotest.test_case "binary round trip" `Quick
            test_roundtrips_through_binary;
        ] );
    ]
