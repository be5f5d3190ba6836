(* Tests for the pattern-binary codec: round trips (unit and property),
   header validation, and corruption detection. *)

open Pypm
module P = Pattern
module F = Pypm_testutil.Fixtures

let checkb = Alcotest.(check bool)

let program_equal (a : Program.t) (b : Program.t) =
  List.length a.Program.entries = List.length b.Program.entries
  && List.for_all2
       (fun (x : Program.entry) (y : Program.entry) ->
         String.equal x.Program.pname y.Program.pname
         && P.equal x.Program.pattern y.Program.pattern
         && List.length x.Program.rules = List.length y.Program.rules
         && List.for_all2
              (fun (r : Rule.t) (s : Rule.t) ->
                String.equal r.Rule.rule_name s.Rule.rule_name
                && String.equal r.Rule.pattern_name s.Rule.pattern_name
                && r.Rule.guard = s.Rule.guard
                && r.Rule.rhs = s.Rule.rhs)
              x.Program.rules y.Program.rules)
       a.Program.entries b.Program.entries

let roundtrip program =
  match Codec.decode (Codec.encode program) with
  | Ok p -> p
  | Error e -> Alcotest.failf "decode failed: %s" e

(* ------------------------------------------------------------------ *)
(* Unit round trips                                                    *)
(* ------------------------------------------------------------------ *)

let test_empty_program () =
  let sg = Signature.create () in
  let p = Program.make ~sg [] in
  checkb "empty round trip" true (program_equal p (roundtrip p))

let test_corpus_programs_roundtrip () =
  let env = Std_ops.make () in
  List.iter
    (fun p -> checkb "corpus round trip" true (program_equal p (roundtrip p)))
    [
      Corpus.fmha_program env.Std_ops.sg;
      Corpus.epilog_program env.Std_ops.sg;
      Corpus.both_program env.Std_ops.sg;
      Corpus.partition_program env.Std_ops.sg;
      Corpus.full_program env.Std_ops.sg;
      Program.make ~sg:env.Std_ops.sg [ Corpus.mmxyt_aligned ];
    ]

let test_signature_travels () =
  let env = Std_ops.make () in
  let p = Corpus.fmha_program env.Std_ops.sg in
  let decoded = roundtrip p in
  (* the decoded program reconstructs operator declarations *)
  checkb "MatMul decl" true (Signature.mem decoded.Program.sg Std_ops.matmul);
  Alcotest.(check (option int))
    "arity preserved" (Some 2)
    (Signature.arity decoded.Program.sg Std_ops.matmul);
  Alcotest.(check (option string))
    "class preserved" (Some "fused_kernel")
    (Signature.op_class decoded.Program.sg Std_ops.fmha)

let test_decoded_program_still_rewrites () =
  (* serialize, reload into a fresh environment, run the pass: the paper's
     actual deployment path (frontend serializes, DLCB loads) *)
  let env = Std_ops.make () in
  let bytes = Codec.encode (Corpus.both_program env.Std_ops.sg) in
  (* fresh backend environment *)
  let env2 = Std_ops.make () in
  let p =
    match Codec.decode_into ~sg:env2.Std_ops.sg bytes with
    | Ok p -> p
    | Error e -> Alcotest.failf "decode: %s" e
  in
  let cfg = Transformer.config "t" ~layers:2 ~hidden:64 ~seq:16 in
  let g = Transformer.build env2 cfg in
  let stats = Pass.run_cfg p g in
  checkb "rewrites fired from the deserialized program" true
    (stats.Pass.total_rewrites >= 4);
  Alcotest.(check int) "fmha nodes" 2 (Graph.count_op g Std_ops.fmha)

let test_file_roundtrip () =
  let env = Std_ops.make () in
  let p = Corpus.fmha_program env.Std_ops.sg in
  let path = Filename.temp_file "pypm" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Codec.to_file path p;
      match Codec.of_file path with
      | Ok q -> checkb "file round trip" true (program_equal p q)
      | Error e -> Alcotest.failf "of_file: %s" e)

(* ------------------------------------------------------------------ *)
(* Corruption detection                                                *)
(* ------------------------------------------------------------------ *)

let encoded () =
  let env = Std_ops.make () in
  Codec.encode (Corpus.fmha_program env.Std_ops.sg)

let expect_error name bytes =
  match Codec.decode bytes with
  | Ok _ -> Alcotest.failf "%s: corrupt input accepted" name
  | Error msg -> checkb (name ^ " mentions offset/cause") true (String.length msg > 0)

let test_bad_magic () =
  let b = Bytes.of_string (encoded ()) in
  Bytes.set b 0 'X';
  expect_error "magic" (Bytes.to_string b)

let test_flipped_payload_byte () =
  let s = encoded () in
  let b = Bytes.of_string s in
  let mid = String.length s - 3 in
  Bytes.set b mid (Char.chr (Char.code (Bytes.get b mid) lxor 0xff));
  expect_error "checksum" (Bytes.to_string b)

let test_truncated () =
  let s = encoded () in
  expect_error "truncated" (String.sub s 0 (String.length s / 2));
  expect_error "empty" "";
  expect_error "just magic" "PYPM"

let test_trailing_garbage () =
  expect_error "trailing" (encoded () ^ "extra")

(* ------------------------------------------------------------------ *)
(* Property: random patterns round trip                                *)
(* ------------------------------------------------------------------ *)

let prop_pattern_roundtrip =
  F.qtest ~count:500 "random patterns round trip" F.Gen.pattern P.to_string
    (fun pat ->
      let sg = Signature.create () in
      ignore (Signature.declare sg ~arity:2 "f");
      ignore (Signature.declare sg ~arity:1 "g");
      ignore (Signature.declare sg ~arity:3 "h");
      List.iter (fun c -> ignore (Signature.declare sg ~arity:0 c)) [ "a"; "b"; "c" ];
      let p =
        Program.make ~sg [ { Program.pname = "t"; pattern = pat; rules = [] } ]
      in
      match Codec.decode (Codec.encode p) with
      | Ok q -> (
          match q.Program.entries with
          | [ e ] -> P.equal e.Program.pattern pat
          | _ -> false)
      | Error _ -> false)

(* the encoder is deterministic: decode . encode is the identity up to
   re-encoding (byte-identical) *)
let prop_encode_canonical =
  F.qtest ~count:300 "encode . decode . encode is byte-stable" F.Gen.pattern
    P.to_string (fun pat ->
      let sg = Signature.create () in
      ignore (Signature.declare sg ~arity:2 "f");
      ignore (Signature.declare sg ~arity:1 "g");
      ignore (Signature.declare sg ~arity:3 "h");
      List.iter (fun c -> ignore (Signature.declare sg ~arity:0 c)) [ "a"; "b"; "c" ];
      let p =
        Program.make ~sg [ { Program.pname = "t"; pattern = pat; rules = [] } ]
      in
      let bytes = Codec.encode p in
      match Codec.decode bytes with
      | Ok q -> String.equal bytes (Codec.encode q)
      | Error _ -> false)

let prop_decode_never_raises =
  (* decoding arbitrary bytes returns Error, never raises *)
  F.qtest ~count:500 "decode is total"
    QCheck2.Gen.(string_size (int_range 0 64))
    (fun s -> Printf.sprintf "%S" s)
    (fun s ->
      match Codec.decode s with Ok _ -> true | Error _ -> true)

let () =
  Alcotest.run "codec"
    [
      ( "roundtrip",
        [
          Alcotest.test_case "empty program" `Quick test_empty_program;
          Alcotest.test_case "corpus programs" `Quick
            test_corpus_programs_roundtrip;
          Alcotest.test_case "signature travels" `Quick test_signature_travels;
          Alcotest.test_case "deserialized program rewrites" `Quick
            test_decoded_program_still_rewrites;
          Alcotest.test_case "file round trip" `Quick test_file_roundtrip;
        ] );
      ( "corruption",
        [
          Alcotest.test_case "bad magic" `Quick test_bad_magic;
          Alcotest.test_case "checksum" `Quick test_flipped_payload_byte;
          Alcotest.test_case "truncation" `Quick test_truncated;
          Alcotest.test_case "trailing bytes" `Quick test_trailing_garbage;
        ] );
      ( "properties",
        [ prop_pattern_roundtrip; prop_encode_canonical; prop_decode_never_raises ] );
    ]
