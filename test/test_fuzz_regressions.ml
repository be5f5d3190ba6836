(* Frozen regressions for the crash classes the differential fuzzer
   (lib/fuzz) guards against, plus deterministic smoke runs of the fuzzer
   itself. Each lexer/codec case here is a concrete input that used to
   escape as an uncaught exception (Failure from the stdlib conversion
   functions, Invalid_argument from the sign-bit shift) or silently
   corrupt data before the frontend/codec hardening; they are pinned so
   the fixes cannot regress even if the random generators drift. *)

open Pypm
module Fz = Pypm_fuzz.Fuzz
module Gen = Pypm_fuzz.Gen
module Srng = Pypm_fuzz.Srng
module Alpha = Pypm_fuzz.Alpha

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let lex_error_of src =
  match Lexer.tokenize src with
  | exception Lexer.Lex_error (pos, msg) -> Some (pos, msg)
  | exception e ->
      Alcotest.failf "lexing %S raised %s, not Lex_error" src
        (Printexc.to_string e)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Lexer totality                                                      *)
(* ------------------------------------------------------------------ *)

(* Used to escape as [Failure "int_of_string"]. *)
let test_oversized_int_literal () =
  match lex_error_of "x = 99999999999999999999999999999" with
  | Some (pos, msg) ->
      checki "error column points at the literal" 5 pos.Lexer.col;
      checkb "message names the literal" true
        (String.length msg > 0
        && String.sub msg 0 (min 7 (String.length msg)) = "integer")
  | None -> Alcotest.fail "oversized int literal lexed successfully"

let test_oversized_int_in_parse () =
  (* Through the full frontend: a positioned error value, not an exception. *)
  match Surface.parse "op O(99999999999999999999999999999, 1);" with
  | Error (Surface.Syntax (_, _)) -> ()
  | Error (Surface.Elab _) -> Alcotest.fail "expected a syntax error"
  | Ok _ -> Alcotest.fail "expected a parse error"

let test_unsupported_escape () =
  match lex_error_of {|"bad \q escape"|} with
  | Some _ -> ()
  | None -> Alcotest.fail "\\q escape lexed successfully"

let test_unterminated_string () =
  List.iter
    (fun src ->
      match lex_error_of src with
      | Some _ -> ()
      | None -> Alcotest.failf "%S lexed successfully" src)
    [ {|"unclosed|}; {|"ends in backslash\|}; "\"newline\ninside\"" ]

(* ------------------------------------------------------------------ *)
(* String-literal escapes                                              *)
(* ------------------------------------------------------------------ *)

let lex_string_exn lit =
  match Array.to_list (Lexer.tokenize lit) with
  | [ { Lexer.tok = Lexer.STRING s; _ }; { Lexer.tok = Lexer.EOF; _ } ] -> s
  | _ -> Alcotest.failf "%S did not lex to a single string literal" lit

let test_escape_roundtrip () =
  List.iter
    (fun s ->
      checks "quote_string roundtrip" s (lex_string_exn (Lexer.quote_string s));
      checks "pp_string_lit roundtrip" s
        (lex_string_exn (Format.asprintf "%a" Ast.pp_string_lit s)))
    [ "a\"b\\c"; "two\nlines"; "\\"; "\""; ""; "plain"; "tab\there" ]

(* The class string of an op declaration survives print-and-reparse even
   with embedded quotes, backslashes and newlines. *)
let test_opclass_string_roundtrip () =
  let ast =
    {
      Ast.empty_program with
      Ast.ops =
        [
          {
            Ast.od_name = "O";
            od_arity = 1;
            od_output_arity = 1;
            od_class = "quoted \"cls\"\\with\nnoise";
          };
        ];
    }
  in
  let src = Format.asprintf "%a" Ast.pp_program ast in
  match Surface.parse src with
  | Error e -> Alcotest.failf "reparse failed: %a" Surface.pp_error e
  | Ok ast2 -> (
      match ast2.Ast.ops with
      | [ od ] -> checks "class string" "quoted \"cls\"\\with\nnoise" od.Ast.od_class
      | _ -> Alcotest.fail "expected one op")

(* ------------------------------------------------------------------ *)
(* The [copying] clause of printed rules                               *)
(* ------------------------------------------------------------------ *)

let test_pp_rule_copying_roundtrip () =
  let ast =
    {
      Ast.ops =
        [ { Ast.od_name = "O"; od_arity = 1; od_output_arity = 1; od_class = "c" } ];
      patterns =
        [
          {
            Ast.pd_name = "Q";
            pd_params = [ "x" ];
            pd_stmts = [];
            pd_return = Ast.Eapp ("O", [ Ast.Evar "x" ]);
          };
        ];
      rules =
        [
          {
            Ast.rd_name = "R";
            rd_for = "Q";
            rd_params = [ "x" ];
            rd_asserts = [];
            rd_branches = [ { Ast.br_guard = None; br_return = Ast.Evar "x" } ];
            rd_copy_attrs_from = Some "x";
          };
        ];
    }
  in
  let src = Format.asprintf "%a" Ast.pp_program ast in
  match Surface.parse src with
  | Error e -> Alcotest.failf "reparse failed: %a" Surface.pp_error e
  | Ok ast2 -> (
      match ast2.Ast.rules with
      | [ rd ] ->
          checkb "copying clause preserved" true
            (rd.Ast.rd_copy_attrs_from = Some "x")
      | _ -> Alcotest.fail "expected one rule")

(* ------------------------------------------------------------------ *)
(* Codec hardening                                                     *)
(* ------------------------------------------------------------------ *)

let one_rule_program v =
  let sg = Signature.create () in
  ignore (Signature.declare sg ~arity:1 "g");
  Program.make ~sg
    [
      {
        Program.pname = "P";
        pattern = Pattern.app "g" [ Pattern.var "x" ];
        rules = [ Rule.make ~name:"r" ~pattern:"P" (Rule.Rlit v) ];
      };
    ]

(* Out-of-range literals used to encode to garbage varints (or loop);
   now they are rejected up front. *)
let test_codec_rejects_unencodable_literals () =
  List.iter
    (fun v ->
      match Codec.encode (one_rule_program v) with
      | exception Codec.Encode_error _ -> ()
      | exception e ->
          Alcotest.failf "encoding %g raised %s, not Encode_error" v
            (Printexc.to_string e)
      | _ -> Alcotest.failf "encoding literal %g succeeded" v)
    [ Float.nan; Float.infinity; Float.neg_infinity; 1e300; -1e300 ]

let test_codec_accepts_millifloats () =
  List.iter
    (fun v ->
      match Codec.decode (Codec.encode (one_rule_program v)) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "millifloat %g failed: %s" v e)
    [ 0.; 1.5; -2.125; 0.001; -4000.; 3.141 ]

(* [put_signed] used to hit [Invalid_argument] on [min_int] (the sign bit
   overflowed the zigzag shift); the primitives must be total. *)
let test_wire_zigzag_total () =
  List.iter
    (fun n ->
      let buf = Buffer.create 16 in
      Codec.Wire.put_signed buf n;
      let c = Codec.Wire.cursor (Buffer.contents buf) in
      checki (Printf.sprintf "zigzag %d" n) n (Codec.Wire.get_signed c))
    [ 0; 1; -1; 63; 64; -64; -65; max_int; min_int; max_int - 1; min_int + 1;
      0x7FFFFFFF; -0x80000000 ]
  [@@ocamlformat "disable"]

let test_wire_varint_roundtrip () =
  List.iter
    (fun n ->
      let buf = Buffer.create 16 in
      Codec.Wire.put_varint buf n;
      let c = Codec.Wire.cursor (Buffer.contents buf) in
      checki (Printf.sprintf "varint %d" n) n (Codec.Wire.get_varint c))
    [ 0; 1; 127; 128; 16383; 16384; max_int ]

(* ------------------------------------------------------------------ *)
(* Srng                                                                *)
(* ------------------------------------------------------------------ *)

let test_srng_deterministic () =
  let stream seed =
    let r = Srng.create ~seed in
    List.init 16 (fun _ -> Srng.next64 r)
  in
  checkb "same seed, same stream" true (stream 7 = stream 7);
  checkb "different seeds, different streams" true (stream 1 <> stream 2)

let test_srng_split_decorrelates () =
  let r = Srng.create ~seed:11 in
  let child = Srng.split r in
  let a = List.init 16 (fun _ -> Srng.next64 r) in
  let b = List.init 16 (fun _ -> Srng.next64 child) in
  checkb "parent and child streams differ" true (a <> b)

let test_srng_bounds () =
  let r = Srng.create ~seed:3 in
  for _ = 1 to 1000 do
    let v = Srng.int r 7 in
    checkb "int in range" true (v >= 0 && v < 7);
    let w = Srng.range r (-3) 3 in
    checkb "range inclusive" true (w >= -3 && w <= 3)
  done

(* ------------------------------------------------------------------ *)
(* Alpha equivalence                                                   *)
(* ------------------------------------------------------------------ *)

let test_alpha () =
  let open Pattern in
  checkb "bound rename" true
    (Alpha.equal (exists "x" (app "g" [ var "x" ]))
       (exists "y" (app "g" [ var "y" ])));
  checkb "free variables must match exactly" false
    (Alpha.equal (app "g" [ var "x" ]) (app "g" [ var "y" ]));
  checkb "free must not collide with bound" false
    (Alpha.equal
       (exists "x" (app "f" [ var "x"; var "y" ]))
       (exists "y" (app "f" [ var "y"; var "y" ])));
  checkb "mu formals rename" true
    (Alpha.equal
       (mu "P" ~formals:[ "x" ] ~actuals:[ "z" ]
          (alt (app "g" [ call "P" [ "x" ] ]) (app "g" [ var "x" ])))
       (mu "Q" ~formals:[ "w" ] ~actuals:[ "z" ]
          (alt (app "g" [ call "Q" [ "w" ] ]) (app "g" [ var "w" ]))));
  checkb "mu actuals are free" false
    (Alpha.equal
       (mu "P" ~formals:[ "x" ] ~actuals:[ "a" ] (app "g" [ var "x" ]))
       (mu "P" ~formals:[ "x" ] ~actuals:[ "b" ] (app "g" [ var "x" ])));
  checkb "exists_f rename with guards" true
    (Alpha.equal
       (exists_f "F"
          (Guarded (fapp "F" [ var "x" ], Guard.Eq (Guard.Fvar_attr ("F", "arity"), Guard.Const 1))))
       (exists_f "G"
          (Guarded (fapp "G" [ var "x" ], Guard.Eq (Guard.Fvar_attr ("G", "arity"), Guard.Const 1)))))
  [@@ocamlformat "disable"]

(* Elaborating the same source twice yields alpha-equivalent (but not
   syntactically equal) patterns — the situation Alpha exists for. *)
let test_alpha_absorbs_fresh_names () =
  let src =
    "op O(x) class \"c\";\n\
     pattern Q(p) { l = var(); l <= O(p); return O(l); }\n"
  in
  let load () =
    match Surface.load ~sg:(Signature.create ()) src with
    | Ok prog -> (List.hd prog.Program.entries).Program.pattern
    | Error e -> Alcotest.failf "load failed: %a" Surface.pp_error e
  in
  let p1 = load () and p2 = load () in
  checkb "alpha-equivalent" true (Alpha.equal p1 p2)

(* ------------------------------------------------------------------ *)
(* Fingerprint stability                                               *)
(* ------------------------------------------------------------------ *)

(* [Fz.fingerprint] sorts each node's attributes so the hash is a function
   of the graph, not of attribute insertion order. The sort used the
   polymorphic [compare] on [(string * int)] pairs — correct today only
   because the representation happens to order that way; it now uses a
   typed comparator. Pin the observable contract: two graphs differing
   only in attr insertion order fingerprint identically. *)
let test_fingerprint_attr_order () =
  let build attrs =
    let e = Std_ops.make () in
    let g = Graph.create ~sg:e.Std_ops.sg ~infer:e.Std_ops.infer () in
    let x = Graph.input g ~name:"x" (Ty.make Dtype.F32 [ 2; 2 ]) in
    let n = Graph.add g Std_ops.relu ~attrs [ x ] in
    Graph.set_outputs g [ n ];
    Fz.fingerprint g
  in
  checks "attr insertion order is invisible"
    (build [ ("alpha", 1); ("beta", 2); ("gamma", 3) ])
    (build [ ("gamma", 3); ("beta", 2); ("alpha", 1) ]);
  checkb "attr values still distinguish" true
    (build [ ("alpha", 1) ] <> build [ ("alpha", 2) ])

(* ------------------------------------------------------------------ *)
(* Fuzzer smoke                                                        *)
(* ------------------------------------------------------------------ *)

(* A tiny deterministic run of every property. Any failure prints the
   minimized counterexample and the replay command line. *)
let test_fuzz_all_props_smoke () =
  let report = Fz.run ~seed:0 ~budget:330 () in
  if not (Fz.ok report) then
    Alcotest.failf "fuzz smoke failed:@.%a" Fz.pp_report report;
  checki "all properties ran" (List.length Fz.all_prop_names)
    (List.length report.Fz.r_props)

(* The expensive differential property on a few more workloads. *)
let test_fuzz_engines_smoke () =
  let report = Fz.run ~props:[ "engines-agree" ] ~seed:100 ~budget:6 () in
  if not (Fz.ok report) then
    Alcotest.failf "engines-agree failed:@.%a" Fz.pp_report report

let test_fuzz_unknown_prop () =
  match Fz.run ~props:[ "no-such-property" ] ~seed:0 ~budget:1 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unknown property name was accepted"

let () =
  Alcotest.run "fuzz_regressions"
    [
      ( "lexer",
        [
          Alcotest.test_case "oversized int literal" `Quick
            test_oversized_int_literal;
          Alcotest.test_case "oversized int through parse" `Quick
            test_oversized_int_in_parse;
          Alcotest.test_case "unsupported escape" `Quick
            test_unsupported_escape;
          Alcotest.test_case "unterminated strings" `Quick
            test_unterminated_string;
        ] );
      ( "strings",
        [
          Alcotest.test_case "escape roundtrips" `Quick test_escape_roundtrip;
          Alcotest.test_case "op class string" `Quick
            test_opclass_string_roundtrip;
          Alcotest.test_case "rule copying clause" `Quick
            test_pp_rule_copying_roundtrip;
        ] );
      ( "codec",
        [
          Alcotest.test_case "unencodable literals rejected" `Quick
            test_codec_rejects_unencodable_literals;
          Alcotest.test_case "millifloats accepted" `Quick
            test_codec_accepts_millifloats;
          Alcotest.test_case "zigzag total" `Quick test_wire_zigzag_total;
          Alcotest.test_case "varint roundtrip" `Quick
            test_wire_varint_roundtrip;
        ] );
      ( "srng",
        [
          Alcotest.test_case "deterministic" `Quick test_srng_deterministic;
          Alcotest.test_case "split decorrelates" `Quick
            test_srng_split_decorrelates;
          Alcotest.test_case "bounds" `Quick test_srng_bounds;
        ] );
      ( "alpha",
        [
          Alcotest.test_case "unit cases" `Quick test_alpha;
          Alcotest.test_case "absorbs elaboration freshness" `Quick
            test_alpha_absorbs_fresh_names;
        ] );
      ( "fingerprint",
        [
          Alcotest.test_case "attr order invisible" `Quick
            test_fingerprint_attr_order;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "all properties smoke" `Quick
            test_fuzz_all_props_smoke;
          Alcotest.test_case "engines differential smoke" `Quick
            test_fuzz_engines_smoke;
          Alcotest.test_case "unknown property" `Quick test_fuzz_unknown_prop;
        ] );
    ]
