(* The output verifier's own test: it must accept a graph compiled with
   the full pattern set and reject an uncompiled graph and a graph
   compiled with the epilog-only set. *)

open Pypm
open Perfbench

let failures = ref 0

let expect what cond =
  if not cond then begin
    incr failures;
    Printf.printf "FAIL: %s\n" what
  end
  else Printf.printf "ok: %s\n" what

let st = Inputs.stream ~seed:7 0

let models =
  [
    ("transformer (gelu)", Inputs.hf st ~layers:3 ~heads:4 ~activation:Inputs.gelu_d 0);
    ("transformer (relu)", Inputs.hf st ~layers:2 ~heads:1 ~activation:Transformer.Act_relu 1);
    ("vision", Inputs.tv st ~stages:3 ~blocks:2 ~residual:true ~hidden_fc:true 2);
    ("multimodal", Inputs.mm st ~text_layers:2 3);
  ]

(* Build [m], take the reference on the input, then rewrite with
   [program] (or not at all) and verify. *)
let verdict ?program m =
  let env = Std_ops.make () in
  let g = Inputs.build env m in
  let r = Inputs.reference m g in
  match program with
  | None -> Verify.check_graph r g
  | Some p ->
      let prog = p env.Std_ops.sg in
      let config = { Api.Config.default with Api.Config.engine = Some Pass.Plan } in
      let stats = Api.optimize ~config prog g in
      Verify.check r (Verify.status_of_stats stats) g

let () =
  List.iter
    (fun (name, m) ->
      expect (name ^ ": full set accepted") (verdict ~program:Corpus.full_program m = []);
      expect (name ^ ": uncompiled graph rejected") (verdict m <> []))
    models;
  List.iter
    (fun (name, m) ->
      expect (name ^ ": epilog-only compile rejected")
        (verdict ~program:Corpus.epilog_program m <> []))
    (List.filter (fun (name, _) -> name <> "vision") models);
  expect "an unfinished pass is rejected"
    (Verify.check_status
       { Verify.reached_fixpoint = false; fuel_exhausted = 0; deadline_hit = false;
         errors = 0; fatal = false }
    <> []);
  expect "fuel exhaustion is rejected"
    (Verify.check_status
       { Verify.reached_fixpoint = true; fuel_exhausted = 1; deadline_hit = false;
         errors = 0; fatal = false }
    <> []);
  if !failures > 0 then exit 1
