(* Property-test analogues of the paper's metatheory (Theorem 2), plus
   implementation-equivalence properties between the three matchers.

   - succ_sound: machine success(theta, phi)  =>  p @ <theta,phi> ~= t
   - fail_sound: machine failure  =>  no witness exists (via enumeration)
   - the production matcher computes exactly the machine's first result
   - enumeration's first witness is the machine's witness

   These run on thousands of random (pattern, term) pairs drawn both from
   the matching-biased generator and the independent generator. *)

open Pypm_term
open Pypm_pattern
open Pypm_semantics
open Pypm_testutil
module F = Fixtures
module P = Pattern

let interp = F.interp
let fuel = 60_000

let machine ?(policy = Outcome.Policy.Faithful) p t =
  Machine.run ~interp ~policy ~fuel p t

let matcher ?(policy = Outcome.Policy.Faithful) p t =
  Matcher.matches ~interp ~policy ~fuel p t

(* Theorem 2, first half: success soundness. *)
let prop_succ_sound =
  F.qtest ~count:2000 "succ_sound: machine success implies declarative match"
    F.Gen.pair F.pattern_print (fun (p, t) ->
      match machine p t with
      | Outcome.Matched (theta, phi) ->
          Declarative.check ~interp ~fuel p theta phi t
      | _ -> QCheck2.assume_fail ())

(* Theorem 2, second half: failure soundness, relative to the enumeration
   oracle. *)
let prop_fail_sound =
  F.qtest ~count:2000 "fail_sound: machine failure implies no witness"
    F.Gen.pair F.pattern_print (fun (p, t) ->
      match machine p t with
      | Outcome.No_match ->
          let r = Enumerate.all ~interp ~fuel p t in
          (not r.complete) || r.witnesses = []
      | _ -> QCheck2.assume_fail ())

(* The production matcher is extensionally the machine (faithful policy). *)
let prop_matcher_is_machine_faithful =
  F.qtest ~count:2000 "matcher = machine (faithful)" F.Gen.pair
    F.pattern_print (fun (p, t) ->
      match (machine p t, matcher p t) with
      | Outcome.Out_of_fuel, _ | _, Outcome.Out_of_fuel ->
          QCheck2.assume_fail ()
      | a, b -> Outcome.equal a b)

(* ... and under the production (backtrack) policy. *)
let prop_matcher_is_machine_backtrack =
  F.qtest ~count:2000 "matcher = machine (backtrack)" F.Gen.pair
    F.pattern_print (fun (p, t) ->
      let pol = Outcome.Policy.Backtrack in
      match (machine ~policy:pol p t, matcher ~policy:pol p t) with
      | Outcome.Out_of_fuel, _ | _, Outcome.Out_of_fuel ->
          QCheck2.assume_fail ()
      | a, b -> Outcome.equal a b)

(* Enumeration refines the machine: its first witness is the machine's. *)
let prop_enumerate_first_is_machine =
  F.qtest ~count:2000 "enumeration's first witness is the machine's"
    F.Gen.pair F.pattern_print (fun (p, t) ->
      match machine p t with
      | Outcome.Matched (theta, phi) -> (
          let r = Enumerate.all ~interp ~fuel p t in
          match r.witnesses with
          | (theta', phi') :: _ ->
              Subst.equal theta theta' && Fsubst.equal phi phi'
          | [] -> not r.complete)
      | _ -> QCheck2.assume_fail ())

(* Every enumerated witness is declaratively valid. *)
let prop_enumerated_witnesses_check =
  F.qtest ~count:800 "every enumerated witness satisfies the judgment"
    F.Gen.pair F.pattern_print (fun (p, t) ->
      let r = Enumerate.all ~interp ~fuel p t in
      List.for_all
        (fun (theta, phi) -> Declarative.check ~interp ~fuel p theta phi t)
        r.witnesses)

(* Machine match implies the existential judgment holds. *)
let prop_matched_implies_holds =
  F.qtest ~count:800 "match implies holds" F.Gen.pair F.pattern_print
    (fun (p, t) ->
      match machine p t with
      | Outcome.Matched _ -> Declarative.holds ~interp ~fuel p t
      | _ -> QCheck2.assume_fail ())

(* Witnesses are reproducible: running the machine twice is deterministic. *)
let prop_machine_deterministic =
  F.qtest ~count:500 "machine is deterministic" F.Gen.pair F.pattern_print
    (fun (p, t) -> Outcome.equal (machine p t) (machine p t))

(* Matching is stable under wrapping both sides with a fresh unary context:
   g(p) vs g(t) behaves as p vs t. *)
let prop_context_stable =
  F.qtest ~count:800 "context stability" F.Gen.pair F.pattern_print
    (fun (p, t) ->
      let lifted = machine (P.app "g" [ p ]) (Term.app "g" [ t ]) in
      let base = machine p t in
      match (base, lifted) with
      | Outcome.Out_of_fuel, _ | _, Outcome.Out_of_fuel ->
          QCheck2.assume_fail ()
      | a, b -> Outcome.equal a b)

(* The theory against the application: over every node of real model
   graphs and every corpus pattern (with the tensor attribute
   interpretation), the abstract machine and the production matcher agree
   exactly, and every match is declaratively valid with a checkable
   derivation. *)
let test_realistic_workload_agreement () =
  let open Pypm in
  let models =
    [
      Zoo.find "bert-mini"; Zoo.find "resnet10-ish"; Zoo.find "vgg11-ish";
    ]
  in
  let checked = ref 0 and matched = ref 0 in
  List.iter
    (fun m ->
      let m = Option.get m in
      let env, g = m.Pypm.Zoo.build () in
      let prog = Pypm.Corpus.full_program env.Pypm.Std_ops.sg in
      let view = Pypm.Term_view.create g in
      let tensor_interp = Pypm.Term_view.interp view in
      List.iter
        (fun node ->
          let t = Pypm.Term_view.term_of view node in
          List.iter
            (fun (e : Pypm.Program.entry) ->
              let pat = e.Pypm.Program.pattern in
              let a =
                Machine.run ~interp:tensor_interp
                  ~policy:Outcome.Policy.Backtrack ~fuel:200_000 pat t
              in
              let b =
                Matcher.matches ~interp:tensor_interp
                  ~policy:Outcome.Policy.Backtrack ~fuel:200_000 pat t
              in
              incr checked;
              if not (Outcome.equal a b) then
                Alcotest.failf "machine/matcher disagree on %s at node %d"
                  e.Pypm.Program.pname node.Pypm.Graph.id;
              match a with
              | Outcome.Matched (theta, phi) ->
                  incr matched;
                  if
                    not
                      (Declarative.check ~interp:tensor_interp ~fuel:200_000
                         pat theta phi t)
                  then
                    Alcotest.failf "unsound match of %s at node %d"
                      e.Pypm.Program.pname node.Pypm.Graph.id;
                  (match
                     Derivation.derive ~interp:tensor_interp ~fuel:200_000 pat
                       theta phi t
                   with
                  | Some d ->
                      if not (Derivation.validate ~interp:tensor_interp d)
                      then Alcotest.fail "derivation does not validate"
                  | None -> Alcotest.fail "no derivation for a sound match")
              | _ -> ())
            prog.Pypm.Program.entries)
        (Pypm.Graph.live_nodes g))
    models;
  Alcotest.(check bool) "exercised" true (!checked > 1000 && !matched > 10)

let () =
  Alcotest.run "equivalence"
    [
      ( "theorem-2",
        [ prop_succ_sound; prop_fail_sound ] );
      ( "implementations",
        [
          prop_matcher_is_machine_faithful;
          prop_matcher_is_machine_backtrack;
          prop_enumerate_first_is_machine;
          prop_enumerated_witnesses_check;
          prop_matched_implies_holds;
          prop_machine_deterministic;
          prop_context_stable;
        ] );
      ( "realistic",
        [
          Alcotest.test_case "corpus patterns over model graphs" `Quick
            test_realistic_workload_agreement;
        ] );
    ]
