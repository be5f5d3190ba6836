(* The pattern-set compiler (lib/plan): skeleton extraction, prefix
   sharing in the shared trie, guard hoisting safety, first-witness
   preservation against the production matcher, and incremental-mode
   fixpoint equivalence with the full-traversal pass on every zoo model. *)

open Pypm_term
open Pypm_pattern
open Pypm_semantics
module F = Pypm_testutil.Fixtures
module P = Pattern
module Plan = Pypm.Plan

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Skeleton extraction                                                 *)
(* ------------------------------------------------------------------ *)

let test_extract_fragment () =
  checkb "app/var compiles" true
    (Skeleton.extract (P.app "f" [ P.var "x"; P.var "y" ]) <> None);
  checkb "alt compiles" true
    (Skeleton.extract (P.alt (P.app "g" [ P.var "x" ]) (P.var "x")) <> None);
  checkb "mu falls back" true
    (Skeleton.extract
       (P.mu "P" ~formals:[ "x" ] ~actuals:[ "x" ]
          (P.alt (P.app "g" [ P.call "P" [ "x" ] ]) (P.var "x")))
    = None);
  checkb "constr falls back" true
    (Skeleton.extract (P.constr (P.var "x") (P.app "g" [ P.var "y" ]) "x")
    = None);
  (match
     Skeleton.extract
       (P.app "f"
          [ P.alt (P.var "x") (P.const "a"); P.alt (P.var "y") (P.const "b") ])
   with
  | Some bs -> checki "2x2 alternates expand to 4 branches" 4 (List.length bs)
  | None -> Alcotest.fail "expected compilable");
  (* expansion budget: a pattern wider than max_branches falls back *)
  let wide =
    P.app "f"
      [
        P.alts (List.init 20 (fun i -> P.const (Printf.sprintf "c%d" i)));
        P.alts (List.init 20 (fun i -> P.const (Printf.sprintf "d%d" i)));
      ]
  in
  checkb "expansion budget enforced" true
    (Skeleton.extract ~max_branches:64 wide = None)

(* ------------------------------------------------------------------ *)
(* Prefix sharing                                                      *)
(* ------------------------------------------------------------------ *)

let test_prefix_sharing () =
  (* Two patterns with a common skeleton f(g(x), _): the trie performs the
     three shared prefix instructions once. *)
  let p1 = P.app "f" [ P.app "g" [ P.var "x" ]; P.var "y" ] in
  let p2 = P.app "f" [ P.app "g" [ P.var "x" ]; P.const "a" ] in
  let plan = Plan.compile [ ("P1", p1); ("P2", p2) ] in
  checki "two branches" 2 (Plan.branch_count plan);
  checki "eight instructions before sharing" 8 (Plan.instr_total plan);
  checki "five trie edges after sharing" 5 (Plan.node_count plan - 1);
  checki "three instructions shared" 3
    (Plan.instr_total plan - (Plan.node_count plan - 1));
  (* both still match independently *)
  let t1 = Term.app "f" [ F.g1 F.a; F.b ] in
  let r = Plan.match_node plan ~interp:F.interp t1 in
  checkb "P1 matches" true (List.mem_assoc "P1" r);
  checkb "P2 does not" false (List.mem_assoc "P2" r);
  let t2 = Term.app "f" [ F.g1 F.b; F.a ] in
  let r2 = Plan.match_node plan ~interp:F.interp t2 in
  checkb "both match" true (List.mem_assoc "P1" r2 && List.mem_assoc "P2" r2)

(* Alternates of one pattern share their common prefix too. *)
let test_prefix_sharing_within_pattern () =
  let p =
    P.app "f" [ P.app "g" [ P.var "x" ]; P.alt (P.const "a") (P.const "b") ]
  in
  let plan = Plan.compile [ ("P", p) ] in
  checki "two branches" 2 (Plan.branch_count plan);
  (* 4 + 4 instructions, 3 shared *)
  checki "shared prefix" 3
    (Plan.instr_total plan - (Plan.node_count plan - 1))

(* ------------------------------------------------------------------ *)
(* Guard hoisting safety                                               *)
(* ------------------------------------------------------------------ *)

(* A guard that mentions a variable bound only by a LATER sibling must
   fail the branch, exactly like the matcher's Backtrack policy (the
   guard's natural evaluation point precedes the binding). Hoisting must
   never move a guard later. *)
let test_guard_not_moved_later () =
  let g = Guard.Le (Guard.Const 1, Guard.Var_attr ("y", "size")) in
  let p = P.app "f" [ P.Guarded (P.var "x", g); P.var "y" ] in
  let t = F.f2 F.a F.b in
  checkb "matcher rejects" true
    (Matcher.matches ~interp:F.interp ~policy:Outcome.Policy.Backtrack p t
    = Outcome.No_match);
  let plan = Plan.compile [ ("P", p) ] in
  checki "plan rejects too" 0
    (List.length (Plan.match_node plan ~interp:F.interp t))

(* A guard over an early-bound variable is hoisted before later structure:
   same outcome, fewer steps on mismatching subjects. *)
let test_guard_hoisted_earlier () =
  let deep k =
    let rec go n = if n = 0 then P.var "y" else P.app "g" [ go (n - 1) ] in
    go k
  in
  let guard = Guard.Le (Guard.Const 99, Guard.Var_attr ("x", "size")) in
  let p = P.app "f" [ P.var "x"; P.Guarded (deep 6, guard) ] in
  let plan = Plan.compile [ ("P", p) ] in
  (* subject whose x is tiny: the hoisted guard fails before the deep
     right-hand structure is traversed *)
  let rec tower n = if n = 0 then F.b else F.g1 (tower (n - 1)) in
  let t = F.f2 F.a (tower 6) in
  checki "no match" 0 (List.length (Plan.match_node plan ~interp:F.interp t));
  let steps = Plan.last_steps () in
  checkb (Printf.sprintf "guard fails early (%d steps)" steps) true (steps <= 4);
  (* and the matcher agrees on the outcome *)
  checkb "matcher agrees" true
    (Matcher.matches ~interp:F.interp ~policy:Outcome.Policy.Backtrack p t
    = Outcome.No_match)

(* ------------------------------------------------------------------ *)
(* First-witness preservation on the corpus                            *)
(* ------------------------------------------------------------------ *)

let corpus_plan prog =
  Plan.compile
    (List.map
       (fun (e : Pypm.Program.entry) ->
         (e.Pypm.Program.pname, e.Pypm.Program.pattern))
       prog.Pypm.Program.entries)

let test_corpus_classification () =
  let open Pypm in
  let env = Std_ops.make () in
  let prog = Corpus.full_program env.Std_ops.sg in
  let plan = corpus_plan prog in
  let compiled = Plan.compiled_names plan and fb = Plan.fallback_names plan in
  checkb "MHA compiled" true (List.mem "MHA" compiled);
  checkb "Gelu compiled" true (List.mem "Gelu" compiled);
  checkb "ConvEpilog (match constraint) falls back" true
    (List.mem "ConvEpilog" fb);
  checkb "ReluChain (mu) falls back" true (List.mem "ReluChain" fb);
  checkb "most of the corpus compiles" true (List.length compiled >= 10)

let test_first_witness_on_model () =
  let open Pypm in
  let m = Option.get (Zoo.find "bert-mini") in
  let env, g = m.Zoo.build () in
  let prog = Corpus.full_program env.Std_ops.sg in
  let plan = corpus_plan prog in
  let compiled = Plan.compiled_names plan in
  let view = Term_view.create g in
  let interp = Term_view.interp view in
  let agreed = ref 0 and matched = ref 0 in
  List.iter
    (fun node ->
      let t = Term_view.term_of view node in
      let results = Plan.match_node plan ~interp t in
      List.iter
        (fun (e : Program.entry) ->
          if List.mem e.Program.pname compiled then begin
            let expected =
              Matcher.matches ~interp ~policy:Outcome.Policy.Backtrack
                ~fuel:200_000 e.Program.pattern t
            in
            incr agreed;
            match (expected, List.assoc_opt e.Program.pname results) with
            | Outcome.Matched (th, ph), Some (th', ph') ->
                incr matched;
                if not (Subst.equal th th' && Fsubst.equal ph ph') then
                  Alcotest.failf "witness differs for %s at node %d"
                    e.Program.pname node.Graph.id
            | Outcome.Matched _, None ->
                Alcotest.failf "plan missed a %s match at node %d"
                  e.Program.pname node.Graph.id
            | _, Some _ ->
                Alcotest.failf "plan over-matched %s at node %d"
                  e.Program.pname node.Graph.id
            | _, None -> ()
          end)
        prog.Program.entries)
    (Graph.live_nodes g);
  checkb "exercised" true (!agreed > 500 && !matched > 5)

(* ------------------------------------------------------------------ *)
(* Incremental fixpoint equivalence on every zoo model                 *)
(* ------------------------------------------------------------------ *)

(* Structural hash of the live graph after normalization. Two runs of the
   same model builder allocate fresh input symbols from a global counter
   ([tokens%1] vs [tokens%19]), so uid suffixes are relabelled by order of
   first appearance in a deterministic DFS from the outputs. Node ids are
   deliberately excluded — engines may allocate different ids for rejected
   rule instantiations. *)
let graph_hash g =
  ignore (Pypm.Graph.gc g);
  let uids = Hashtbl.create 32 in
  let canon_sym (s : Pypm.Symbol.t) =
    match String.index_opt (s :> string) '%' with
    | None -> (s :> string)
    | Some i ->
        let k =
          match Hashtbl.find_opt uids s with
          | Some k -> k
          | None ->
              let k = Hashtbl.length uids in
              Hashtbl.add uids s k;
              k
        in
        Printf.sprintf "%s#%d" (String.sub (s :> string) 0 i) k
  in
  let buf = Buffer.create 4096 in
  (* Shared subgraphs are emitted once and referenced by DFS-visit index
     afterwards — the hash sees the DAG, not its exponential tree
     expansion, and stays id-independent. *)
  let seen = Hashtbl.create 256 in
  let rec go (n : Pypm.Graph.node) =
    match Hashtbl.find_opt seen n.Pypm.Graph.id with
    | Some k -> Buffer.add_string buf (Printf.sprintf "@%d" k)
    | None ->
        Hashtbl.add seen n.Pypm.Graph.id (Hashtbl.length seen);
        Buffer.add_string buf (canon_sym n.Pypm.Graph.op);
        List.iter
          (fun (k, v) -> Buffer.add_string buf (Printf.sprintf "{%s=%d}" k v))
          (List.sort compare n.Pypm.Graph.attrs);
        (match n.Pypm.Graph.inputs with
        | [] -> ()
        | inputs ->
            Buffer.add_char buf '(';
            List.iteri
              (fun i u ->
                if i > 0 then Buffer.add_char buf ',';
                go u)
              inputs;
            Buffer.add_char buf ')')
  in
  List.iter
    (fun o ->
      go o;
      Buffer.add_char buf ';')
    (Pypm.Graph.outputs g);
  Hashtbl.hash (Buffer.contents buf)

(* The rewrite sequence of a pass: pattern, rule, matched and replacement
   node ids per firing. *)
let rewrite_sequence (stats : Pypm.Pass.stats) =
  String.concat ";"
    (List.map
       (fun (p : Pypm.Obs.Provenance.step) ->
         Printf.sprintf "%s|%s|%d|%d" p.pattern p.rule p.matched_root
           p.replacement_root)
       stats.Pypm.Pass.provenance)

let run_model engine (m : Pypm.Zoo.model) =
  let open Pypm in
  let env, g = m.Zoo.build () in
  let stats =
    Pass.run_cfg
      ~config:{ Pass.Config.default with Pass.Config.engine = Some engine }
      (Corpus.both_program env.Std_ops.sg)
      g
  in
  (stats, g)

let test_incremental_fixpoint_equivalence () =
  let open Pypm in
  List.iter
    (fun (m : Zoo.model) ->
      let run engine =
        let stats, g = run_model engine m in
        (stats, rewrite_sequence stats, graph_hash g)
      in
      let s_full, q_full, h_full = run Pass.Naive in
      let _, q_idx, h_idx = run Pass.Index in
      let s_plan, q_plan, h_plan = run Pass.Plan in
      if s_full.Pass.total_rewrites <> s_plan.Pass.total_rewrites then
        Alcotest.failf "%s: rewrites differ (full %d, plan %d)" m.Zoo.mname
          s_full.Pass.total_rewrites s_plan.Pass.total_rewrites;
      if q_full <> q_idx then
        Alcotest.failf "%s: rewrite sequences differ (naive vs index)"
          m.Zoo.mname;
      if q_full <> q_plan then
        Alcotest.failf "%s: rewrite sequences differ (naive vs plan)"
          m.Zoo.mname;
      if h_full <> h_idx || h_full <> h_plan then
        Alcotest.failf "%s: final graphs differ" m.Zoo.mname;
      checkb "plan reached fixpoint" true s_plan.Pass.reached_fixpoint)
    (Zoo.all ())

(* The plan engine's rewrite sequence and result on two full models,
   pinned as digests of the provenance (the [rewrite_sequence] string)
   and of [Fuzz.fingerprint], together with its counters. Any change to
   firing order, sharing or collection shows here. *)
let test_pinned_rewrite_sequence () =
  let open Pypm in
  List.iter
    (fun (name, rewrites, iterations, visited, collected, seq_md5, fp_md5) ->
      let stats, g = run_model Pass.Plan (Option.get (Zoo.find name)) in
      let hex s = Digest.to_hex (Digest.string s) in
      checki (name ^ " rewrites") rewrites stats.Pass.total_rewrites;
      checki (name ^ " iterations") iterations stats.Pass.iterations;
      checki (name ^ " nodes visited") visited stats.Pass.nodes_visited;
      checki (name ^ " collected") collected stats.Pass.collected;
      Alcotest.(check string)
        (name ^ " provenance digest") seq_md5
        (hex (rewrite_sequence stats));
      Alcotest.(check string)
        (name ^ " fingerprint digest") fp_md5
        (hex (Fuzz.fingerprint g)))
    [
      ( "bert-base", 36, 37, 495, 204, "7e5a762aa121e1d16c999fe267e53df7",
        "4fe9ef2aa385ca85a4886c815bb28e19" );
      ( "gpt2-medium", 48, 49, 659, 272, "e4928d1d74c5f3ec1829e291ce3356bf",
        "96c87aec9d833e741c74f4322187295a" );
    ]

(* A rewrite whose replacement is an old node the scan has already
   finished: MulOne turns [m = Mul(x, 1)] into [x], which [a = Relu(x)]
   also reads, and [a] was scanned (and cleaned) before [m]. The rewrite
   makes [x] and [a] dirty again, so the next iteration visits
   x, a, n: 4 + 3 visits, as a full traversal from the outputs does. *)
let test_old_replacement_rescanned () =
  let open Pypm in
  let env = Std_ops.make () in
  let g = Graph.create ~sg:env.Std_ops.sg ~infer:env.Std_ops.infer () in
  let x = Graph.input g ~name:"x" (Ty.make Dtype.F32 [ 4 ]) in
  let a = Graph.add g Std_ops.relu [ x ] in
  let m = Graph.add g Std_ops.mul [ x; Graph.constant g 1.0 ] in
  let n = Graph.add g Std_ops.neg [ m ] in
  Graph.set_outputs g [ a; n ];
  let stats =
    Pass.run_cfg
      ~config:{ Pass.Config.default with Pass.Config.engine = Some Pass.Plan }
      (Corpus.cleanup_program env.Std_ops.sg)
      g
  in
  checki "one rewrite" 1 stats.Pass.total_rewrites;
  checki "two iterations" 2 stats.Pass.iterations;
  checki "x, a, 1, m then x, a, n" 7 stats.Pass.nodes_visited;
  checki "m and the constant collected" 2 stats.Pass.collected;
  Alcotest.(check (list int)) "n reads x" [ x.Graph.id ]
    (List.map (fun (i : Graph.node) -> i.Graph.id) n.Graph.inputs);
  Alcotest.(check (list string)) "graph valid" [] (Graph.validate g)

(* The plan engine runs the backtracking matcher strictly less than the
   root-head index, and accounts pruning distinctly from index skips. *)
let test_plan_prunes_more_than_index () =
  let open Pypm in
  let m = Option.get (Zoo.find "gpt2-small") in
  let measure engine =
    let env, g = m.Zoo.build () in
    let prog = Corpus.both_program env.Std_ops.sg in
    Matcher.reset_cumulative_visits ();
    let stats =
      Pass.match_only_cfg
        ~config:{ Pass.Config.default with Pass.Config.engine = Some engine }
        prog
        g
    in
    (stats, Matcher.cumulative_visits ())
  in
  let s_idx, v_idx = measure Pass.Index in
  let s_plan, v_plan = measure Pass.Plan in
  checkb "plan uses strictly fewer matcher visits" true (v_plan < v_idx);
  let sum f s = List.fold_left (fun a ps -> a + f ps) 0 s.Pass.per_pattern in
  checkb "plan runs strictly fewer matcher attempts" true
    (sum (fun ps -> ps.Pass.attempts) s_plan
    < sum (fun ps -> ps.Pass.attempts) s_idx);
  checkb "plan prunes via the trie" true
    (sum (fun ps -> ps.Pass.plan_pruned) s_plan > 0);
  checki "index never plan-prunes" 0 (sum (fun ps -> ps.Pass.plan_pruned) s_idx);
  (* identical match counts *)
  checki "same matches"
    (sum (fun ps -> ps.Pass.matches) s_idx)
    (sum (fun ps -> ps.Pass.matches) s_plan)

let () =
  Alcotest.run "plan"
    [
      ( "skeleton",
        [
          Alcotest.test_case "decision fragment" `Quick test_extract_fragment;
        ] );
      ( "trie",
        [
          Alcotest.test_case "prefix sharing across patterns" `Quick
            test_prefix_sharing;
          Alcotest.test_case "prefix sharing within a pattern" `Quick
            test_prefix_sharing_within_pattern;
        ] );
      ( "guards",
        [
          Alcotest.test_case "guards never move later" `Quick
            test_guard_not_moved_later;
          Alcotest.test_case "guards hoist earlier" `Quick
            test_guard_hoisted_earlier;
        ] );
      ( "first-witness",
        [
          Alcotest.test_case "corpus classification" `Quick
            test_corpus_classification;
          Alcotest.test_case "corpus patterns over a model graph" `Quick
            test_first_witness_on_model;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "pinned rewrite sequence" `Quick
            test_pinned_rewrite_sequence;
          Alcotest.test_case "old replacement rescanned" `Quick
            test_old_replacement_rescanned;
          Alcotest.test_case "fixpoint equivalence on every zoo model" `Slow
            test_incremental_fixpoint_equivalence;
          Alcotest.test_case "plan prunes more than the index" `Quick
            test_plan_prunes_more_than_index;
        ] );
    ]
