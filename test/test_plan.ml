(* The plan engine: the dirty-region worklist over the root-head index.
   Its pinned rewrite sequence on two full models, the rescan of an old
   replacement, fixpoint equivalence with the full-traversal engines on
   every zoo model, and matching identical to the index's. *)

open Pypm_pattern
open Pypm_semantics
module F = Pypm_testutil.Fixtures
module P = Pattern

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Guard evaluation point                                              *)
(* ------------------------------------------------------------------ *)

(* A guard that mentions a variable bound only by a LATER sibling fails
   the match under the Backtrack policy: the guard is evaluated at its
   natural point, which precedes the binding, never later. *)
let test_guard_not_moved_later () =
  let g = Guard.Le (Guard.Const 1, Guard.Var_attr ("y", "size")) in
  let p = P.app "f" [ P.Guarded (P.var "x", g); P.var "y" ] in
  let t = F.f2 F.a F.b in
  checkb "matcher rejects" true
    (Matcher.matches ~interp:F.interp ~policy:Outcome.Policy.Backtrack p t
    = Outcome.No_match)

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

(* The plan engine matches exactly as the root-head index: at every node
   each pattern behind its prefilter, then the backtracking matcher. A
   sweep of both over one model gives the same per-pattern counters. *)
let test_plan_matches_as_index () =
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
  checki "same matcher visits" v_idx v_plan;
  List.iter2
    (fun (pi : Pass.pattern_stats) (pp : Pass.pattern_stats) ->
      let name = pi.Pass.ps_name in
      checki (name ^ " attempts") pi.Pass.attempts pp.Pass.attempts;
      checki (name ^ " skipped") pi.Pass.skipped pp.Pass.skipped;
      checki (name ^ " matches") pi.Pass.matches pp.Pass.matches;
      checki (name ^ " plan_pruned") 0 pp.Pass.plan_pruned)
    s_idx.Pass.per_pattern s_plan.Pass.per_pattern;
  checkb "the prefilter skipped something" true
    (List.exists (fun ps -> ps.Pass.skipped > 0) s_plan.Pass.per_pattern)

let () =
  Alcotest.run "plan"
    [
      ( "guards",
        [
          Alcotest.test_case "guards never move later" `Quick
            test_guard_not_moved_later;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "pinned rewrite sequence" `Quick
            test_pinned_rewrite_sequence;
          Alcotest.test_case "old replacement rescanned" `Quick
            test_old_replacement_rescanned;
          Alcotest.test_case "fixpoint equivalence on every zoo" `Slow
            test_incremental_fixpoint_equivalence;
          Alcotest.test_case "plan matches exactly as the index" `Quick
            test_plan_matches_as_index;
        ] );
    ]
