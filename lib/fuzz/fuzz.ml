open Pypm_term
open Pypm_pattern
open Pypm_semantics
open Pypm_engine
module P = Pattern
module Graph = Pypm_graph.Graph
module Obs = Pypm_obs.Obs
module Codec = Pypm_serialize.Codec
module Surface = Pypm_surface.Surface
module Lexer = Pypm_surface.Lexer
module Ast = Pypm_dsl.Ast
module Elaborate = Pypm_dsl.Elaborate
module Inject = Pypm_resilience.Resilience.Inject
module Analysis = Pypm_analysis.Analysis
module Std_ops = Pypm_patterns.Std_ops
module Cost = Pypm_kernels.Cost
module Exec = Pypm_kernels.Exec

type verdict = Pass | Discard | Fail of string

type failure = {
  f_prop : string;
  f_case_seed : int;
  f_message : string;
  f_original : string;
  f_minimized : string;
  f_shrink_steps : int;
}

type prop_report = {
  p_name : string;
  p_cases : int;
  p_passed : int;
  p_discarded : int;
  p_failure : failure option;
}

type report = {
  r_seed : int;
  r_budget : int;
  r_props : prop_report list;
}

type 'a case = {
  gen : Srng.t -> 'a;
  shrink : 'a -> 'a list;
  check : 'a -> verdict;
  show : 'a -> string;
}

type prop = Prop : { name : string; doc : string; cost : int; case : 'a case } -> prop

(* A check must never escape with an exception: an uncaught exception IS a
   counterexample (the totality properties exist precisely for those). *)
let protect check x =
  try check x with e -> Fail ("uncaught exception: " ^ Printexc.to_string e)

(* Greedy delta debugging: repeatedly move to the first shrink candidate
   that still fails, within a global evaluation budget so pathological
   shrinkers cannot hang the run. *)
let minimize case x0 msg0 =
  let evals = ref 0 and steps = ref 0 in
  let best = ref x0 and best_msg = ref msg0 in
  let improved = ref true in
  while !improved && !evals < 500 do
    improved := false;
    let candidates = case.shrink !best in
    (try
       List.iter
         (fun c ->
           if !evals >= 500 then raise Exit;
           incr evals;
           match protect case.check c with
           | Fail m ->
               best := c;
               best_msg := m;
               incr steps;
               improved := true;
               raise Exit
           | Pass | Discard -> ())
         candidates
     with Exit -> ())
  done;
  (!best, !best_msg, !steps)

(* ------------------------------------------------------------------ *)
(* Printers                                                            *)
(* ------------------------------------------------------------------ *)

let show_pair (p, t) =
  Printf.sprintf "pattern: %s\nterm:    %s" (P.to_string p) (Term.to_string t)

let show_program prog = Format.asprintf "%a" Program.pp prog
let show_ast ast = Format.asprintf "%a" Ast.pp_program ast
let show_string s = Printf.sprintf "%S" s

let show_recipe (r : Gen.graph_recipe) =
  Printf.sprintf "{ gr_seed = %d; gr_nodes = %d; gr_pats = %d }" r.Gen.gr_seed
    r.Gen.gr_nodes r.Gen.gr_pats

(* ------------------------------------------------------------------ *)
(* Core matching properties                                            *)
(* ------------------------------------------------------------------ *)

let fuel = 60_000
let interp = Gen.interp

let machine_vs_matcher policy (p, t) =
  let a = Machine.run ~interp ~policy ~fuel p t in
  let b = Matcher.matches ~interp ~policy ~fuel p t in
  match (a, b) with
  | Outcome.Out_of_fuel, _ | _, Outcome.Out_of_fuel -> Discard
  | a, b ->
      if Outcome.equal a b then Pass
      else
        Fail
          (Printf.sprintf "machine: %s, matcher: %s" (Outcome.to_string a)
             (Outcome.to_string b))

let oracle_first_witness (p, t) =
  match Machine.run ~interp ~policy:Outcome.Policy.Faithful ~fuel p t with
  | Outcome.Matched (theta, phi) -> (
      let r = Enumerate.all ~interp ~fuel p t in
      match r.Enumerate.witnesses with
      | (theta', phi') :: _ ->
          if Subst.equal theta theta' && Fsubst.equal phi phi' then Pass
          else
            Fail
              (Printf.sprintf
                 "machine witness (%s, %s) is not the oracle's first (%s, %s)"
                 (Subst.to_string theta) (Fsubst.to_string phi)
                 (Subst.to_string theta') (Fsubst.to_string phi'))
      | [] ->
          if r.Enumerate.complete then
            Fail "machine matched but the complete oracle has no witness"
          else Discard)
  | Outcome.No_match ->
      let r = Enumerate.all ~interp ~fuel p t in
      if not r.Enumerate.complete then Discard
      else if r.Enumerate.witnesses = [] then Pass
      else Fail "machine reported no match but the oracle found a witness"
  | Outcome.Stuck | Outcome.Out_of_fuel -> Discard

(* ------------------------------------------------------------------ *)
(* Engine differential properties                                      *)
(* ------------------------------------------------------------------ *)

(* Total order on attribute bindings. Typed on purpose: polymorphic
   [compare] over the pair happens to work while attr values are plain
   ints, but it is a fingerprint hazard — any future attr payload with
   functional or cyclic components would make it raise, and its ordering
   is not a stated part of the representation. The fingerprint must sort
   with a comparator whose order is defined by this module. *)
let compare_attr ((ka : string), (va : int)) (kb, vb) =
  match String.compare ka kb with 0 -> Int.compare va vb | c -> c

(* Structural fingerprint of the live graph, independent of node ids and
   of the global uid counter behind input symbols: uid suffixes are
   relabelled in order of first appearance in a DFS from the outputs, and
   shared subgraphs are emitted once then referenced by visit index (the
   fingerprint sees the DAG, not its exponential tree unfolding). Attrs
   are emitted in [compare_attr] order, so the fingerprint is invariant
   under attribute insertion order. *)
let fingerprint g =
  ignore (Graph.gc g);
  let uids = Hashtbl.create 32 in
  let canon_sym (s : Symbol.t) =
    match String.index_opt s '%' with
    | None -> s
    | Some i ->
        let k =
          match Hashtbl.find_opt uids s with
          | Some k -> k
          | None ->
              let k = Hashtbl.length uids in
              Hashtbl.add uids s k;
              k
        in
        Printf.sprintf "%s#%d" (String.sub s 0 i) k
  in
  let buf = Buffer.create 4096 in
  let seen = Hashtbl.create 256 in
  let rec go (n : Graph.node) =
    match Hashtbl.find_opt seen n.Graph.id with
    | Some k -> Buffer.add_string buf (Printf.sprintf "@%d" k)
    | None ->
        Hashtbl.add seen n.Graph.id (Hashtbl.length seen);
        Buffer.add_string buf (canon_sym n.Graph.op);
        List.iter
          (fun (k, v) -> Buffer.add_string buf (Printf.sprintf "{%s=%d}" k v))
          (List.sort compare_attr n.Graph.attrs);
        (match n.Graph.inputs with
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
    (Graph.outputs g);
  Buffer.contents buf

let with_engine engine =
  { Pass.Config.default with Pass.Config.engine = Some engine }

let engine_names =
  List.filter_map
    (fun e -> if e = Pass.Egraph then None else Some (e, Pass.engine_name e))
    Pass.engines

(* The rewrite sequence of a pass: per firing, the pattern, the rule, and
   the matched and replacement node ids. *)
let rewrite_sequence (stats : Pass.stats) =
  List.map
    (fun (p : Obs.Provenance.step) ->
      (p.pattern, p.rule, p.matched_root, p.replacement_root))
    stats.Pass.provenance

let engines_agree recipe =
  (* Matching half: identical per-pattern match counts. *)
  let match_counts engine =
    let _env, g, prog = Gen.build recipe in
    let stats = Pass.match_only_cfg ~config:(with_engine engine) prog g in
    if stats.Pass.fuel_exhausted > 0 then None
    else
      Some
        (List.map
           (fun ps -> (ps.Pass.ps_name, ps.Pass.matches))
           stats.Pass.per_pattern)
  in
  let counts = List.map (fun (e, n) -> (n, match_counts e)) engine_names in
  if List.exists (fun (_, c) -> c = None) counts then Discard
  else
    let mismatch =
      match counts with
      | (_, ref_counts) :: rest ->
          List.find_opt (fun (_, c) -> c <> ref_counts) rest
      | [] -> None
    in
    match mismatch with
    | Some (name, _) ->
        Fail
          (Printf.sprintf "per-pattern match counts differ: naive vs %s" name)
    | None -> (
        (* Rewriting half: identical rewrite counts, the same rewrite
           sequence and isomorphic final graphs, which must also
           validate. *)
        let full engine =
          let _env, g, prog = Gen.build recipe in
          let stats = Pass.run_cfg ~config:(with_engine engine) prog g in
          if stats.Pass.fuel_exhausted > 0 then None
          else
            Some
              ( stats.Pass.total_rewrites,
                rewrite_sequence stats,
                fingerprint g,
                Graph.validate g )
        in
        let runs = List.map (fun (e, n) -> (n, full e)) engine_names in
        if List.exists (fun (_, r) -> r = None) runs then Discard
        else
          let get n = List.assoc n runs in
          match (get "naive", get "index", get "plan") with
          | ( Some (rw0, seq0, fp0, val0),
              Some (rw1, seq1, fp1, val1),
              Some (rw2, seq2, fp2, val2) ) -> (
              match
                List.find_opt
                  (fun (_, errs) -> errs <> [])
                  [ ("naive", val0); ("index", val1); ("plan", val2) ]
              with
              | Some (name, errs) ->
                  Fail
                    (Printf.sprintf "%s engine left an invalid graph: %s" name
                       (String.concat "; " errs))
              | None ->
                  if rw0 <> rw1 || rw0 <> rw2 then
                    Fail
                      (Printf.sprintf
                         "rewrite counts differ: naive %d, index %d, plan %d"
                         rw0 rw1 rw2)
                  else if seq0 <> seq1 then
                    Fail "rewrite sequences differ: naive vs index"
                  else if seq0 <> seq2 then
                    Fail "rewrite sequences differ: naive vs plan"
                  else if fp0 <> fp1 then
                    Fail "final graphs differ: naive vs index"
                  else if fp0 <> fp2 then
                    Fail "final graphs differ: naive vs plan"
                  else Pass)
          | _ -> Discard)

(* The egraph engine's contract: [Egraph] is the plan engine plus
   a cost-guided equality-saturation post-phase whose splices come only
   from the program's own rules (rewrite-reachable by construction) and
   commit only on strict whole-graph cost improvement. So on the same
   recipe it must leave a valid graph never costlier than the plan
   engine's result under the kernel cost model — and when the post-phase
   splices nothing, a graph isomorphic to the plan engine's. Both runs
   rebuild the recipe from scratch ([Gen.build] is deterministic), so the
   comparison is on identical inputs. *)
let egraph_pass_agreement recipe =
  let device = Cost.a6000 in
  let run engine =
    let _env, g, prog = Gen.build recipe in
    let stats = Pass.run_cfg ~config:(with_engine engine) prog g in
    if stats.Pass.fuel_exhausted > 0 then None else Some (g, stats)
  in
  match (run Pass.Plan, run Pass.Egraph) with
  | None, _ | _, None -> Discard
  | Some (gp, _), Some (ge, estats) -> (
      match Graph.validate ge with
      | _ :: _ as errs ->
          Fail
            ("egraph engine left an invalid graph: " ^ String.concat "; " errs)
      | [] ->
          let cp = Exec.graph_cost device gp
          and ce = Exec.graph_cost device ge in
          if ce > cp +. (1e-9 *. Float.max 1.0 cp) then
            Fail
              (Printf.sprintf
                 "egraph result costlier than plan: %.9fs vs %.9fs (ran as \
                  %s, stop %S, spliced %d)"
                 ce cp estats.Pass.engine_used estats.Pass.sat_stop
                 estats.Pass.sat_spliced)
          else if
            estats.Pass.sat_spliced = 0 && fingerprint ge <> fingerprint gp
          then Fail "post-phase spliced nothing yet the graphs differ"
          else Pass)

let graph_validate recipe =
  let _env, g, prog = Gen.build recipe in
  match Graph.validate g with
  | _ :: _ as errs ->
      Fail ("generated graph invalid: " ^ String.concat "; " errs)
  | [] -> (
      let stats = Pass.run_cfg ~config:(with_engine Pass.Plan) prog g in
      match Graph.validate g with
      | [] -> if stats.Pass.fuel_exhausted > 0 then Discard else Pass
      | errs ->
          Fail ("graph invalid after rewriting: " ^ String.concat "; " errs))

(* ------------------------------------------------------------------ *)
(* Fault-injection properties                                          *)
(* ------------------------------------------------------------------ *)

(* The pass counts each per-pattern statistic where it happens and emits
   an event beside it; recount the counters from a capture of exactly the
   run that produced [stats] and list every disagreement. *)
let counter_mismatches (stats : Pass.stats) events =
  (* (pattern, counter) -> recount, in floats so [match_time] fits too *)
  let tally = Hashtbl.create 64 in
  let add pattern field v =
    let k = (pattern, field) in
    Hashtbl.replace tally k
      (v +. Option.value ~default:0. (Hashtbl.find_opt tally k))
  in
  let bump pattern field = add pattern field 1. in
  List.iter
    (fun (e : Obs.event) ->
      match e.Obs.kind with
      | Obs.Match_attempt { pattern; outcome; _ } ->
          bump pattern "attempts";
          add pattern "match_time" e.Obs.dur;
          if outcome = Obs.Matched then bump pattern "matches"
      | Obs.Pruned { pattern } -> bump pattern "skipped"
      | Obs.Fuel_exhausted { pattern; _ } -> bump pattern "fuel_exhausted"
      | Obs.Guard_reject { pattern; _ } -> bump pattern "guard_rejections"
      | Obs.Type_reject { pattern; _ } -> bump pattern "type_rejections"
      | Obs.Cycle_rejected { pattern; _ } -> bump pattern "cycle_rejections"
      | Obs.Rule_fired { pattern; _ } -> bump pattern "rewrites"
      | Obs.Rolled_back { pattern; _ } -> bump pattern "rolled_back"
      | Obs.Quarantined { pattern; _ } -> bump pattern "quarantined"
      | _ -> ())
    events;
  let counted pattern field =
    Option.value ~default:0. (Hashtbl.find_opt tally (pattern, field))
  in
  let total field =
    Hashtbl.fold (fun (_, f) v acc -> if f = field then acc +. v else acc) tally 0.
  in
  let differ who (field, kept) events =
    if Float.equal kept events then None
    else
      Some (Printf.sprintf "%s %s: stats %.9g, events %.9g" who field kept events)
  in
  let n = float_of_int in
  List.concat_map
    (fun (ps : Pass.pattern_stats) ->
      let name = ps.Pass.ps_name in
      List.filter_map
        (fun ((field, _) as kept) -> differ name kept (counted name field))
        [
          ("attempts", n ps.Pass.attempts);
          ("skipped", n ps.Pass.skipped);
          ("plan_pruned", n ps.Pass.plan_pruned);
          ("matches", n ps.Pass.matches);
          ("rewrites", n ps.Pass.rewrites);
          ("fuel_exhausted", n ps.Pass.fuel_exhausted);
          ("guard_rejections", n ps.Pass.guard_rejections);
          ("rolled_back", n ps.Pass.rolled_back);
          ("quarantined", n (Bool.to_int ps.Pass.quarantined));
          ("match_time", ps.Pass.match_time);
        ])
    stats.Pass.per_pattern
  @ List.filter_map
      (fun ((field, _) as kept) -> differ "pass" kept (total field))
      [
        ("rewrites", n (stats.Pass.total_rewrites - stats.Pass.sat_spliced));
        ("fuel_exhausted", n stats.Pass.fuel_exhausted);
        ("type_rejections", n stats.Pass.type_rejections);
        ("cycle_rejections", n stats.Pass.cycle_rejections);
        ("rolled_back", n stats.Pass.rolled_back);
        ("quarantined", n stats.Pass.quarantined);
      ]

(* Crash safety: under ANY seeded fault schedule — failed instantiates,
   raising guards, fuel cuts, forced cycle rejections, poisoned engine
   preparation — the pass neither raises nor leaves the graph invalid, on
   every engine. Rolled-back firings, quarantines, degradations and even a
   fatal [Engine_unavailable] are all acceptable outcomes; a torn graph or
   an escaped exception is not (the latter is caught by [protect]). The
   stats of every such run must also agree with its event stream
   ([counter_mismatches]). *)
let crash_safety (r : Gen.graph_recipe) =
  let rate = 0.3 in
  let failure =
    List.fold_left
      (fun acc (engine, ename) ->
        match acc with
        | Some _ -> acc
        | None -> (
            let _env, g, prog = Gen.build r in
            let inject =
              Inject.seeded ~seed:((r.Gen.gr_seed * 7919) + 17) ~rate ()
            in
            let capture = Obs.Collector.create () in
            let stats =
              Obs.with_sink (Obs.Collector.sink capture)
                (fun () ->
                  Pass.run_cfg
                    ~config:
                      { (with_engine engine) with inject; quarantine_after = 3 }
                    prog g)
            in
            match Graph.validate g with
            | _ :: _ as errs ->
                Some
                  (Printf.sprintf "%s engine left an invalid graph: %s" ename
                     (String.concat "; " errs))
            | [] -> (
                match
                  counter_mismatches stats (Obs.Collector.events capture)
                with
                | [] -> None
                | diffs ->
                    Some
                      (Printf.sprintf
                         "%s engine's counters disagree with its events: %s"
                         ename (String.concat "; " diffs)))))
      None engine_names
  in
  match failure with Some msg -> Fail msg | None -> Pass

(* Rollback exactness: a schedule that fails EVERY instantiation must
   leave the graph byte-identical (by structural fingerprint) to its
   pre-pass state — every attempted firing was rolled back, nothing
   leaked, nothing rewired. *)
let rollback_exact (r : Gen.graph_recipe) =
  let _env, g, prog = Gen.build r in
  let before_fp = fingerprint g in
  let before_n = List.length (Graph.live_nodes g) in
  let inject =
    Inject.seeded ~seed:r.Gen.gr_seed ~rate:1.0
      ~points:[ Inject.Instantiate_fail ] ()
  in
  let stats =
    Pass.run_cfg ~config:{ (with_engine Pass.Naive) with inject } prog g
  in
  if stats.Pass.total_rewrites <> 0 then
    Fail
      (Printf.sprintf
         "%d rewrite(s) fired although every instantiate was failed"
         stats.Pass.total_rewrites)
  else if not (String.equal (fingerprint g) before_fp) then
    Fail "rollbacks did not restore the original graph fingerprint"
  else
    let after_n = List.length (Graph.live_nodes g) in
    if after_n <> before_n then
      Fail
        (Printf.sprintf "live node count changed: %d before, %d after"
           before_n after_n)
    else Pass

(* ------------------------------------------------------------------ *)
(* Codec properties                                                    *)
(* ------------------------------------------------------------------ *)

let codec_roundtrip prog =
  match (try Ok (Codec.encode prog) with Codec.Encode_error m -> Error m) with
  | Error m -> Fail ("encode rejected a generated program: " ^ m)
  | Ok bytes1 -> (
      match Codec.decode bytes1 with
      | Error m -> Fail ("decode failed on encoder output: " ^ m)
      | Ok prog2 ->
          if Program.pattern_names prog2 <> Program.pattern_names prog then
            Fail "decoded program has different pattern names"
          else
            let bytes2 = Codec.encode prog2 in
            if String.equal bytes1 bytes2 then Pass
            else
              Fail
                (Printf.sprintf
                   "re-encoding is not byte-identical (%d vs %d bytes)"
                   (String.length bytes1) (String.length bytes2)))

let wire_int r =
  Srng.freq r
    [
      (3, Srng.any_int);
      ( 3,
        fun r ->
          Srng.pick r
            [ 0; 1; -1; 63; 64; -64; -65; max_int; min_int; 0x7FFFFFFF;
              -0x80000000; max_int - 1; min_int + 1 ] );
      (2, fun r -> Srng.int r 1024 - 512);
    ]
  [@@ocamlformat "disable"]

let shrink_int n = if n = 0 then [] else [ 0; n / 2; n - (n / abs n) ]

let codec_wire n =
  let buf = Buffer.create 16 in
  Codec.Wire.put_signed buf n;
  let c = Codec.Wire.cursor (Buffer.contents buf) in
  let n' = Codec.Wire.get_signed c in
  if n' <> n then
    Fail (Printf.sprintf "zigzag roundtrip: put %d, got %d" n n')
  else if Codec.Wire.offset c <> Buffer.length buf then
    Fail "zigzag decode did not consume the whole encoding"
  else if n < 0 then Pass
  else
    let buf = Buffer.create 16 in
    Codec.Wire.put_varint buf n;
    let c = Codec.Wire.cursor (Buffer.contents buf) in
    let n' = Codec.Wire.get_varint c in
    if n' <> n then
      Fail (Printf.sprintf "varint roundtrip: put %d, got %d" n n')
    else Pass

(* Graph codec: a generated well-typed graph survives encode / decode
   with an identical structural fingerprint (node ids and symbol uids are
   not preserved — isomorphism is the contract), and the decoder is total
   on mangled buffers: truncations and bit flips yield [Error], never an
   exception. The decode side mirrors the server: a fresh [Std_ops]
   environment extended by the decls travelling in the wire decl table. *)
let codec_graph_roundtrip (r : Gen.graph_recipe) =
  let _env, g, _prog = Gen.build r in
  let fp = fingerprint g in
  let bytes = Codec.Graphs.encode g in
  let decode bytes =
    let fresh = Std_ops.make () in
    Codec.Graphs.decode_into ~sg:fresh.Std_ops.sg ~infer:fresh.Std_ops.infer
      bytes
  in
  match decode bytes with
  | Error m -> Fail ("decode failed on encoder output: " ^ m)
  | Ok g2 -> (
      let fp2 = fingerprint g2 in
      if not (String.equal fp2 fp) then
        Fail
          (Printf.sprintf
             "decoded graph is not isomorphic to the original\n\
              before: %s\nafter:  %s" fp fp2)
      else if not (String.equal (Codec.Graphs.encode g2) bytes) then
        Fail "re-encoding the decoded graph is not byte-identical"
      else
        (* mangled buffers: decode must answer [Error] without raising
           (an escaped exception is caught by [protect] and fails the
           property with its backtrace) *)
        let n = String.length bytes in
        let rng = Srng.create ~seed:((r.Gen.gr_seed * 31) + 7) in
        let truncations =
          List.filter (fun k -> k < n) [ 0; 1; n / 4; n / 2; n - 1 ]
        in
        let mangled =
          List.map (fun k -> String.sub bytes 0 k) truncations
          @ List.init 8 (fun _ ->
                let i = Srng.int rng n in
                let bit = Srng.int rng 8 in
                let b = Bytes.of_string bytes in
                Bytes.set b i
                  (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
                Bytes.to_string b)
        in
        match
          List.find_map
            (fun bad ->
              if String.equal bad bytes then None
              else match decode bad with Ok _ -> Some bad | Error _ -> None)
            mangled
        with
        | Some bad ->
            Fail
              (Printf.sprintf
                 "a mangled buffer (%d bytes, original %d) decoded \
                  successfully" (String.length bad) n)
        | None -> Pass)

(* ------------------------------------------------------------------ *)
(* Frontend properties                                                 *)
(* ------------------------------------------------------------------ *)

let entries_equivalent (e1 : Program.entry) (e2 : Program.entry) =
  if e1.Program.pname <> e2.Program.pname then
    Some (Printf.sprintf "pattern names differ: %s vs %s" e1.Program.pname e2.Program.pname)
  else if not (Alpha.equal e1.Program.pattern e2.Program.pattern) then
    Some (Printf.sprintf "patterns for %s are not alpha-equivalent" e1.Program.pname)
  else if List.length e1.Program.rules <> List.length e2.Program.rules then
    Some (Printf.sprintf "rule counts for %s differ" e1.Program.pname)
  else
    List.fold_left2
      (fun acc (r1 : Rule.t) (r2 : Rule.t) ->
        match acc with
        | Some _ -> acc
        | None ->
            if r1.Rule.rule_name <> r2.Rule.rule_name then
              Some "rule names differ"
            else if not (Guard.equal r1.Rule.guard r2.Rule.guard) then
              Some (Printf.sprintf "guards of rule %s differ" r1.Rule.rule_name)
            else if r1.Rule.rhs <> r2.Rule.rhs then
              Some (Printf.sprintf "templates of rule %s differ" r1.Rule.rule_name)
            else None)
      None e1.Program.rules e2.Program.rules
  [@@ocamlformat "disable"]

let surface_roundtrip ast =
  let src = Format.asprintf "%a" Ast.pp_program ast in
  match Surface.parse src with
  | Error e ->
      Fail
        (Format.asprintf "printed program does not re-parse: %a"
           Surface.pp_error e)
  | Ok ast2 -> (
      let src2 = Format.asprintf "%a" Ast.pp_program ast2 in
      if not (String.equal src src2) then
        Fail "printing the re-parsed AST gives different text"
      else
        let elab a = Elaborate.program ~sg:(Signature.create ()) a in
        match (elab ast, elab ast2) with
        | Error _, Error _ -> Discard
        | Ok _, Error es ->
            Fail
              (Format.asprintf
                 "original elaborates but the re-parsed AST does not: %a"
                 (Format.pp_print_list Elaborate.pp_error)
                 es)
        | Error _, Ok _ ->
            Fail "re-parsed AST elaborates but the original does not"
        | Ok p1, Ok p2 ->
            if
              List.length p1.Program.entries <> List.length p2.Program.entries
            then Fail "entry counts differ after the round trip"
            else (
              match
                List.fold_left2
                  (fun acc e1 e2 ->
                    match acc with
                    | Some _ -> acc
                    | None -> entries_equivalent e1 e2)
                  None p1.Program.entries p2.Program.entries
              with
              | Some msg -> Fail msg
              | None -> Pass))

let lex_parse_total src =
  match (try Ok (Surface.parse src) with e -> Error (Printexc.to_string e)) with
  | Ok (Ok _) | Ok (Error _) -> Pass
  | Error msg -> Fail ("Surface.parse raised: " ^ msg)

let lex_string_back lit =
  match
    (try Ok (Lexer.tokenize lit) with Lexer.Lex_error (_, m) -> Error m)
  with
  | Error m -> Error ("literal does not lex: " ^ m)
  | Ok toks -> (
      match Array.to_list toks with
      | [ { Lexer.tok = Lexer.STRING s; _ }; { Lexer.tok = Lexer.EOF; _ } ] ->
          Ok s
      | _ -> Error "literal lexes to an unexpected token stream")

let string_roundtrip s =
  match lex_string_back (Lexer.quote_string s) with
  | Error m -> Fail ("quote_string: " ^ m)
  | Ok s' when not (String.equal s s') ->
      Fail (Printf.sprintf "quote_string roundtrip: %S -> %S" s s')
  | Ok _ -> (
      match lex_string_back (Format.asprintf "%a" Ast.pp_string_lit s) with
      | Error m -> Fail ("pp_string_lit: " ^ m)
      | Ok s' when not (String.equal s s') ->
          Fail (Printf.sprintf "pp_string_lit roundtrip: %S -> %S" s s')
      | Ok _ -> Pass)

(* ------------------------------------------------------------------ *)
(* The property table                                                  *)
(* ------------------------------------------------------------------ *)

let pair_case check =
  { gen = Gen.pair; shrink = Shrink.pair; check; show = show_pair }

let recipe_case check =
  {
    gen = Gen.graph_recipe;
    shrink = Shrink.graph_recipe;
    check;
    show = show_recipe;
  }

(* ------------------------------------------------------------------ *)
(* Static-analysis properties                                          *)
(* ------------------------------------------------------------------ *)

(* lint-soundness: every verdict {!Pypm_analysis.Analysis} commits to is
   checked against a dynamic authority on the same program:

   - [Dead_pattern] claims the pattern matches nothing: the backtracking
     matcher must fail on a stream of random probe terms, and the
     (complete) enumeration oracle must find no witness on any of them;
   - every shadowing / subsumption / overlap witness term must actually be
     matched by each pattern the diagnostic names;
   - [Analysis.subsumes p q = `Yes] claims p matches everything q does: on
     the probe stream, a q-match implies a p-match.

   The probe stream is derived deterministically from the program text, so
   a failure replays from the case seed alone. *)
let lint_soundness prog =
  let probe_rng = Srng.create ~seed:(Hashtbl.hash (show_program prog)) in
  let probes = List.init 40 (fun _ -> Gen.term probe_rng) in
  let matched p t = Outcome.is_matched (Matcher.matches ~interp ~fuel p t) in
  match Analysis.lint ~interp prog with
  | exception e -> Fail ("lint raised: " ^ Printexc.to_string e)
  | diags -> (
      let entry_pattern name =
        match Program.entry prog name with
        | Some e -> e.Program.pattern
        | None -> failwith ("diagnostic names unknown pattern " ^ name)
      in
      let check_diag (d : Analysis.diagnostic) =
        match d.Analysis.kind with
        | Analysis.Dead_pattern ->
            (* claimed: no term matches, under any alternate *)
            List.concat_map
              (fun name ->
                let p = entry_pattern name in
                List.filter_map
                  (fun t ->
                    if matched p t then
                      Some
                        (Printf.sprintf "%s flagged dead but matches %s" name
                           (Term.to_string t))
                    else
                      let r = Enumerate.all ~interp ~fuel p t in
                      if r.Enumerate.complete && r.Enumerate.witnesses <> []
                      then
                        Some
                          (Printf.sprintf
                             "%s flagged dead but the oracle matches %s" name
                             (Term.to_string t))
                      else None)
                  probes)
              d.Analysis.patterns
        | Analysis.Shadowed_branch | Analysis.Subsumed_pattern
        | Analysis.Overlapping_patterns -> (
            match d.Analysis.witness with
            | None -> []
            | Some w ->
                List.filter_map
                  (fun name ->
                    if matched (entry_pattern name) w then None
                    else
                      Some
                        (Printf.sprintf
                           "%s witness %s does not match pattern %s"
                           (Analysis.kind_name d.Analysis.kind)
                           (Term.to_string w) name))
                  d.Analysis.patterns)
        (* [Unsat_guard] may sit inside one alternate arm or a [Mu] body;
           it makes that guard dead, not the whole pattern — nothing to
           cross-check dynamically. [Dead_branch] speaks about one arm,
           which the matcher cannot be asked about in isolation. *)
        | Analysis.Dead_branch | Analysis.Unsat_guard
        | Analysis.Vacuous_guard ->
            []
      in
      let witness_failures = List.concat_map check_diag diags in
      (* subsumption spot-check over every ordered pattern pair *)
      let pats =
        List.map (fun (e : Program.entry) -> (e.pname, e.pattern))
          prog.Program.entries
      in
      let subsumption_failures =
        List.concat_map
          (fun (ni, pi) ->
            List.concat_map
              (fun (nj, pj) ->
                if ni == nj || Analysis.subsumes pi pj <> `Yes then []
                else
                  List.filter_map
                    (fun t ->
                      if matched pj t && not (matched pi t) then
                        Some
                          (Printf.sprintf
                             "%s subsumes %s, but %s matches only the \
                              subsumed pattern"
                             ni nj (Term.to_string t))
                      else None)
                    probes)
              pats)
          pats
      in
      match witness_failures @ subsumption_failures with
      | [] -> Pass
      | msgs -> Fail (String.concat "; " msgs))

let props : prop list =
  [
    Prop
      {
        name = "machine-matcher-faithful";
        doc = "abstract machine = backtracking matcher (faithful policy)";
        cost = 1;
        case = pair_case (machine_vs_matcher Outcome.Policy.Faithful);
      };
    Prop
      {
        name = "machine-matcher-backtrack";
        doc = "abstract machine = backtracking matcher (backtrack policy)";
        cost = 1;
        case = pair_case (machine_vs_matcher Outcome.Policy.Backtrack);
      };
    Prop
      {
        name = "oracle-first-witness";
        doc = "machine success/failure agrees with the enumeration oracle";
        cost = 2;
        case = pair_case oracle_first_witness;
      };
    Prop
      {
        name = "engines-agree";
        doc = "naive/index/plan engines: same matches, rewrites and graphs";
        cost = 100;
        case = recipe_case engines_agree;
      };
    Prop
      {
        name = "egraph-pass-agreement";
        doc = "egraph engine: valid graph, never costlier than plan's, \
               isomorphic to it when the post-phase splices nothing";
        cost = 120;
        case = recipe_case egraph_pass_agreement;
      };
    Prop
      {
        name = "graph-validate";
        doc = "rewritten graphs stay structurally valid";
        cost = 50;
        case = recipe_case graph_validate;
      };
    Prop
      {
        name = "crash_safety";
        doc = "any fault schedule: no exception, graph stays valid";
        cost = 50;
        case = recipe_case crash_safety;
      };
    Prop
      {
        name = "rollback_exact";
        doc = "failing every instantiate leaves the graph fingerprint intact";
        cost = 30;
        case = recipe_case rollback_exact;
      };
    Prop
      {
        name = "lint-soundness";
        doc = "static lint verdicts hold dynamically: dead patterns never \
               match (matcher + oracle), witnesses re-match, subsumption \
               is extensional on probe terms";
        cost = 8;
        case =
          {
            gen = Gen.core_program;
            shrink = Shrink.core_program;
            check = lint_soundness;
            show = show_program;
          };
      };
    Prop
      {
        name = "codec-roundtrip";
        doc = "encode / decode / re-encode is byte-identical";
        cost = 2;
        case =
          {
            gen = Gen.core_program;
            shrink = Shrink.core_program;
            check = codec_roundtrip;
            show = show_program;
          };
      };
    Prop
      {
        name = "codec-wire";
        doc = "varint / zigzag primitives round-trip every int";
        cost = 1;
        case =
          {
            gen = wire_int;
            shrink = shrink_int;
            check = codec_wire;
            show = string_of_int;
          };
      };
    Prop
      {
        name = "codec-graph-roundtrip";
        doc = "graph encode / decode preserves the structural fingerprint; \
               mangled buffers decode to errors, never exceptions";
        cost = 40;
        case = recipe_case codec_graph_roundtrip;
      };
    Prop
      {
        name = "surface-roundtrip";
        doc = "print / parse / elaborate returns alpha-equivalent programs";
        cost = 5;
        case =
          {
            gen = Gen.ast_program;
            shrink = Shrink.ast_program;
            check = surface_roundtrip;
            show = show_ast;
          };
      };
    Prop
      {
        name = "lex-parse-total";
        doc = "hostile sources produce errors, never exceptions";
        cost = 2;
        case =
          {
            gen = Gen.garbage_source;
            shrink = Shrink.string_;
            check = lex_parse_total;
            show = show_string;
          };
      };
    Prop
      {
        name = "string-roundtrip";
        doc = "string-literal quoting and lexing are inverse";
        cost = 1;
        case =
          {
            gen = Gen.string_;
            shrink = Shrink.string_;
            check = string_roundtrip;
            show = show_string;
          };
      };
  ]

let all_prop_names = List.map (fun (Prop p) -> p.name) props

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let run_case (type a) name ~case_seed (case : a case) =
  let rng = Srng.create ~seed:case_seed in
  match (try Ok (case.gen rng) with e -> Error (Printexc.to_string e)) with
  | Error msg ->
      `Fail
        {
          f_prop = name;
          f_case_seed = case_seed;
          f_message = "generator raised: " ^ msg;
          f_original = "<generator failure>";
          f_minimized = "<generator failure>";
          f_shrink_steps = 0;
        }
  | Ok x -> (
      match protect case.check x with
      | Pass -> `Pass
      | Discard -> `Discard
      | Fail msg ->
          let y, msg', steps = minimize case x msg in
          `Fail
            {
              f_prop = name;
              f_case_seed = case_seed;
              f_message = msg';
              f_original = case.show x;
              f_minimized = case.show y;
              f_shrink_steps = steps;
            })

let run_prop (Prop p) ~seed ~work =
  let cases = max 1 (work / p.cost) in
  let passed = ref 0 and discarded = ref 0 and executed = ref 0 in
  let failure = ref None in
  let i = ref 0 in
  while !failure = None && !i < cases do
    incr executed;
    (match run_case p.name ~case_seed:(seed + !i) p.case with
    | `Pass -> incr passed
    | `Discard -> incr discarded
    | `Fail f -> failure := Some f);
    incr i
  done;
  {
    p_name = p.name;
    p_cases = !executed;
    p_passed = !passed;
    p_discarded = !discarded;
    p_failure = !failure;
  }

let select_props names =
  match names with
  | [] -> props
  | names ->
      List.map
        (fun n ->
          match List.find_opt (fun (Prop p) -> String.equal p.name n) props with
          | Some p -> p
          | None ->
              invalid_arg
                (Printf.sprintf "Fuzz.run: unknown property %S (known: %s)" n
                   (String.concat ", " all_prop_names)))
        names

let run ?(props = []) ~seed ~budget () =
  let selected = select_props props in
  let work = max 1 (budget / max 1 (List.length selected)) in
  {
    r_seed = seed;
    r_budget = budget;
    r_props = List.map (fun p -> run_prop p ~seed ~work) selected;
  }

let ok report = List.for_all (fun p -> p.p_failure = None) report.r_props

let pp_report ppf report =
  Format.fprintf ppf "fuzz: seed %d, budget %d@." report.r_seed
    report.r_budget;
  List.iter
    (fun p ->
      match p.p_failure with
      | None ->
          Format.fprintf ppf "  PASS %-26s %d cases (%d passed, %d discarded)@."
            p.p_name p.p_cases p.p_passed p.p_discarded
      | Some f ->
          Format.fprintf ppf "  FAIL %-26s after %d cases@." p.p_name p.p_cases;
          Format.fprintf ppf "       %s@." f.f_message;
          Format.fprintf ppf "       counterexample (as generated):@.";
          Format.fprintf ppf "%s@."
            (String.concat "\n"
               (List.map (fun l -> "         " ^ l)
                  (String.split_on_char '\n' f.f_original)));
          if f.f_shrink_steps > 0 then (
            Format.fprintf ppf "       minimized (%d shrink steps):@."
              f.f_shrink_steps;
            Format.fprintf ppf "%s@."
              (String.concat "\n"
                 (List.map (fun l -> "         " ^ l)
                    (String.split_on_char '\n' f.f_minimized))));
          Format.fprintf ppf
            "       replay: pypmc fuzz --prop %s --seed %d --budget 1@."
            f.f_prop f.f_case_seed)
    report.r_props;
  let failed =
    List.length (List.filter (fun p -> p.p_failure <> None) report.r_props)
  in
  if failed = 0 then
    Format.fprintf ppf "all %d properties passed@."
      (List.length report.r_props)
  else Format.fprintf ppf "%d properties FAILED@." failed
