(* The in-process workloads ([zoo], [deep]): one caller, closed loop,
   each op compiling a freshly built graph through [Pypm_api.run]. *)

open Pypm

(* The engine every workload uses: the one the serve protocol's default
   options name, resolved by name. *)
let engine_name = Protocol.default_options.Protocol.engine

let engine =
  match
    List.find_opt
      (fun e -> String.equal (Pass.engine_name e) engine_name)
      [ Pass.Naive; Pass.Index; Pass.Plan; Pass.Egraph ]
  with
  | Some e -> e
  | None -> failwith ("unknown default engine " ^ engine_name)

let pattern_set = "full"

(* The pass configuration the serve worker derives from the same
   default options. *)
let config =
  let o = Protocol.default_options in
  {
    Api.Config.default with
    Api.Config.engine = Some engine;
    check_types = o.Protocol.check_types;
    fuel = o.Protocol.fuel;
    max_rewrites = o.Protocol.max_rewrites;
    deadline_s = o.Protocol.deadline_s;
    quarantine_after = o.Protocol.quarantine_after;
  }

type ctx = { env : Std_ops.env; prepared : Pass.prepared }

(* env + program + admission lint + prepare: what a caller pays before
   its first compile. Returns the context and the lint and prepare
   times. *)
let setup spans =
  let env = Spans.with_span spans "setup.env" Api.env in
  let program = Corpus.full_program env.Std_ops.sg in
  let t0 = Spans.now () in
  let errs =
    Spans.with_span spans "setup.lint" (fun () ->
        Analysis.errors (Api.lint ~overlaps:false program))
  in
  if errs <> [] then failwith "the full pattern set fails admission lint";
  let t1 = Spans.now () in
  let prepared =
    Spans.with_span spans "setup.prepare" (fun () -> Api.prepare ~config program)
  in
  let t2 = Spans.now () in
  ({ env; prepared }, t1 -. t0, t2 -. t1)

(* Build a model against a per-op copy of the environment's signature
   (as the serve worker does per request), so fresh input symbols do
   not pile up in the long-lived one. *)
let build ctx m =
  let env = { ctx.env with Std_ops.sg = Signature.copy ctx.env.Std_ops.sg } in
  Inputs.build env m

(* Counters one pass reports, kept per op for the traced summary. *)
type pass_counts = {
  iterations : int;
  nodes_visited : int;
  rewrites : int;
  collected : int;
  rolled_back : int;
  attempts : int;
  plan_pruned : int;
  plan_walk_s : float;
  matcher_s : float;
}

let pass_counts (s : Pass.stats) =
  let sum f = List.fold_left (fun a p -> a + f p) 0 s.Pass.per_pattern in
  {
    iterations = s.Pass.iterations;
    nodes_visited = s.Pass.nodes_visited;
    rewrites = s.Pass.total_rewrites;
    collected = s.Pass.collected;
    rolled_back = s.Pass.rolled_back;
    attempts = sum (fun p -> p.Pass.attempts);
    plan_pruned = sum (fun p -> p.Pass.plan_pruned);
    plan_walk_s = s.Pass.plan_time;
    matcher_s =
      List.fold_left (fun a p -> a +. p.Pass.match_time) 0. s.Pass.per_pattern;
  }

type op = {
  run_s : float;  (* the Pypm_api.run call *)
  live_in : int;
  live_out : int;
  hot : bool;  (* a repeat of an input already compiled in this run *)
  fp_in : string;  (* Verify.fingerprint of the input *)
  speedup : float;  (* simulated cost before / after *)
  problems : string list;  (* verification failures *)
  counts : pass_counts;
}

(* The benchmark-owned result cache of the traced replay, keyed like the
   server's: program x option block x graph fingerprint. *)
let replay_key fp =
  Digest.to_hex
    (Digest.string
       (String.concat "\x00"
          [ "named:" ^ pattern_set; Protocol.options_fingerprint Protocol.default_options; fp ]))

(* The layer calls of a traced op, each in its own span. [probe]: the
   whole-graph operations the pass repeats every iteration, once on the
   input. *)
let probe spans g =
  let sp name f = Spans.with_span spans name f in
  ignore (sp "graph.live_nodes" (fun () -> Graph.live_nodes g));
  ignore (sp "graph.gc" (fun () -> Graph.gc g));
  ignore (sp "term_view.create" (fun () -> Term_view.create g))

(* The serve worker's lookup path on encoded input bytes: decode,
   fingerprint, cache find. *)
let lookup spans ctx cache bytes_in =
  let sp name f = Spans.with_span spans name f in
  let sg = Signature.copy ctx.env.Std_ops.sg in
  let decoded =
    sp "codec.decode" (fun () ->
        Codec.Graphs.decode_into ~sg ~infer:ctx.env.Std_ops.infer bytes_in)
  in
  let decoded = match decoded with Ok d -> d | Error e -> failwith ("decode: " ^ e) in
  let fp = sp "fuzz.fingerprint" (fun () -> Fuzz.fingerprint decoded) in
  let key = replay_key fp in
  (decoded, key, sp "cache.find" (fun () -> Cache.find cache key))

(* Matching alone, on an identical copy of the input. *)
let match_copy spans ctx copy =
  ignore
    (Spans.with_span spans "pass.match_only" (fun () ->
         Pass.match_only_cfg ~config (Pass.prepared_program ctx.prepared) copy))

(* The serve worker's miss path after the pass: encode the result, render
   the stats, encode the outcome, insert it in the cache. Returns the
   outcome body. *)
let respond spans cache (stats : Pass.stats) g ~key ~hit =
  let sp name f = Spans.with_span spans name f in
  let out = sp "codec.encode" (fun () -> Codec.Graphs.encode g) in
  let sj = sp "pass.stats_json" (fun () -> Api.stats_json stats) in
  let body =
    sp "protocol.encode_outcome" (fun () ->
        Protocol.encode_outcome
          { Protocol.graph = out; stats_json = sj; errors = stats.Pass.errors;
            fatal = stats.Pass.fatal })
  in
  if hit = None then sp "cache.add" (fun () -> Cache.add cache key body);
  (out, body)

let run spans ctx g =
  Spans.with_span spans "pass.run" (fun () -> Api.run ~config ctx.prepared g)

(* Run ops until [budget] seconds of wall time have passed. Input
   building and verification happen inside the loop but outside every
   timing. [seen] maps the input fingerprints compiled so far to their
   output fingerprints; it is the caller's, so that a sequence of ops
   can be split over several loops. *)
let loop ~spans ~seen ~next ~budget ctx =
  let ops = ref [] in
  let start = Spans.now () in
  let id = ref 0 in
  while Spans.now () -. start < budget do
    incr id;
    Spans.set_op spans !id;
    let m = next () in
    let g = build ctx m in
    let reference = Inputs.reference m g in
    let fp_in = Verify.fingerprint g in
    let live_in = Graph.live_count g in
    let hot = Hashtbl.mem seen fp_in in
    (* traced only: an identical copy of the input, built outside every
       span; matching alone and the whole-graph probes run on it, so the
       pass starts from the same graph as in an untraced op *)
    let copy = if spans.Spans.enabled then Some (build ctx m) else None in
    let stats, run_s =
      Spans.with_span spans "op" (fun () ->
          Option.iter
            (fun copy ->
              match_copy spans ctx copy;
              probe spans copy)
            copy;
          let t0 = Spans.now () in
          let stats = run spans ctx g in
          (stats, Spans.now () -. t0))
    in
    let problems = Verify.check reference (Verify.status_of_stats stats) g in
    let fp_out = Verify.fingerprint g in
    let problems =
      match Hashtbl.find_opt seen fp_in with
      | Some prev when not (String.equal prev fp_out) ->
          "equal inputs gave different outputs" :: problems
      | _ ->
          Hashtbl.replace seen fp_in fp_out;
          problems
    in
    ops :=
      {
        run_s;
        live_in;
        live_out = Graph.live_count g;
        hot;
        fp_in;
        speedup = Verify.speedup reference g;
        problems;
        counts = pass_counts stats;
      }
      :: !ops
  done;
  List.rev !ops
