(* Tests for the observability layer (lib/obs) and the three bugfixes that
   ride with it: fuel exhaustion is surfaced instead of silently collapsed
   into "no match", duplicate pattern names are rejected at Program
   construction, and Graph.replace/Graph.validate handle dead users and
   input cycles correctly. *)

open Pypm

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let env () = Std_ops.make ()

let fresh_graph () =
  let e = env () in
  (e, Graph.create ~sg:e.Std_ops.sg ~infer:e.Std_ops.infer ())

let f32 shape = Ty.make Dtype.F32 shape

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Bugfix 1: out-of-fuel is not a clean no-match                       *)
(* ------------------------------------------------------------------ *)

let test_fuel_exhausted_surfaces () =
  let e, g = (Option.get (Zoo.find "bert-tiny")).Zoo.build () in
  Obs.ring_reset ();
  let stats =
    Pass.run_cfg
      ~config:{ Pass.Config.default with Pass.Config.fuel = 5 }
      (Corpus.both_program e.Std_ops.sg)
      g
  in
  checkb "stats.fuel_exhausted > 0" true (stats.Pass.fuel_exhausted > 0);
  checkb "some pattern records fuel exhaustion" true
    (List.exists
       (fun (ps : Pass.pattern_stats) -> ps.Pass.fuel_exhausted > 0)
       stats.Pass.per_pattern);
  checki "total equals the per-pattern sum" stats.Pass.fuel_exhausted
    (List.fold_left
       (fun acc (ps : Pass.pattern_stats) -> acc + ps.Pass.fuel_exhausted)
       0 stats.Pass.per_pattern);
  (* the always-on ring buffer saw the typed events *)
  checkb "ring buffer recorded Fuel_exhausted events" true
    (List.exists
       (fun (ev : Obs.event) ->
         match ev.Obs.kind with Obs.Fuel_exhausted _ -> true | _ -> false)
       (Obs.recent ()))

let test_ample_fuel_reports_none () =
  let e, g = (Option.get (Zoo.find "bert-tiny")).Zoo.build () in
  let stats = Pass.run_cfg (Corpus.both_program e.Std_ops.sg) g in
  checki "no fuel exhaustion at the default bound" 0 stats.Pass.fuel_exhausted

(* ------------------------------------------------------------------ *)
(* Bugfix 2: duplicate pattern names are rejected                      *)
(* ------------------------------------------------------------------ *)

let test_duplicate_names_rejected () =
  let e = env () in
  let raised =
    try
      ignore
        (Program.make ~sg:e.Std_ops.sg [ Corpus.relu_chain; Corpus.relu_chain ]);
      false
    with Invalid_argument msg ->
      checkb "error names the duplicate" true (contains msg "duplicate");
      true
  in
  checkb "Program.make raises on duplicate names" true raised;
  (* unique names still construct *)
  let p = Program.make ~sg:e.Std_ops.sg [ Corpus.relu_chain ] in
  checki "singleton ok" 1 (List.length (Program.pattern_names p))

(* ------------------------------------------------------------------ *)
(* Bugfix 3: replace ignores dead users; validate flags input cycles   *)
(* ------------------------------------------------------------------ *)

let test_replace_ignores_dead_users () =
  let _, g = fresh_graph () in
  let x = Graph.input g ~name:"x" (f32 [ 4; 4 ]) in
  let b = Graph.add g Std_ops.relu [ x ] in
  Graph.set_outputs g [ b ];
  (* a dead user of [b], and a replacement reachable from that dead user:
     the old implementation cycle-checked dead users and raised here *)
  let d = Graph.add g Std_ops.relu [ b ] in
  let n = Graph.add g Std_ops.relu [ d ] in
  Graph.replace g ~old_root:b ~new_root:n;
  checkb "outputs rewired" true
    (List.exists (fun (o : Graph.node) -> o.Graph.id = n.Graph.id)
       (Graph.outputs g));
  checki "graph still validates" 0 (List.length (Graph.validate g))

let test_validate_flags_input_cycle () =
  let _, g = fresh_graph () in
  let x = Graph.input g ~name:"x" (f32 [ 4; 4 ]) in
  let a = Graph.add g Std_ops.relu [ x ] in
  let b = Graph.add g Std_ops.relu [ a ] in
  Graph.set_outputs g [ b ];
  checki "acyclic graph validates" 0 (List.length (Graph.validate g));
  (* manufacture a cycle: a's input becomes b, so a -> b -> a *)
  Graph.unsafe_set_inputs a [ b ];
  let errs = Graph.validate g in
  checkb "cycle detected" true (List.exists (fun m -> contains m "cycle") errs)

(* ------------------------------------------------------------------ *)
(* Ring buffer                                                         *)
(* ------------------------------------------------------------------ *)

let test_ring_buffer_wraps () =
  Obs.set_ring_capacity 8;
  for i = 1 to 20 do
    Obs.emit (Obs.Iteration { n = i })
  done;
  let seen =
    List.filter_map
      (fun (ev : Obs.event) ->
        match ev.Obs.kind with Obs.Iteration { n } -> Some n | _ -> None)
      (Obs.recent ())
  in
  checki "capacity bounds the ring" 8 (List.length seen);
  Alcotest.(check (list int))
    "oldest first, newest kept" [ 13; 14; 15; 16; 17; 18; 19; 20 ] seen;
  Obs.set_ring_capacity 4096

(* ------------------------------------------------------------------ *)
(* Counters agree with the event stream                                *)
(* ------------------------------------------------------------------ *)

(* Run a pass with a [Collector] attached and check every per-pattern
   counter against a recount of the captured events. *)
let run_counted ~config prog g =
  let c = Obs.Collector.create () in
  let stats =
    Obs.with_sink (Obs.Collector.sink c) (fun () -> Pass.run_cfg ~config prog g)
  in
  Alcotest.(check (list string))
    (Pass.engine_name (Option.get config.Pass.Config.engine)
    ^ ": counters agree with events")
    []
    (Fuzz.counter_mismatches stats (Obs.Collector.events c));
  stats

let sum field (stats : Pass.stats) =
  List.fold_left (fun acc ps -> acc + field ps) 0 stats.Pass.per_pattern

let test_counters_match_events () =
  let engines = [ Pass.Naive; Pass.Index; Pass.Plan ] in
  let with_engine e = { Pass.Config.default with Pass.Config.engine = Some e } in
  (* the zoo corpus: attempts, prunes, matches, rewrites *)
  List.iter
    (fun engine ->
      let e, g = (Option.get (Zoo.find "bert-tiny")).Zoo.build () in
      let stats =
        run_counted ~config:(with_engine engine)
          (Corpus.both_program e.Std_ops.sg)
          g
      in
      checkb "some rewrites" true (stats.Pass.total_rewrites > 0))
    engines;
  (* f64 operands: MMxyT matches, and both of its rules' guards reject *)
  List.iter
    (fun engine ->
      let env, g = fresh_graph () in
      let mm () =
        let x = Graph.input g ~name:"x" (Ty.make Dtype.F64 [ 2; 3 ]) in
        let w = Graph.input g ~name:"w" (Ty.make Dtype.F64 [ 5; 3 ]) in
        Graph.add g Std_ops.matmul [ x; Graph.add g Std_ops.trans [ w ] ]
      in
      Graph.set_outputs g [ mm (); mm () ];
      let stats =
        run_counted ~config:(with_engine engine)
          (Program.make ~sg:env.Std_ops.sg [ Corpus.mmxyt ])
          g
      in
      checkb "guards rejected" true
        (sum (fun ps -> ps.Pass.guard_rejections) stats > 0))
    engines;
  (* a fault-seeded run: rollbacks and fuel cuts *)
  let e, g = (Option.get (Zoo.find "bert-base")).Zoo.build () in
  let stats =
    run_counted
      ~config:
        {
          (with_engine Pass.Index) with
          Pass.Config.inject = Resilience.Inject.seeded ~seed:2 ~rate:0.25 ();
          quarantine_after = 3;
        }
      (Corpus.both_program e.Std_ops.sg)
      g
  in
  checkb "faults rolled firings back" true
    (sum (fun ps -> ps.Pass.rolled_back) stats > 0);
  checkb "faults cut fuel" true (stats.Pass.fuel_exhausted > 0)

(* ------------------------------------------------------------------ *)
(* Provenance                                                          *)
(* ------------------------------------------------------------------ *)

let provenance_key (s : Obs.Provenance.step) =
  Printf.sprintf "%s/%s %d->%d" s.Obs.Provenance.pattern s.Obs.Provenance.rule
    s.Obs.Provenance.matched_root s.Obs.Provenance.replacement_root

let test_provenance_replays_the_pass () =
  let run engine =
    let e, g = (Option.get (Zoo.find "bert-mini")).Zoo.build () in
    Pass.run_cfg
      ~config:{ Pass.Config.default with Pass.Config.engine = Some engine }
      (Corpus.both_program e.Std_ops.sg)
      g
  in
  let s_naive = run Pass.Naive in
  let s_plan = run Pass.Plan in
  checki "one step per rewrite (naive)" s_naive.Pass.total_rewrites
    (List.length s_naive.Pass.provenance);
  checki "one step per rewrite (plan)" s_plan.Pass.total_rewrites
    (List.length s_plan.Pass.provenance);
  List.iteri
    (fun i (s : Obs.Provenance.step) ->
      checki "steps are in firing order" i s.Obs.Provenance.seq)
    s_naive.Pass.provenance;
  Alcotest.(check (list string))
    "plan replays the same rewrite sequence as naive"
    (List.map provenance_key s_naive.Pass.provenance)
    (List.map provenance_key s_plan.Pass.provenance)

(* ------------------------------------------------------------------ *)
(* Chrome trace export                                                 *)
(* ------------------------------------------------------------------ *)

(* A tiny JSON syntax checker: enough to guarantee the writer emits a
   well-formed object Perfetto's parser will accept structurally. *)
let json_ok s =
  let n = String.length s in
  let fail = ref false in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    if peek () = Some c then advance () else fail := true
  in
  let rec value () =
    if !fail then ()
    else (
      skip_ws ();
      match peek () with
      | Some '{' -> obj ()
      | Some '[' -> arr ()
      | Some '"' -> str ()
      | Some ('-' | '0' .. '9') -> number ()
      | Some 't' -> literal "true"
      | Some 'f' -> literal "false"
      | Some 'n' -> literal "null"
      | _ -> fail := true)
  and literal w =
    if !pos + String.length w <= n && String.sub s !pos (String.length w) = w
    then pos := !pos + String.length w
    else fail := true
  and number () =
    let start = !pos in
    while
      (match peek () with
      | Some ('-' | '+' | '.' | 'e' | 'E' | '0' .. '9') -> true
      | _ -> false)
    do
      advance ()
    done;
    if !pos = start then fail := true
  and str () =
    expect '"';
    let fin = ref false in
    while (not !fin) && not !fail do
      match peek () with
      | None -> fail := true
      | Some '"' ->
          advance ();
          fin := true
      | Some '\\' ->
          advance ();
          advance ()
      | Some _ -> advance ()
    done
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then advance ()
    else
      let fin = ref false in
      while (not !fin) && not !fail do
        skip_ws ();
        str ();
        skip_ws ();
        expect ':';
        value ();
        skip_ws ();
        match peek () with
        | Some ',' -> advance ()
        | Some '}' ->
            advance ();
            fin := true
        | _ -> fail := true
      done
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then advance ()
    else
      let fin = ref false in
      while (not !fin) && not !fail do
        value ();
        skip_ws ();
        match peek () with
        | Some ',' -> advance ()
        | Some ']' ->
            advance ();
            fin := true
        | _ -> fail := true
      done
  in
  value ();
  skip_ws ();
  (not !fail) && !pos = n

let test_chrome_trace_is_valid_json () =
  let e, g = (Option.get (Zoo.find "bert-tiny")).Zoo.build () in
  let c = Obs.Collector.create () in
  ignore
    (Obs.with_sink (Obs.Collector.sink c) (fun () ->
         Pass.run_cfg
           ~config:
             {
               Pass.Config.default with
               Pass.Config.engine = Some Pass.Plan;
             }
           (Corpus.both_program e.Std_ops.sg)
           g));
  checkb "captured events" true (Obs.Collector.length c > 0);
  let json = Obs.Chrome.to_string (Obs.Collector.events c) in
  checkb "well-formed JSON" true (json_ok json);
  checkb "has a traceEvents array" true (contains json "\"traceEvents\"");
  (* escaping: a name with quotes/newlines still yields valid JSON *)
  let weird =
    [
      {
        Obs.ts = 0.;
        dur = 0.001;
        node = 3;
        kind = Obs.Rule_fired { pattern = "p\"q\n"; rule = "r\\s"; replacement = 7 };
      };
    ]
  in
  checkb "escapes special characters" true (json_ok (Obs.Chrome.to_string weird));
  checkb "empty capture is still valid" true (json_ok (Obs.Chrome.to_string []))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "obs"
    [
      ( "fuel",
        [
          Alcotest.test_case "starved run surfaces fuel_exhausted" `Quick
            test_fuel_exhausted_surfaces;
          Alcotest.test_case "default fuel reports none" `Quick
            test_ample_fuel_reports_none;
        ] );
      ( "program",
        [
          Alcotest.test_case "duplicate names rejected" `Quick
            test_duplicate_names_rejected;
        ] );
      ( "graph",
        [
          Alcotest.test_case "replace ignores dead users" `Quick
            test_replace_ignores_dead_users;
          Alcotest.test_case "validate flags an input cycle" `Quick
            test_validate_flags_input_cycle;
        ] );
      ( "ring",
        [ Alcotest.test_case "wraps and keeps newest" `Quick test_ring_buffer_wraps ] );
      ( "counters",
        [
          Alcotest.test_case "per-pattern counters agree with events" `Quick
            test_counters_match_events;
        ] );
      ( "provenance",
        [
          Alcotest.test_case "provenance replays the pass" `Quick
            test_provenance_replays_the_pass;
        ] );
      ( "chrome",
        [
          Alcotest.test_case "trace export is valid JSON" `Quick
            test_chrome_trace_is_valid_json;
        ] );
    ]
