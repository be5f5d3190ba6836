(* egraph-smoke: the [Pass ~engine:Egraph] acceptance gate.

   Sweeps both figure suites (the HF transformer zoo and the TV CNN zoo,
   plus the multimodal models) with the full pattern corpus and, for every
   model, compiles it twice from a fresh build — once with the plan engine,
   once with the egraph engine — then asserts:

   - both final graphs validate;
   - the egraph result's simulated cost is never above the plan result's
     (the saturation post-phase commits only strict whole-graph
     improvements, so this holds by construction — a violation means the
     splice accounting broke);
   - the egraph engine actually ran as "egraph" (the corpus has
     convertible rules, so the degradation ladder must not step down).

   Exit status 0 iff every model agrees. Runs in seconds; wired into
   `make egraph-smoke` / `make check` and the CI egraph-smoke job. *)

open Pypm

let device = Cost.a6000

let () =
  let quick = Array.exists (String.equal "--quick") Sys.argv in
  let rec take n = function
    | x :: xs when n > 0 -> x :: take (n - 1) xs
    | _ -> []
  in
  let models =
    let all = Zoo.all () in
    if quick then take 6 all else all
  in
  Printf.printf "egraph-smoke: %d model(s), corpus 'both'\n%!"
    (List.length models);
  let failures = ref 0 and improved = ref 0 in
  List.iter
    (fun (m : Zoo.model) ->
      let compile engine =
        let env, g = m.Zoo.build () in
        let prog = Corpus.both_program env.Std_ops.sg in
        let config =
          { Pass.Config.default with Pass.Config.engine = Some engine }
        in
        let stats = Pass.run_cfg ~config prog g in
        (match Graph.validate g with
        | [] -> ()
        | errs ->
            incr failures;
            Printf.printf "  FAIL %-24s %s engine left an invalid graph: %s\n"
              m.Zoo.mname (Pass.engine_name engine)
              (String.concat "; " errs));
        (Exec.graph_cost device g, stats)
      in
      let plan_cost, _ = compile Pass.Plan in
      let egraph_cost, estats = compile Pass.Egraph in
      if not (String.equal estats.Pass.engine_used "egraph") then begin
        incr failures;
        Printf.printf "  FAIL %-24s egraph engine degraded to %s\n"
          m.Zoo.mname estats.Pass.engine_used
      end
      else if egraph_cost > plan_cost +. (1e-9 *. Float.max 1.0 plan_cost)
      then begin
        incr failures;
        Printf.printf "  FAIL %-24s egraph %.9fs > plan %.9fs\n" m.Zoo.mname
          egraph_cost plan_cost
      end
      else begin
        if egraph_cost < plan_cost -. (1e-12 *. Float.max 1.0 plan_cost) then
          incr improved;
        Printf.printf
          "  ok   %-24s plan %.6fs  egraph %.6fs  (sat %s, %d round(s), %d \
           union(s), %d spliced)\n"
          m.Zoo.mname plan_cost egraph_cost estats.Pass.sat_stop
          estats.Pass.sat_iterations estats.Pass.sat_unions
          estats.Pass.sat_spliced
      end)
    models;
  Printf.printf
    "egraph-smoke: %d model(s), %d failure(s), %d strictly improved by the \
     post-phase\n"
    (List.length models) !failures !improved;
  if !failures > 0 then exit 1
