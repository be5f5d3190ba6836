(* The repository benchmark's main program: one workload, one seed, one
   measured run. Usage:

     main.exe --workload zoo|deep|serve --seed N --seconds S --trace 0|1
              [--pypmc PATH] [--out-dir DIR]

   Prints a human-readable report on stderr and, as the last line of
   stdout, one JSON object: {"correct", "attempted", "failed",
   "metrics"}. With --trace 0 the metrics are the end-to-end ones; with
   --trace 1 they are the per-layer ones from a separate traced run.
   Exits nonzero without a result line if any output fails
   verification. *)

open Perfbench

let usage () =
  prerr_endline
    "usage: main.exe --workload zoo|deep|serve --seed N --seconds S --trace \
     0|1 [--pypmc PATH] [--out-dir DIR]";
  exit 2

let () =
  (* exit through [at_exit], which stops the serve child *)
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> exit 3));
  let workload = ref "" and seed = ref 0 and seconds = ref 10. in
  let trace = ref 0 and pypmc = ref "" and out_dir = ref ".perfbench_run" in
  let rec parse = function
    | "--workload" :: v :: r -> workload := v; parse r
    | "--seed" :: v :: r -> seed := int_of_string v; parse r
    | "--seconds" :: v :: r -> seconds := float_of_string v; parse r
    | "--trace" :: v :: r -> trace := int_of_string v; parse r
    | "--pypmc" :: v :: r -> pypmc := v; parse r
    | "--out-dir" :: v :: r -> out_dir := v; parse r
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if !seconds <= 0. || (!trace <> 0 && !trace <> 1) then usage ();
  Printf.eprintf "perfbench: workload %s, seed %d, %.0f s, trace %d; engine %s, \
                  pattern set %s, nproc %d\n%!"
    !workload !seed !seconds !trace Inproc.engine_name Inproc.pattern_set
    (Domain.recommended_domain_count ());
  let traced = !trace = 1 in
  let r =
    match !workload with
    | ("zoo" | "deep") as w ->
        Report.inproc ~workload:w ~seed:!seed ~seconds:!seconds ~traced
          ~out_dir:!out_dir
    | "serve" ->
        if !pypmc = "" then usage ();
        Report.serve ~seed:!seed ~seconds:!seconds ~traced ~pypmc:!pypmc
          ~out_dir:!out_dir
    | _ -> usage ()
  in
  List.iter (fun p -> Printf.eprintf "FAILED: %s\n" p) r.Report.failures;
  let bad_metric =
    List.exists (fun (_, v, _) -> not (Float.is_finite v)) !(r.Report.metrics)
  in
  if r.Report.failed > 0 || r.Report.failures <> [] || bad_metric then begin
    Printf.eprintf "perfbench: %d of %d ops failed verification%s\n%!"
      r.Report.failed r.Report.attempted
      (if bad_metric then " (or a metric is undefined)" else "");
    exit 1
  end;
  Summary.emit ~correct:true ~attempted:r.Report.attempted ~failed:r.Report.failed
    r.Report.metrics
