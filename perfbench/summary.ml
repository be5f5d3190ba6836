(* Sample statistics and the result line. *)

(* The load harness's nearest-rank percentile; undefined (nan) on no
   samples, which fails the run rather than reading as 0. *)
let percentile samples p =
  match samples with
  | [] -> nan
  | _ ->
      let a = Array.of_list samples in
      Array.sort compare a;
      Pypm.Load.percentile a p

let median samples = percentile samples 50.
let sum = List.fold_left ( +. ) 0.

let geomean = function
  | [] -> nan
  | l -> exp (sum (List.map log l) /. float_of_int (List.length l))

(* Timed end-to-end metrics are medians over time windows. The measured
   loop is cut into [n] equal slices of [span] seconds in all, each
   slice gives its own value, and the metric is the median of those. A
   host slow phase that covers fewer than half of the slices then does
   not move the metric. [samples] pairs each value with its time since
   the loop began. *)
let windowed ~n ~span f samples =
  let slices = Array.make n [] in
  List.iter
    (fun (t, x) ->
      let i = Int.max 0 (Int.min (n - 1) (int_of_float (t /. span *. float_of_int n))) in
      slices.(i) <- x :: slices.(i))
    samples;
  median
    (List.filter_map
       (fun s ->
         if s = [] then None
         else
           let v = f (List.rev s) in
           if Float.is_finite v then Some v else None)
       (Array.to_list slices))

(* Up to 10 windows of at least 100 samples each; one window (the whole
   run) when there are fewer than 200 samples. Fit for a workload whose
   inputs are alike in cost, so that each window sees the same mix. *)
let window_count samples = Int.max 1 (Int.min 10 (samples / 100))

let ms s = s *. 1000.
let mib bytes = float_of_int bytes /. (1024. *. 1024.)

(* The compiling process's top heap, from the GC. *)
let top_heap_mb () =
  mib ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))

(* [VmHWM] (peak resident set) of process [pid], in MiB, from procfs. *)
let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%d/status" pid in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
      Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> nan
        | line -> (
            match Scanf.sscanf line "VmHWM: %d kB" (fun kb -> kb) with
            | kb -> float_of_int kb /. 1024.
            | exception _ -> go ())
      in
      go ()

(* The first top-level [key] of a [Pass.stats_json] object, raw. The
   top-level totals precede the per-pattern array, so the first
   occurrence is the top-level one. *)
let json_field json key =
  let pat = "\"" ^ key ^ "\":" in
  let n = String.length json and m = String.length pat in
  let rec find i =
    if i + m > n then None
    else if String.sub json i m = pat then Some (i + m)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some start ->
      let stop = ref start in
      while !stop < n && not (List.mem json.[!stop] [ ','; '}'; ']' ]) do
        incr stop
      done;
      Some (String.sub json start (!stop - start))

(* A run's metrics, in print order: name, value, unit. *)
type metrics = (string * float * string) list ref

let metrics () : metrics = ref []
let add (m : metrics) name value unit = m := (name, value, unit) :: !m

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

(* The human-readable table (stderr) and the result line (last line of
   stdout). *)
let emit ~correct ~attempted ~failed (m : metrics) =
  let rows = List.rev !m in
  List.iter
    (fun (name, v, unit) -> Printf.eprintf "  %-32s %14.6g %s\n" name v unit)
    rows;
  let body =
    String.concat ","
      (List.map
         (fun (name, v, unit) ->
           Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" name (json_number v) unit)
         rows)
  in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    correct attempted failed body
