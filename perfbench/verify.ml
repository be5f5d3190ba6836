(* The output verifier. Its reference is taken from the input graph
   before the pass runs (op counts, simulated cost) and from the model
   generator's own expectations, never from the pass: every attention
   softmax must end up inside one FMHA, every GELU (the only producer of
   Erf) inside one fused GELU GEMM epilog, every convolution inside one
   conv+bias+relu kernel, and no Softmax/Erf/Conv2d/Relu may survive.
   Graphs are compared by op counts and [Fuzz.fingerprint] only: input
   symbol uids come from a global counter, so symbol strings and node
   ids differ between two builds of the same model. *)

open Pypm
module O = Std_ops

type reference = {
  softmax : int;
  erf : int;
  conv : int;
  fmha_in : int;
  gelu_epilog_in : int;
  conv_epilog_in : int;
  expect_mha : int option;  (* Transformer.expected_mha_sites *)
  expect_conv : int option;  (* Vision.expected_conv_epilogs *)
  cost_before : float;  (* Exec.graph_cost on Cost.a6000 *)
}

let gelu_epilogs g =
  Graph.count_op g O.gemm_epilog_gelu + Graph.count_op g O.gemm_bias_epilog_gelu

let reference ?expect_mha ?expect_conv g =
  {
    softmax = Graph.count_op g O.softmax;
    erf = Graph.count_op g O.erf;
    conv = Graph.count_op g O.conv2d;
    fmha_in = Graph.count_op g O.fmha;
    gelu_epilog_in = gelu_epilogs g;
    conv_epilog_in = Graph.count_op g O.conv_bias_relu;
    expect_mha;
    expect_conv;
    cost_before = Exec.graph_cost Cost.a6000 g;
  }

let expect_eq what ~want ~got acc =
  if want = got then acc
  else Printf.sprintf "%s: expected %d, found %d" what want got :: acc

let survivors g acc =
  List.fold_left
    (fun acc (name, op) ->
      let n = Graph.count_op g op in
      if n = 0 then acc else Printf.sprintf "%d %s survive" n name :: acc)
    acc
    [ ("Softmax", O.softmax); ("Erf", O.erf); ("Conv2d", O.conv2d); ("Relu", O.relu) ]

let check_graph r g =
  let fmha = Graph.count_op g O.fmha in
  let conv_epilogs = Graph.count_op g O.conv_bias_relu in
  let acc =
    match Graph.validate g with
    | [] -> []
    | v :: _ -> [ "Graph.validate: " ^ v ]
  in
  let acc =
    expect_eq "FMHA (one per input Softmax)" ~want:(r.fmha_in + r.softmax)
      ~got:fmha acc
  in
  let acc =
    expect_eq "fused GELU epilogs (one per input Erf)"
      ~want:(r.gelu_epilog_in + r.erf) ~got:(gelu_epilogs g) acc
  in
  let acc =
    expect_eq "conv+bias+relu (one per input Conv2d)"
      ~want:(r.conv_epilog_in + r.conv) ~got:conv_epilogs acc
  in
  let acc =
    match r.expect_mha with
    | Some n -> expect_eq "FMHA vs Transformer.expected_mha_sites" ~want:n ~got:fmha acc
    | None -> acc
  in
  let acc =
    match r.expect_conv with
    | Some n ->
        expect_eq "conv epilogs vs Vision.expected_conv_epilogs" ~want:n
          ~got:conv_epilogs acc
    | None -> acc
  in
  let acc = survivors g acc in
  let cost_after = Exec.graph_cost Cost.a6000 g in
  let acc =
    if cost_after <= r.cost_before then acc
    else
      Printf.sprintf "cost rose: %.9g s -> %.9g s" r.cost_before cost_after
      :: acc
  in
  List.rev acc

(* Simulated run time of the generated code: cost before / after. *)
let speedup r g = r.cost_before /. Exec.graph_cost Cost.a6000 g

type run_status = {
  reached_fixpoint : bool;
  fuel_exhausted : int;
  deadline_hit : bool;
  errors : int;
  fatal : bool;
}

let status_of_stats (s : Pass.stats) =
  {
    reached_fixpoint = s.Pass.reached_fixpoint;
    fuel_exhausted = s.Pass.fuel_exhausted;
    deadline_hit = s.Pass.deadline_hit;
    errors = List.length s.Pass.errors;
    fatal = s.Pass.fatal <> None;
  }

let check_status st =
  List.concat
    [
      (if st.reached_fixpoint then [] else [ "no fixpoint" ]);
      (if st.fuel_exhausted = 0 then []
       else [ Printf.sprintf "fuel exhausted %d times" st.fuel_exhausted ]);
      (if st.deadline_hit then [ "deadline hit" ] else []);
      (if st.errors = 0 then [] else [ Printf.sprintf "%d pass errors" st.errors ]);
      (if st.fatal then [ "fatal pass error" ] else []);
    ]

let check r st g = check_status st @ check_graph r g

(* The digest of a graph's structural fingerprint: equal iff the
   fingerprints are, and small enough to keep one per op for a whole
   run without growing the heap the timed calls run on. *)
let fingerprint g = Digest.string (Fuzz.fingerprint g)
