(* Seeded workload inputs. Every draw is a pure function of the
   benchmark's [--seed]: the same seed yields the same model configs
   (and hence fingerprint-equal graphs) on every run. The config ranges
   are those of the zoo suites in lib/models/zoo.ml. *)

open Pypm

type model =
  | Hf of Transformer.config
  | Tv of Vision.config
  | Mm of Multimodal.config

let build env = function
  | Hf c -> Transformer.build env c
  | Tv c -> Vision.build env c
  | Mm c -> Multimodal.build env c

(* The generators' own expectations, part of the verifier's reference. *)
let reference m g =
  match m with
  | Hf c -> Verify.reference ~expect_mha:(Transformer.expected_mha_sites c) g
  | Tv c -> Verify.reference ~expect_conv:(Vision.expected_conv_epilogs c) g
  | Mm _ -> Verify.reference g

(* One stream per (seed, purpose), so adding draws to one workload never
   shifts another's inputs. *)
let stream ~seed purpose = Random.State.make [| seed; purpose |]

let pick st l = List.nth l (Random.State.int st (List.length l))
let jitter st = Random.State.bits st

let gelu_d = Transformer.Act_gelu Transformer.Div_two
let gelu_m = Transformer.Act_gelu Transformer.Mul_half

(* Each workload draws its graphs stratum by stratum. The fields that
   set a graph's structure (depth, heads, activation, stages, blocks,
   residual, classifier) are fixed per stratum; the rest come from the
   seed within the zoo's ranges and change only tensor shapes and
   commutative argument order. So every seed compiles the same spread
   of graph sizes. *)

let hf st ~layers ~heads ~activation i =
  let hidden =
    pick st (List.filter (fun h -> h mod heads = 0) [ 64; 96; 128; 192; 256; 384; 512; 768; 1024 ])
  in
  Hf
    (Transformer.config
       (Printf.sprintf "hf-%d" i)
       ~layers ~hidden ~heads
       ~seq:(pick st [ 32; 64; 128; 256; 512 ])
       ~batch:(pick st [ 1; 2; 4; 8 ])
       ~ffn_mult:(pick st [ 2; 4; 4; 8 ])
       ~activation
       ~vocab:(pick st [ 1024; 8192 ])
       ~seed:(jitter st))

let tv st ~stages ~blocks ~residual ~hidden_fc i =
  let classifier_hidden = if hidden_fc then Some (pick st [ 256; 512; 1024 ]) else None in
  Tv
    (Vision.config
       (Printf.sprintf "tv-%d" i)
       ~stages ~blocks_per_stage:blocks
       ~base_channels:(pick st [ 8; 16; 24; 32 ])
       ~image:(pick st [ 32; 64; 96; 128; 192 ])
       ~batch:(pick st [ 1; 4; 16 ])
       ~residual ~classifier_hidden
       ~classes:(pick st [ 10; 100; 1000 ])
       ~seed:(jitter st))

let mm st ~text_layers i =
  Mm
    (Multimodal.config
       (Printf.sprintf "mm-%d" i)
       ~embed:(pick st [ 64; 128; 256 ])
       ~image:(pick st [ 32; 64; 96 ])
       ~text_layers
       ~text_seq:(pick st [ 16; 32; 64 ])
       ~batch:(pick st [ 1; 4; 8 ])
       ~seed:(jitter st))

(* [zoo]: the HF/TV/MM population of the paper's figures 10-13, in the
   proportions of lib/models/zoo.ml: 30 transformer strata (depths
   spread evenly over 1..24 layers, heads and activations cycled), 27
   vision strata (the stages x blocks grid, residual and classifier
   cycled) and 3 multimodal strata. *)
let zoo_strata = 60

let zoo_stratum st k =
  if k < 30 then
    hf st ~layers:(1 + (k * 23 / 29)) ~heads:[| 1; 1; 4; 16 |].(k mod 4)
      ~activation:[| gelu_d; gelu_m; Transformer.Act_relu |].(k mod 3) k
  else if k < 57 then
    let j = k - 30 in
    tv st ~stages:(1 + (j mod 5)) ~blocks:(1 + (j / 5 mod 5)) ~residual:(j mod 2 = 0)
      ~hidden_fc:(j / 2 mod 2 = 1) k
  else mm st ~text_layers:[| 1; 2; 4 |].(k - 57) k

(* [deep]: large gpt2-style transformers (Mul(x, 0.5) GELU spelling),
   all 57 layers deep (the middle of 50..64, about 2,170 live nodes),
   with batch sizes 1, 2 and 4 as strata. Pass time grows with the
   square of depth but not with batch, so every op costs about the same
   and a run's median rests on all of its ~30 ops; with depths spread
   over a range it would rest on the few ops of the middle depths, and
   a host slow spell during those would move it. *)
let deep_strata = 3

let deep_stratum st k =
  Hf
    (Transformer.config
       (Printf.sprintf "deep-%d" k)
       ~layers:57 ~hidden:256 ~heads:4 ~seq:256
       ~batch:[| 1; 2; 4 |].(k)
       ~activation:gelu_m ~seed:(jitter st))

(* [serve]: small-to-mid transformers, 2..12 layers (a 1-layer model
   has too few commutative sites for every draw to be a new graph). *)
let serve_strata = 12

let serve_stratum st k =
  hf st ~layers:(2 + (k * 10 / (serve_strata - 1))) ~heads:[| 1; 4 |].(k mod 2)
    ~activation:[| gelu_d; gelu_m; Transformer.Act_relu |].(k mod 3) k

(* New models, one stratum after another. The strata are visited in a
   fixed low-discrepancy order (a stride near n / golden ratio, coprime
   to n), so any run, however many ops it completes, covers the strata
   evenly and the mix does not depend on the seed; only the draws within
   each stratum do. *)
let strata st n stratum =
  let rec coprime a b = if b = 0 then a = 1 else coprime b (a mod b) in
  let rec stride s d =
    if coprime n (s + d) then s + d else if coprime n (s - d) then s - d else stride s (d + 1)
  in
  let step = stride (int_of_float (Float.round (float_of_int n /. 1.618034))) 0 in
  let i = ref 0 in
  fun () ->
    let k = !i * step mod n in
    incr i;
    stratum st k

(* The in-process op sequence: every new model is compiled twice in a
   row, a first send and then a repeat, so both classes see the same
   strata and the run's mix does not depend on the seed. *)
let ops fresh =
  let last = ref None in
  fun () ->
    match !last with
    | Some m ->
        last := None;
        m
    | None ->
        let m = fresh () in
        last := Some m;
        m
