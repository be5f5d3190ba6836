open Pypm_term
open Pypm_pattern
open Pypm_engine
module P = Pattern
module G = Guard
module O = Pypm_patterns.Std_ops
module Graph = Pypm_graph.Graph
module Ast = Pypm_dsl.Ast

(* ------------------------------------------------------------------ *)
(* Core signature (mirrors test/util/fixtures.ml)                      *)
(* ------------------------------------------------------------------ *)

let declare_core sg =
  ignore (Signature.declare sg ~arity:2 "f");
  ignore (Signature.declare sg ~arity:1 ~op_class:"unary" "g");
  ignore (Signature.declare sg ~arity:3 "h");
  ignore (Signature.declare sg ~arity:0 "a");
  ignore (Signature.declare sg ~arity:0 "b");
  ignore (Signature.declare sg ~arity:0 "c");
  sg

let sg = declare_core (Signature.create ())
let consts = [ "a"; "b"; "c" ]
let vars = [ "x"; "y"; "z"; "w" ]
let fvars = [ "F"; "G" ]

let interp : G.interp =
  {
    term_attr =
      (fun attr t ->
        match attr with
        | "size" -> Some (Term.size t)
        | "depth" -> Some (Term.depth t)
        | "nargs" -> Some (List.length (Term.args t))
        | _ -> None);
    sym_attr =
      (fun attr s ->
        match attr with "arity" -> Signature.arity sg s | _ -> None);
  }

(* ------------------------------------------------------------------ *)
(* Terms                                                               *)
(* ------------------------------------------------------------------ *)

let rec term_sized r depth =
  if depth <= 0 then Term.const (Srng.pick r consts)
  else
    Srng.freq r
      [
        (2, fun r -> Term.const (Srng.pick r consts));
        (2, fun r -> Term.app "g" [ term_sized r (depth - 1) ]);
        ( 2,
          fun r ->
            Term.app "f" [ term_sized r (depth - 1); term_sized r (depth - 1) ]
        );
        ( 1,
          fun r ->
            Term.app "h"
              [
                term_sized r (depth - 1);
                term_sized r (depth - 1);
                term_sized r (depth - 1);
              ] );
      ]

let term r = term_sized r (Srng.range r 1 4)

(* ------------------------------------------------------------------ *)
(* Guards                                                              *)
(* ------------------------------------------------------------------ *)

let guard_expr r gvars =
  let const r = G.Const (Srng.int r 6) in
  match gvars with
  | [] ->
      Srng.freq r
        [ (3, const); (1, fun r -> G.Sym_attr (Srng.pick r consts, "arity")) ]
  | vs ->
      Srng.freq r
        [
          (2, const);
          ( 3,
            fun r ->
              G.Var_attr
                (Srng.pick r vs, Srng.pick r [ "size"; "depth"; "nargs" ]) );
          (1, fun r -> G.Sym_attr (Srng.pick r [ "g"; "f" ], "arity"));
        ]

let guard r gvars =
  let lhs = guard_expr r gvars and rhs = guard_expr r gvars in
  Srng.pick r
    [
      G.Eq (lhs, rhs);
      G.Ne (lhs, rhs);
      G.Lt (lhs, rhs);
      G.Le (lhs, rhs);
      G.Le (G.Const 1, lhs);
      G.And (G.Le (G.Const 1, lhs), G.Le (G.Const 0, rhs));
    ]

(* ------------------------------------------------------------------ *)
(* Patterns                                                            *)
(* ------------------------------------------------------------------ *)

let binder_pattern r =
  let unary_tower_mu =
    (* mu P(x). g(P(x)) || g(x) *)
    P.mu "P" ~formals:[ "x" ] ~actuals:[ "x" ]
      (P.alt
         (P.app "g" [ P.call "P" [ "x" ] ])
         (P.app "g" [ P.var "x" ]))
  in
  let fvar_tower_mu =
    (* mu P(x, F). F(P(x, F)) || F(x) *)
    P.mu "P" ~formals:[ "x"; "F" ] ~actuals:[ "x"; "F" ]
      (P.alt
         (P.fapp "F" [ P.call "P" [ "x"; "F" ] ])
         (P.fapp "F" [ P.var "x" ]))
  in
  let guarded_mu =
    P.mu "P" ~formals:[ "x" ] ~actuals:[ "x" ]
      (P.alt
         (P.app "g" [ P.call "P" [ "x" ] ])
         (P.Guarded (P.var "x", G.Le (G.Var_attr ("x", "size"), G.Const 4))))
  in
  Srng.freq r
    [
      (2, fun _ -> unary_tower_mu);
      (2, fun _ -> fvar_tower_mu);
      (1, fun _ -> guarded_mu);
      (2, fun _ -> P.exists "ey" (P.app "g" [ P.var "ey" ]));
      (2, fun _ -> P.exists "ey" (P.app "f" [ P.var "ey"; P.var "ey" ]));
      (1, fun _ -> P.exists_f "EF" (P.fapp "EF" [ P.var "x" ]));
    ]

let rec pattern_sized r depth =
  if depth <= 0 then
    Srng.freq r
      [
        (3, fun r -> P.var (Srng.pick r vars));
        (2, fun r -> P.const (Srng.pick r consts));
      ]
  else
    Srng.freq r
      [
        (2, fun r -> P.var (Srng.pick r vars));
        (2, fun r -> P.const (Srng.pick r consts));
        (3, fun r -> P.app "g" [ pattern_sized r (depth - 1) ]);
        ( 3,
          fun r ->
            P.app "f"
              [ pattern_sized r (depth - 1); pattern_sized r (depth - 1) ] );
        ( 2,
          fun r ->
            P.alt (pattern_sized r (depth - 1)) (pattern_sized r (depth - 1))
        );
        ( 1,
          fun r -> P.fapp (Srng.pick r fvars) [ pattern_sized r (depth - 1) ]
        );
        ( 1,
          fun r ->
            P.fapp (Srng.pick r fvars)
              [ pattern_sized r (depth - 1); pattern_sized r (depth - 1) ] );
        ( 1,
          fun r ->
            P.Guarded (pattern_sized r (depth - 1), guard r [ "x"; "y" ]) );
        ( 1,
          fun r ->
            P.constr (P.var "x") (pattern_sized r (depth - 1)) "x" );
        (1, binder_pattern);
      ]

let pattern r = pattern_sized r (Srng.range r 1 3)

(* ------------------------------------------------------------------ *)
(* Matching-biased pairs                                               *)
(* ------------------------------------------------------------------ *)

(* Grow a pattern from a term by abstracting positions; variables are
   reused to exercise non-linearity. *)
let rec abstract r t depth =
  if depth <= 0 then P.var (Srng.pick r vars)
  else
    let structural r =
      match Term.args t with
      | [] -> P.const (Term.head t)
      | args ->
          let ps = List.map (fun u -> abstract r u (depth - 1)) args in
          Srng.freq r
            [
              (5, fun _ -> P.app (Term.head t) ps);
              (1, fun r -> P.fapp (Srng.pick r fvars) ps);
            ]
    in
    Srng.freq r
      [
        (2, fun r -> P.var (Srng.pick r vars));
        (5, structural);
        ( 1,
          fun r ->
            let p = structural r and junk = pattern_sized r 1 in
            if Srng.bool r then P.alt p junk else P.alt junk p );
        ( 1,
          fun r ->
            P.Guarded
              ( structural r,
                G.Eq (G.Term_attr (t, "size"), G.Const (Term.size t)) ) );
      ]

let pair r =
  Srng.freq r
    [
      ( 3,
        fun r ->
          let t = term_sized r 3 in
          (abstract r t 4, t) );
      (2, fun r -> (pattern r, term r));
      ( 2,
        fun r ->
          let t = term r and p = binder_pattern r in
          Srng.freq r
            [
              (3, fun _ -> (p, t));
              ( 1,
                fun r ->
                  let u = term_sized r 1 in
                  ( P.app "f" [ p; P.var "cw" ],
                    Term.app "f" [ t; u ] ) );
              (1, fun _ -> (P.app "g" [ p ], Term.app "g" [ t ]));
            ] );
    ]

(* ------------------------------------------------------------------ *)
(* Core programs (for the codec round trip)                            *)
(* ------------------------------------------------------------------ *)

(* Millifloat-exact literal: k / 1000 survives the wire format bit-for-bit. *)
let millifloat r = float_of_int (Srng.range r (-4_000_000) 4_000_000) /. 1000.

let rule_rhs r fvs ffs =
  let rec go d =
    Srng.freq r
      [
        ((if fvs = [] then 0 else 4), fun r -> Rule.Rvar (Srng.pick r fvs));
        (2, fun r -> Rule.Rapp (Srng.pick r consts, []));
        ((if d <= 0 then 0 else 2), fun _ -> Rule.Rapp ("g", [ go (d - 1) ]));
        ( (if d <= 0 then 0 else 1),
          fun _ -> Rule.Rapp ("f", [ go (d - 1); go (d - 1) ]) );
        ( (if d <= 0 then 0 else 1),
          fun r ->
            Rule.Rapp_attrs ("g", [ go (d - 1) ], [ ("k", Srng.int r 8) ]) );
        ( (if ffs = [] || d <= 0 then 0 else 2),
          fun r -> Rule.Rfapp (Srng.pick r ffs, [ go (d - 1) ]) );
        ( (if fvs = [] || d <= 0 then 0 else 1),
          fun r -> Rule.Rcopy_attrs ("g", [ go (d - 1) ], Srng.pick r fvs) );
        (1, fun r -> Rule.Rlit (millifloat r));
      ]
  in
  go 2

let core_program r =
  let psg = declare_core (Signature.create ()) in
  let n = Srng.range r 1 4 in
  let entries =
    List.init n (fun i ->
        let p = pattern r in
        let fvs = Symbol.Set.elements (P.free_vars p) in
        let ffs = Symbol.Set.elements (P.free_fvars p) in
        let pname = Printf.sprintf "P%d" i in
        let rules =
          List.init (Srng.int r 3) (fun j ->
              let g = if Srng.bool r then G.True else guard r fvs in
              Rule.make ~guard:g
                ~name:(Printf.sprintf "%s_r%d" pname j)
                ~pattern:pname (rule_rhs r fvs ffs))
        in
        { Program.pname; pattern = p; rules })
  in
  Program.make ~sg:psg entries

(* ------------------------------------------------------------------ *)
(* Surface ASTs                                                        *)
(* ------------------------------------------------------------------ *)

(* Only lexer-safe literals: non-negative, printed by %g without an
   exponent, so print-then-parse is the identity. *)
let lits = [ 0.; 1.; 2.; 3.; 0.5; 0.125; 10. ]

let classes =
  [
    "generic";
    "unary_pointwise";
    "quoted \"class\"";
    "back\\slash";
    "two\nlines";
  ]

let attr_paths =
  [
    [ "rank" ]; [ "size" ]; [ "depth" ]; [ "dim0" ]; [ "nelems" ];
    [ "shape"; "rank" ];
  ]

let gen_gform r names =
  let atom r =
    match names with
    | [] -> Ast.Gint (Srng.int r 5)
    | ns ->
        Srng.freq r
          [
            (1, fun r -> Ast.Gint (Srng.int r 5));
            ( 3,
              fun r -> Ast.Gattr (Srng.pick r ns, Srng.pick r attr_paths) );
          ]
  in
  let lhs = atom r and rhs = atom r in
  Srng.freq r
    [
      (2, fun _ -> Ast.Gle (Ast.Gint 0, lhs));
      (2, fun _ -> Ast.Geq (lhs, rhs));
      (1, fun _ -> Ast.Gne (lhs, rhs));
      (1, fun _ -> Ast.Glt (Ast.Gadd (lhs, Ast.Gint 1), Ast.Gmul (rhs, Ast.Gint 3)));
      (1, fun _ -> Ast.Gand (Ast.Gle (Ast.Gint 0, lhs), Ast.Gle (Ast.Gint 0, rhs)));
      (1, fun _ -> Ast.Gnot (Ast.Glt (lhs, rhs)));
      (1, fun _ -> Ast.Gtrue);
    ]

(* One pattern definition. [callables] lists earlier groups (name, #params)
   available for inline calls; [self_arity] enables self-recursion. *)
let gen_pattern_def r ~name ~params ~callables ~allow_self =
  let nlocals = Srng.int r 3 in
  let locals = List.init nlocals (Printf.sprintf "l%d") in
  let opvar = Srng.int r 3 = 0 in
  let opvars = if opvar then [ ("V0", 1) ] else [] in
  let leaf _r x = Ast.Evar x in
  (* Wrap one required name so it still occurs exactly once. *)
  let wrap r x =
    Srng.freq r
      [
        (3, fun _ -> leaf r x);
        (1, fun _ -> Ast.Eapp ("O0", [ Ast.Evar x ]));
        ( (if opvar then 1 else 0),
          fun _ -> Ast.Eapp ("V0", [ Ast.Evar x ]) );
      ]
  in
  let filler r =
    Srng.freq r
      [
        (2, fun r -> Ast.Elit (Srng.pick r lits));
        (1, fun _ -> Ast.Eapp ("O2", []));
      ]
  in
  (* Combine every required name into one expression so all params and
     locals are pinned by occurrences. *)
  let rec combine r = function
    | [] -> filler r
    | [ x ] -> wrap r x
    | x :: rest -> Ast.Eapp ("O1", [ wrap r x; combine r rest ])
  in
  let ret = combine r (params @ locals) in
  (* Optional inline call to an earlier pattern. *)
  let ret =
    match callables with
    | (cname, arity) :: _ when Srng.int r 3 = 0 ->
        let args =
          List.init arity (fun i ->
              match List.nth_opt params i with
              | Some p when Srng.bool r -> Ast.Evar p
              | _ -> Ast.Elit (Srng.pick r lits))
        in
        Ast.Eapp ("O1", [ ret; Ast.Eapp (cname, args) ])
    | _ -> ret
  in
  (* Optional self-recursion: an alternate that recurses, after a base. *)
  let ret =
    if allow_self && params <> [] && Srng.int r 4 = 0 then
      let args =
        List.mapi
          (fun i p ->
            if i = 0 then Ast.Eapp ("O0", [ Ast.Evar p ]) else Ast.Evar p)
          params
      in
      Ast.Ealt (ret, Ast.Eapp (name, args))
    else ret
  in
  let ret = if Srng.int r 4 = 0 then Ast.Ealt (ret, filler r) else ret in
  let stmts =
    List.map (fun l -> Ast.Slocal l) locals
    @ List.map (fun (v, a) -> Ast.Sopvar (v, a)) opvars
    @ (if params <> [] && Srng.int r 3 = 0 then
         [ Ast.Salias ("al0", Ast.Eapp ("O0", [ Ast.Evar (List.hd params) ])) ]
       else [])
    @ (match locals with
      | l :: _ when Srng.bool r ->
          [
            Ast.Sconstrain
              ( l,
                match params with
                | p :: _ when Srng.bool r -> Ast.Eapp ("O0", [ Ast.Evar p ])
                | _ -> Ast.Elit (Srng.pick r lits) );
          ]
      | _ -> [])
    @ (if Srng.bool r then
         [ Ast.Sassert (gen_gform r (params @ locals)) ]
       else [])
    @
    if opvar && Srng.bool r then
      [
        Ast.Sassert
          (Ast.Geq
             ( Ast.Gattr ("V0", [ "op_class" ]),
               Ast.Gopclass (Srng.pick r classes) ));
      ]
    else []
  in
  { Ast.pd_name = name; pd_params = params; pd_stmts = stmts; pd_return = ret }

let gen_rule_def r ~name ~for_ ~params =
  let rd_params = params in
  let branch r =
    let ret =
      Srng.freq r
        [
          ( (if rd_params = [] then 0 else 3),
            fun r -> Ast.Eapp ("O0", [ Ast.Evar (Srng.pick r rd_params) ]) );
          ( (if List.length rd_params < 2 then 0 else 1),
            fun _ ->
              Ast.Eapp
                ( "O1",
                  [
                    Ast.Evar (List.nth rd_params 0);
                    Ast.Evar (List.nth rd_params 1);
                  ] ) );
          ((if rd_params = [] then 0 else 2),
           fun r -> Ast.Evar (Srng.pick r rd_params));
          (1, fun r -> Ast.Elit (Srng.pick r lits));
        ]
    in
    let guard =
      if Srng.int r 3 = 0 then Some (gen_gform r rd_params) else None
    in
    { Ast.br_guard = guard; br_return = ret }
  in
  let branches = List.init (Srng.range r 1 2) (fun _ -> branch r) in
  let copying =
    if rd_params <> [] && Srng.int r 4 = 0 then Some (List.hd rd_params)
    else None
  in
  let asserts =
    if Srng.int r 3 = 0 then [ gen_gform r rd_params ] else []
  in
  {
    Ast.rd_name = name;
    rd_for = for_;
    rd_params;
    rd_asserts = asserts;
    rd_branches = branches;
    rd_copy_attrs_from = copying;
  }

let ast_program r =
  let ops =
    [
      { Ast.od_name = "O0"; od_arity = 1; od_output_arity = 1;
        od_class = Srng.pick r classes };
      { Ast.od_name = "O1"; od_arity = 2; od_output_arity = 1;
        od_class = Srng.pick r classes };
      { Ast.od_name = "O2"; od_arity = 0; od_output_arity = 1;
        od_class = Srng.pick r classes };
    ]
    @
    if Srng.bool r then
      [
        { Ast.od_name = "O3"; od_arity = Srng.int r 4;
          od_output_arity = Srng.range r 1 2; od_class = Srng.pick r classes };
      ]
    else []
  in
  let npats = Srng.range r 1 3 in
  let pats, _ =
    List.fold_left
      (fun (acc, callables) i ->
        let name = Printf.sprintf "Q%d" i in
        let params = List.init (Srng.int r 3) (Printf.sprintf "p%d") in
        let def =
          gen_pattern_def r ~name ~params ~callables ~allow_self:true
        in
        (* Alternate with the same name (and the same parameter list). *)
        let defs =
          if Srng.int r 4 = 0 then
            [ def; gen_pattern_def r ~name ~params ~callables ~allow_self:false ]
          else [ def ]
        in
        (acc @ defs, (name, List.length params) :: callables))
      ([], [])
      (List.init npats Fun.id)
  in
  let groups =
    List.fold_left
      (fun acc (pd : Ast.pattern_def) ->
        if List.mem_assoc pd.Ast.pd_name acc then acc
        else acc @ [ (pd.Ast.pd_name, pd.Ast.pd_params) ])
      [] pats
  in
  let rules =
    List.init (Srng.int r 3) (fun i ->
        let for_, params = Srng.pick r groups in
        gen_rule_def r ~name:(Printf.sprintf "R%d" i) ~for_ ~params)
  in
  { Ast.ops; patterns = pats; rules }

(* ------------------------------------------------------------------ *)
(* Strings and hostile sources                                         *)
(* ------------------------------------------------------------------ *)

let string_chars =
  [ 'a'; 'b'; 'z'; 'A'; '0'; '9'; ' '; '"'; '\\'; '\n'; '\t'; '('; ')';
    '{'; '#'; '/'; ';'; '.'; '\xe9'; '\xff' ]

let string_ r =
  String.init (Srng.int r 13) (fun _ -> Srng.pick r string_chars)

let token_soup_pool =
  [
    "pattern"; "rule"; "op"; "include"; "Q0"; "("; ")"; "{"; "}"; ";";
    "return"; "assert"; "when"; "copying"; "for"; "class"; "<="; "==";
    "="; "||"; "&&"; "!"; "->"; "."; ","; "\"unclosed"; "\"s\""; "\"bad \\q\"";
    "12345"; "99999999999999999999999999999"; "0.5"; "1e309"; "var"; "Op";
    "x"; "opclass"; "true"; "// comment"; "# comment"; "%"; "*"; "+"; "-";
  ]

let mutate r src =
  if String.length src = 0 then src
  else
    let i = Srng.int r (String.length src) in
    match Srng.int r 3 with
    | 0 -> String.sub src 0 i ^ String.sub src (i + 1) (String.length src - i - 1)
    | 1 ->
        String.sub src 0 i
        ^ String.make 1 (Srng.pick r string_chars)
        ^ String.sub src i (String.length src - i)
    | _ -> String.sub src 0 i
  [@@ocamlformat "disable"]

let garbage_source r =
  Srng.freq r
    [
      ( 2,
        fun r ->
          String.init (Srng.int r 61) (fun _ -> Srng.pick r string_chars) );
      ( 2,
        fun r ->
          let src =
            Format.asprintf "%a" Ast.pp_program (ast_program r)
          in
          mutate r (mutate r src) );
      ( 2,
        fun r ->
          String.concat " "
            (List.init (Srng.int r 21) (fun _ -> Srng.pick r token_soup_pool))
      );
    ]

(* ------------------------------------------------------------------ *)
(* Tensor-graph recipes                                                *)
(* ------------------------------------------------------------------ *)

type graph_recipe = { gr_seed : int; gr_nodes : int; gr_pats : int }

let graph_recipe r =
  {
    gr_seed = Srng.int r 1_000_000;
    gr_nodes = Srng.range r 8 36;
    gr_pats = Srng.range r 2 8;
  }

(* GELU(x) with a random "half" spelling, as the transformer models emit. *)
let gelu_subgraph r g ~dtype x =
  let const v = Graph.constant g ~dtype v in
  let half =
    if Srng.bool r then Graph.add g O.div [ x; const 2.0 ]
    else Graph.add g O.mul [ x; const 0.5 ]
  in
  let erf = Graph.add g O.erf [ Graph.add g O.div [ x; const O.sqrt2 ] ] in
  let inner = Graph.add g O.add [ const 1.0; erf ] in
  Graph.add g O.mul [ half; inner ]

(* The entries a random program draws from. [trans_of_matmul] is excluded:
   together with [matmul_of_trans] it ping-pongs and only the max_rewrites
   backstop stops the pass. *)
let corpus_pool () =
  let module C = Pypm_patterns.Corpus in
  [
    C.gelu_fuse; C.mha_fuse; C.epilog_relu; C.epilog_gelu; C.epilog_bias_relu;
    C.epilog_bias_gelu; C.mmxyt; C.trans_trans; C.mul_one; C.add_zero;
    C.sub_zero; C.div_one; C.mul_zero; C.neg_neg; C.softmax_shift;
    C.relu_chain; C.matmul_of_trans; C.unary_chain; C.matmul_epilog_chain;
  ]

let synthesized_entries sg =
  let lit2 = Graph.declare_lit sg 2.0 in
  [
    {
      Program.pname = "FzReluId";
      pattern = P.app O.relu [ P.var "x" ];
      rules =
        [ Rule.make ~name:"fz_relu_id" ~pattern:"FzReluId" (Rule.Rvar "x") ];
    };
    {
      Program.pname = "FzMulTwo";
      pattern = P.app O.mul [ P.var "x"; P.const lit2 ];
      rules =
        [
          Rule.make ~name:"fz_mul_two" ~pattern:"FzMulTwo"
            (Rule.Rapp (O.add, [ Rule.Rvar "x"; Rule.Rvar "x" ]));
        ];
    };
  ]

let build recipe =
  let r = Srng.create ~seed:recipe.gr_seed in
  (* One element type per graph, mostly f32; the other float types make
     the corpus's dtype guards reject. It comes from a stream of its own,
     so a seed's graph structure and program do not depend on it. *)
  let dtype =
    Srng.pick
      (Srng.create ~seed:((recipe.gr_seed * 7919) + 1))
      Pypm_tensor.Dtype.[ F32; F32; F32; F32; F32; F64; F16; BF16 ]
  in
  let ty shape = Pypm_tensor.Ty.make dtype shape in
  let env = O.make () in
  let g = Graph.create ~sg:env.O.sg ~infer:env.O.infer () in
  let const v = Graph.constant g ~dtype v in
  let b = 2 and s = 8 in
  let h = Srng.pick r [ 4; 8 ] in
  let x0 = Graph.input g ~name:"x" (ty [ b; s; h ]) in
  (* Every pool node has shape [b; s; h], so any two can be combined. *)
  let pool = ref [ x0 ] in
  let wc = ref 0 in
  let weight () =
    incr wc;
    Graph.input g ~name:(Printf.sprintf "w%d" !wc) (ty [ h; h ])
  in
  let bias () =
    incr wc;
    Graph.input g ~name:(Printf.sprintf "b%d" !wc) (ty [ h ])
  in
  let pick_node r = Srng.pick r !pool in
  let push n = pool := n :: !pool in
  let unary_ops =
    [ O.relu; O.gelu; O.tanh_; O.sigmoid; O.exp_; O.neg; O.softmax;
      O.layer_norm ]
  in
  while Graph.node_count g < recipe.gr_nodes do
    Srng.freq r
      [
        ( 3,
          fun r -> push (Graph.add g (Srng.pick r unary_ops) [ pick_node r ])
        );
        ( 2,
          fun r ->
            let x = pick_node r in
            let op = Srng.pick r [ O.add; O.mul; O.sub; O.div ] in
            let y =
              Srng.freq r
                [
                  (2, pick_node);
                  ( 1,
                    fun r -> const (Srng.pick r [ 1.0; 2.0; 0.5 ])
                  );
                ]
            in
            push (Graph.add g op [ x; y ]) );
        (2, fun r -> push (Graph.add g O.matmul [ pick_node r; weight () ]));
        ( 1,
          fun r ->
            push
              (Graph.add g O.matmul
                 [ pick_node r; Graph.add g O.trans [ weight () ] ]) );
        ( 1,
          fun r ->
            let pre =
              Graph.add g O.add
                [ Graph.add g O.matmul [ pick_node r; weight () ]; bias () ]
            in
            push
              (if Srng.bool r then Graph.add g O.relu [ pre ]
               else gelu_subgraph r g ~dtype pre) );
        ( 1,
          fun r ->
            let x = pick_node r in
            let q = Graph.add g O.matmul [ x; weight () ] in
            let k = Graph.add g O.matmul [ x; weight () ] in
            let v = Graph.add g O.matmul [ x; weight () ] in
            let qk = Graph.add g O.matmul [ q; Graph.add g O.trans [ k ] ] in
            let alpha = const 0.125 in
            let scaled =
              if Srng.bool r then Graph.add g O.div [ qk; alpha ]
              else Graph.add g O.mul [ qk; alpha ]
            in
            let probs = Graph.add g O.softmax [ scaled ] in
            push (Graph.add g O.matmul [ probs; v ]) );
        (1, fun r -> push (gelu_subgraph r g ~dtype (pick_node r)));
      ]
  done;
  (* Every pool node has rank 3; one extra output [x2 · Trans(w)] on a
     rank-2 input is the shape MMxyT's rank guards accept, so its rules'
     dtype guards get to decide. *)
  let mm_xyt =
    Graph.add g O.matmul
      [ Graph.input g ~name:"x2" (ty [ s; h ]); Graph.add g O.trans [ weight () ] ]
  in
  (match !pool with
  | n1 :: n2 :: _ when Srng.bool r -> Graph.set_outputs g [ n1; n2; mm_xyt ]
  | n1 :: _ -> Graph.set_outputs g [ n1; mm_xyt ]
  | [] -> assert false);
  (* Pattern program: a random corpus subset, sometimes preceded by
     synthesized always-firing cleanups. *)
  let entries =
    let avail = ref (corpus_pool ()) in
    let chosen = ref [] in
    for _ = 1 to min recipe.gr_pats (List.length !avail) do
      let i = Srng.int r (List.length !avail) in
      chosen := List.nth !avail i :: !chosen;
      avail := List.filteri (fun j _ -> j <> i) !avail
    done;
    let synth =
      if Srng.bool r then synthesized_entries env.O.sg else []
    in
    synth @ List.rev !chosen
  in
  (env, g, Program.make ~sg:env.O.sg entries)
