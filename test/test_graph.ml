(* Tests for the computation-graph IR: construction, typing, destructive
   replacement, garbage collection, validation, and the term view. *)

open Pypm

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let env () = Std_ops.make ()

let fresh_graph () =
  let e = env () in
  (e, Graph.create ~sg:e.Std_ops.sg ~infer:e.Std_ops.infer ())

let f32 shape = Ty.make Dtype.F32 shape

let ty_str (n : Graph.node) =
  match n.Graph.ty with Some ty -> Ty.to_string ty | None -> "opaque"

(* ------------------------------------------------------------------ *)
(* Construction and typing                                             *)
(* ------------------------------------------------------------------ *)

let test_input_typed () =
  let _, g = fresh_graph () in
  let x = Graph.input g ~name:"x" (f32 [ 2; 3 ]) in
  Alcotest.(check string) "input type" "f32[2x3]" (ty_str x)

let test_add_infers () =
  let _, g = fresh_graph () in
  let x = Graph.input g ~name:"x" (f32 [ 2; 3 ]) in
  let w = Graph.input g ~name:"w" (f32 [ 3; 5 ]) in
  let mm = Graph.add g Std_ops.matmul [ x; w ] in
  Alcotest.(check string) "matmul type" "f32[2x5]" (ty_str mm);
  let t = Graph.add g Std_ops.trans [ mm ] in
  Alcotest.(check string) "transpose type" "f32[5x2]" (ty_str t)

let test_add_arity_checked () =
  let _, g = fresh_graph () in
  let x = Graph.input g ~name:"x" (f32 [ 2; 3 ]) in
  (match Graph.add g Std_ops.matmul [ x ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "arity violation accepted");
  match Graph.add g "NoSuchOp" [ x ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "undeclared operator accepted"

let test_add_type_error_raises () =
  let _, g = fresh_graph () in
  let x = Graph.input g ~name:"x" (f32 [ 2; 3 ]) in
  let y = Graph.input g ~name:"y" (f32 [ 7; 5 ]) in
  match Graph.add g Std_ops.matmul [ x; y ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "shape error accepted"

let test_conv_attrs () =
  let _, g = fresh_graph () in
  let x = Graph.input g ~name:"x" (f32 [ 1; 3; 16; 16 ]) in
  let w = Graph.input g ~name:"w" (f32 [ 8; 3; 3; 3 ]) in
  let b = Graph.input g ~name:"b" (f32 [ 8; 1; 1 ]) in
  let c =
    Graph.add g Std_ops.conv2d ~attrs:[ ("stride", 2); ("pad", 1) ] [ x; w; b ]
  in
  Alcotest.(check string) "strided conv type" "f32[1x8x8x8]" (ty_str c)

let test_constants_interned () =
  let _, g = fresh_graph () in
  let c1 = Graph.constant g 2.0 in
  let c2 = Graph.constant g 2.0 in
  let c3 = Graph.constant g 0.5 in
  checkb "same symbol" true (Symbol.equal c1.Graph.op c2.Graph.op);
  checkb "distinct nodes" true (c1.Graph.id <> c2.Graph.id);
  checkb "different symbol" false (Symbol.equal c1.Graph.op c3.Graph.op);
  Alcotest.(check (option (float 1e-9))) "value" (Some 2.0) (Graph.constant_value c1);
  checkb "lit symbol agrees" true
    (Symbol.equal c1.Graph.op (Graph.lit_symbol 2.0))

let test_opaque () =
  let _, g = fresh_graph () in
  let o = Graph.opaque g ~name:"ext" (f32 [ 4 ]) in
  Alcotest.(check (option string))
    "opaque class" (Some "opaque")
    (Signature.op_class (Graph.signature g) o.Graph.op)

(* ------------------------------------------------------------------ *)
(* Liveness, users, replacement, gc                                    *)
(* ------------------------------------------------------------------ *)

(* x -> relu -> relu' ; output relu' *)
let chain_graph () =
  let _, g = fresh_graph () in
  let x = Graph.input g ~name:"x" (f32 [ 4 ]) in
  let r1 = Graph.add g Std_ops.relu [ x ] in
  let r2 = Graph.add g Std_ops.relu [ r1 ] in
  Graph.set_outputs g [ r2 ];
  (g, x, r1, r2)

let test_live_topo () =
  let g, x, r1, r2 = chain_graph () in
  let ids = List.map (fun n -> n.Graph.id) (Graph.live_nodes g) in
  Alcotest.(check (list int)) "topo order" [ x.Graph.id; r1.Graph.id; r2.Graph.id ] ids

let test_users () =
  let g, x, r1, r2 = chain_graph () in
  let users_of n = List.map (fun u -> u.Graph.id) (Graph.users g n) in
  Alcotest.(check (list int)) "x users" [ r1.Graph.id ] (users_of x);
  Alcotest.(check (list int)) "r1 users" [ r2.Graph.id ] (users_of r1);
  Alcotest.(check (list int)) "r2 users" [] (users_of r2)

let test_replace_rewires () =
  let g, x, r1, r2 = chain_graph () in
  (* replace the inner relu by x directly: r2 now reads x *)
  Graph.replace g ~old_root:r1 ~new_root:x;
  checkb "rewired" true
    (List.exists (fun i -> i.Graph.id = x.Graph.id) r2.Graph.inputs);
  let collected = Graph.gc g in
  checki "collected r1" 1 collected;
  checki "live count" 2 (Graph.live_count g);
  Alcotest.(check (list string)) "no violations" [] (Graph.validate g)

let test_replace_output () =
  let g, _, r1, r2 = chain_graph () in
  Graph.replace g ~old_root:r2 ~new_root:r1;
  let out_ids = List.map (fun n -> n.Graph.id) (Graph.outputs g) in
  Alcotest.(check (list int)) "output updated" [ r1.Graph.id ] out_ids;
  ignore (Graph.gc g);
  checki "two nodes left" 2 (Graph.live_count g)

let test_replace_cycle_guard () =
  let g, _, r1, r2 = chain_graph () in
  (* making r1's replacement its own user r2 would create a cycle *)
  match Graph.replace g ~old_root:r1 ~new_root:r2 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "cycle accepted"

let test_shared_input_replace () =
  let _, g = fresh_graph () in
  let x = Graph.input g ~name:"x" (f32 [ 4 ]) in
  let r = Graph.add g Std_ops.relu [ x ] in
  let a = Graph.add g Std_ops.add [ r; r ] in
  Graph.set_outputs g [ a ];
  let s = Graph.add g Std_ops.sigmoid [ x ] in
  Graph.replace g ~old_root:r ~new_root:s;
  checkb "both operands rewired" true
    (List.for_all (fun i -> i.Graph.id = s.Graph.id) a.Graph.inputs);
  Alcotest.(check (list string)) "valid" [] (Graph.validate g)

let test_counts () =
  let g, _, _, _ = chain_graph () in
  checki "relu count" 2 (Graph.count_op g Std_ops.relu);
  checki "unary class count" 2 (Graph.count_class g "unary_pointwise");
  checki "input class count" 1 (Graph.count_class g "input")

(* ------------------------------------------------------------------ *)
(* Use-lists and liveness                                              *)
(* ------------------------------------------------------------------ *)

let ids ns = List.map (fun (n : Graph.node) -> n.Graph.id) ns
let use_ids (n : Graph.node) = List.sort compare (ids n.Graph.users)
let users_ids g n = ids (Graph.users g n)
let valid g = Alcotest.(check (list string)) "graph valid" [] (Graph.validate g)

let test_users_after_add () =
  let _, g = fresh_graph () in
  let x = Graph.input g ~name:"x" (f32 [ 4 ]) in
  let r = Graph.add g Std_ops.relu [ x ] in
  let a = Graph.add g Std_ops.add [ r; r ] in
  (* one use-list entry per edge, live or not *)
  Alcotest.(check (list int)) "edge entries" [ a.Graph.id; a.Graph.id ]
    (use_ids r);
  Alcotest.(check (list int)) "nothing live before outputs" [] (users_ids g r);
  checkb "not live" false a.Graph.live;
  Graph.set_outputs g [ a ];
  Alcotest.(check (list int)) "distinct live users" [ a.Graph.id ]
    (users_ids g r);
  checkb "cone live" true (x.Graph.live && r.Graph.live && a.Graph.live);
  valid g

let test_users_after_replace () =
  let g, x, r1, r2 = chain_graph () in
  Graph.replace g ~old_root:r1 ~new_root:x;
  Alcotest.(check (list int)) "x read by r2 and (dead) r1"
    [ r1.Graph.id; r2.Graph.id ] (use_ids x);
  Alcotest.(check (list int)) "x's live users" [ r2.Graph.id ] (users_ids g x);
  Alcotest.(check (list int)) "r1 has no users" [] (use_ids r1);
  checkb "replaced root dead" false r1.Graph.live;
  checki "still in the table" 3 (Graph.node_count g);
  valid g;
  (* an output replaced by a dead node revives that node's cone *)
  Graph.replace g ~old_root:r2 ~new_root:r1;
  checkb "r1 live again" true r1.Graph.live;
  checkb "r2 dead" false r2.Graph.live;
  Alcotest.(check (list int)) "x's live users now" [ r1.Graph.id ]
    (users_ids g x);
  valid g

let test_users_nested_rollback () =
  let g, x, r1, r2 = chain_graph () in
  let outer = Graph.Txn.begin_ g in
  let s = Graph.add g Std_ops.sigmoid [ x ] in
  Graph.replace g ~old_root:r1 ~new_root:s;
  let inner = Graph.Txn.begin_ g in
  let t = Graph.add g Std_ops.relu [ s ] in
  Graph.replace g ~old_root:r2 ~new_root:t;
  Alcotest.(check (list int)) "s read by t (live) and r2 (dead)"
    [ r2.Graph.id; t.Graph.id ] (use_ids s);
  Alcotest.(check (list int)) "s's live users" [ t.Graph.id ] (users_ids g s);
  valid g;
  ignore (Graph.Txn.rollback g inner);
  Alcotest.(check (list int)) "inner undone: s read by r2" [ r2.Graph.id ]
    (users_ids g s);
  Alcotest.(check (list int)) "t's edge gone" [ r2.Graph.id ] (use_ids s);
  checkb "r2 live again" true r2.Graph.live;
  valid g;
  ignore (Graph.Txn.rollback g outer);
  Alcotest.(check (list int)) "x read by r1 only" [ r1.Graph.id ] (use_ids x);
  Alcotest.(check (list int)) "r1 read by r2" [ r2.Graph.id ] (use_ids r1);
  checkb "r1 live again" true r1.Graph.live;
  checkb "s gone" true (Graph.find_node g s.Graph.id = None);
  valid g

let test_users_after_free_and_gc () =
  let g, x, r1, r2 = chain_graph () in
  (* garbage the graph came with: a dead user of x *)
  let junk = Graph.add g Std_ops.sigmoid [ x ] in
  let s = Graph.add g Std_ops.neg [ r1 ] in
  Graph.replace g ~old_root:r2 ~new_root:s;
  (* freeing r2 stops at r1, which s still reads *)
  checki "freed r2 only" 1 (Graph.free g r2);
  checkb "r2 out of the table" true (Graph.find_node g r2.Graph.id = None);
  Alcotest.(check (list int)) "r1 read by s" [ s.Graph.id ] (use_ids r1);
  checki "freeing a live node is a no-op" 0 (Graph.free g r1);
  valid g;
  Alcotest.(check (list int)) "x: junk and r1" [ r1.Graph.id; junk.Graph.id ]
    (List.sort compare (use_ids x));
  checki "gc collects the junk" 1 (Graph.gc g);
  Alcotest.(check (list int)) "junk's edge gone" [ r1.Graph.id ] (use_ids x);
  checki "nodes by id" 3 (List.length (Graph.nodes g));
  Alcotest.(check (list int)) "nodes sorted by id"
    [ x.Graph.id; r1.Graph.id; s.Graph.id ] (ids (Graph.nodes g));
  valid g

let test_free_rolled_back () =
  let g, x, r1, r2 = chain_graph () in
  let sp = Graph.Txn.begin_ g in
  Graph.replace g ~old_root:r2 ~new_root:x;
  checki "freed the chain" 2 (Graph.free g r2);
  ignore (Graph.Txn.rollback g sp);
  checki "all back" 3 (Graph.node_count g);
  Alcotest.(check (list int)) "x read by r1" [ r1.Graph.id ] (use_ids x);
  checkb "r2 is the output" true
    (ids (Graph.outputs g) = [ r2.Graph.id ]);
  valid g

let test_validate_flags_bookkeeping () =
  let g, x, r1, _ = chain_graph () in
  valid g;
  (* rewiring with the use-lists kept but liveness not: x stays flagged
     live although nothing reaches it any more *)
  let c = Graph.constant g 1.0 in
  Graph.unsafe_set_inputs r1 [ c ];
  let errs = Graph.validate g in
  checkb "stale live flag reported" true
    (List.mem
       (Printf.sprintf "node %d: live flag is true but the node is unreachable"
          x.Graph.id)
       errs)

(* The cycle test bounded by [settled]: the replacement's binding [u] lies
   outside [f]'s cone and reads [f], so rewiring [f]'s users to it would
   close a loop. The bound skips only [x], which cannot reach [u]. *)
let test_bounded_cycle_rejection () =
  let _, g = fresh_graph () in
  let x = Graph.input g ~name:"x" (f32 [ 4 ]) in
  let f = Graph.add g Std_ops.relu [ x ] in
  let u = Graph.add g Std_ops.add [ f; x ] in
  let out = Graph.add g Std_ops.neg [ u ] in
  Graph.set_outputs g [ out ];
  let settled (n : Graph.node) = n == x in
  let sp = Graph.Txn.begin_ g in
  let new_root = Graph.add g Std_ops.sigmoid [ u ] in
  (match Graph.try_replace ~settled g ~old_root:f ~new_root with
  | Error `Cycle -> ()
  | Ok () -> Alcotest.fail "cycle through a binding outside the cone accepted");
  ignore (Graph.Txn.rollback g sp);
  Alcotest.(check (list int)) "u still reads f" [ f.Graph.id; x.Graph.id ]
    (ids u.Graph.inputs);
  Alcotest.(check (list int)) "f's users untouched" [ u.Graph.id ] (use_ids f);
  valid g;
  (* the same bound accepts a replacement that only reads [x] *)
  let s = Graph.add g Std_ops.sigmoid [ x ] in
  (match Graph.try_replace ~settled g ~old_root:f ~new_root:s with
  | Ok () -> ()
  | Error `Cycle -> Alcotest.fail "acyclic replacement rejected");
  Alcotest.(check (list int)) "u reads s" [ s.Graph.id; x.Graph.id ]
    (ids u.Graph.inputs);
  valid g

(* ------------------------------------------------------------------ *)
(* Term view                                                           *)
(* ------------------------------------------------------------------ *)

let test_term_view_structure () =
  let g, x, _, r2 = chain_graph () in
  let view = Term_view.create g in
  let t = Term_view.term_of view r2 in
  Alcotest.(check string) "head" Std_ops.relu (Term.head t);
  checki "size" 3 (Term.size t);
  let leaf = List.nth (List.of_seq (Term.subterms t)) 2 in
  Alcotest.(check string) "leaf symbol" x.Graph.op (Term.head leaf)

let test_term_view_memoized_sharing () =
  (* diamond: add(relu(x), relu(x)) shares the relu node *)
  let _, g = fresh_graph () in
  let x = Graph.input g ~name:"x" (f32 [ 4 ]) in
  let r = Graph.add g Std_ops.relu [ x ] in
  let a = Graph.add g Std_ops.add [ r; r ] in
  Graph.set_outputs g [ a ];
  let view = Term_view.create g in
  let t = Term_view.term_of view a in
  match Term.args t with
  | [ l; rgt ] -> checkb "physically shared" true (l == rgt)
  | _ -> Alcotest.fail "wrong arity"

let test_term_view_node_resolution () =
  let g, x, r1, r2 = chain_graph () in
  let view = Term_view.create g in
  let t = Term_view.term_of view r2 in
  (match Term_view.node_of view t with
  | Some n -> checki "root resolves" r2.Graph.id n.Graph.id
  | None -> Alcotest.fail "root unresolved");
  (match Term.args t with
  | [ inner ] -> (
      match Term_view.node_of view inner with
      | Some n -> checki "inner resolves" r1.Graph.id n.Graph.id
      | None -> Alcotest.fail "inner unresolved")
  | _ -> Alcotest.fail "wrong arity");
  ignore x

let test_term_view_types_and_interp () =
  let _, g = fresh_graph () in
  let x = Graph.input g ~name:"x" (f32 [ 2; 3 ]) in
  let w = Graph.input g ~name:"w" (f32 [ 3; 5 ]) in
  let mm = Graph.add g Std_ops.matmul [ x; w ] in
  Graph.set_outputs g [ mm ];
  let view = Term_view.create g in
  let t = Term_view.term_of view mm in
  (match Term_view.type_of view t with
  | Some ty -> Alcotest.(check string) "view type" "f32[2x5]" (Ty.to_string ty)
  | None -> Alcotest.fail "untyped");
  let interp = Term_view.interp view in
  Alcotest.(check (option int)) "rank via interp" (Some 2)
    (interp.Guard.term_attr "rank" t);
  Alcotest.(check (option int)) "dim1 via interp" (Some 5)
    (interp.Guard.term_attr "dim1" t)

let test_term_view_constant_value_attr () =
  let _, g = fresh_graph () in
  let c = Graph.constant g 0.5 in
  let x = Graph.input g ~name:"x" (f32 [ 4 ]) in
  let m = Graph.add g Std_ops.mul [ x; c ] in
  Graph.set_outputs g [ m ];
  let view = Term_view.create g in
  let t = Term_view.term_of view c in
  let interp = Term_view.interp view in
  Alcotest.(check (option int)) "value_x1000" (Some 500)
    (interp.Guard.term_attr "value_x1000" t)

(* The MHA subgraph matches through the term view with tensor guards. *)
let test_match_through_view () =
  let env, g =
    let e = env () in
    (e, Graph.create ~sg:e.Std_ops.sg ~infer:e.Std_ops.infer ())
  in
  ignore env;
  let x = Graph.input g ~name:"x" (f32 [ 2; 3 ]) in
  let w = Graph.input g ~name:"w" (f32 [ 5; 3 ]) in
  let mm = Graph.add g Std_ops.matmul [ x; Graph.add g Std_ops.trans [ w ] ] in
  Graph.set_outputs g [ mm ];
  let view = Term_view.create g in
  let t = Term_view.term_of view mm in
  let entry = Corpus.mmxyt in
  match
    Matcher.matches ~interp:(Term_view.interp view) entry.Program.pattern t
  with
  | Outcome.Matched (theta, _) ->
      checkb "x bound" true (Subst.mem "x" theta);
      checkb "y bound" true (Subst.mem "y" theta)
  | o -> Alcotest.failf "MMxyT should match: %s" (Outcome.to_string o)

let test_dot_render () =
  let g, _, _, r2 = chain_graph () in
  let dot = Dot.to_dot ~highlight:[ r2.Graph.id ] g in
  checkb "digraph" true (String.length dot > 0);
  let contains needle =
    let n = String.length needle and m = String.length dot in
    let rec go i = i + n <= m && (String.sub dot i n = needle || go (i + 1)) in
    go 0
  in
  checkb "has header" true (contains "digraph pypm");
  checkb "has relu node" true (contains "Relu");
  checkb "has an edge" true (contains "->");
  checkb "highlight applied" true (contains "penwidth=3");
  checkb "marks outputs" true (contains "output 0")

let () =
  Alcotest.run "graph"
    [
      ( "construction",
        [
          Alcotest.test_case "input typed" `Quick test_input_typed;
          Alcotest.test_case "inference on add" `Quick test_add_infers;
          Alcotest.test_case "arity checked" `Quick test_add_arity_checked;
          Alcotest.test_case "type errors raise" `Quick
            test_add_type_error_raises;
          Alcotest.test_case "conv attrs" `Quick test_conv_attrs;
          Alcotest.test_case "interned constants" `Quick
            test_constants_interned;
          Alcotest.test_case "opaque leaves" `Quick test_opaque;
        ] );
      ( "mutation",
        [
          Alcotest.test_case "topological liveness" `Quick test_live_topo;
          Alcotest.test_case "users" `Quick test_users;
          Alcotest.test_case "replace rewires" `Quick test_replace_rewires;
          Alcotest.test_case "replace output" `Quick test_replace_output;
          Alcotest.test_case "cycle guard" `Quick test_replace_cycle_guard;
          Alcotest.test_case "shared input replace" `Quick
            test_shared_input_replace;
          Alcotest.test_case "counts" `Quick test_counts;
        ] );
      ( "use-lists",
        [
          Alcotest.test_case "users after add" `Quick test_users_after_add;
          Alcotest.test_case "users after replace" `Quick
            test_users_after_replace;
          Alcotest.test_case "users after nested rollback" `Quick
            test_users_nested_rollback;
          Alcotest.test_case "users after free and gc" `Quick
            test_users_after_free_and_gc;
          Alcotest.test_case "free rolled back" `Quick test_free_rolled_back;
          Alcotest.test_case "validate flags stale bookkeeping" `Quick
            test_validate_flags_bookkeeping;
          Alcotest.test_case "bounded cycle rejection" `Quick
            test_bounded_cycle_rejection;
        ] );
      ( "term-view",
        [
          Alcotest.test_case "structure" `Quick test_term_view_structure;
          Alcotest.test_case "memoized sharing" `Quick
            test_term_view_memoized_sharing;
          Alcotest.test_case "node resolution" `Quick
            test_term_view_node_resolution;
          Alcotest.test_case "types and interp" `Quick
            test_term_view_types_and_interp;
          Alcotest.test_case "constant value attribute" `Quick
            test_term_view_constant_value_attr;
          Alcotest.test_case "pattern match through view" `Quick
            test_match_through_view;
        ] );
      ("dot", [ Alcotest.test_case "render" `Quick test_dot_render ]);
    ]
