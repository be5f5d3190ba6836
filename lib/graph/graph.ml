open Pypm_term
open Pypm_tensor

type node = {
  id : int;
  mutable op : Symbol.t;
  mutable inputs : node list;
  mutable attrs : (string * int) list;
  mutable ty : Ty.t option;
  (* One entry per input edge into this node from a node in the table,
     live or dead; maintained by every mutation and restored by the
     journal. *)
  mutable users : node list;
  (* Reachable from the outputs. *)
  mutable live : bool;
}

type t = {
  sg : Signature.t;
  infer : Infer.t;
  table : (int, node) Hashtbl.t;
  mutable outs : node list;
  mutable next_id : int;
  (* Mutation journal: undo thunks for every mutation performed while a
     transaction is open (LIFO). Empty and untouched outside transactions,
     so the non-transactional paths pay one [journal_depth] check. *)
  mutable journal : (unit -> unit) list;
  mutable journal_len : int;
  mutable journal_depth : int;
}

let create ~sg ~infer () =
  {
    sg;
    infer;
    table = Hashtbl.create 256;
    outs = [];
    next_id = 0;
    journal = [];
    journal_len = 0;
    journal_depth = 0;
  }

let journal_push g undo =
  if g.journal_depth > 0 then (
    g.journal <- undo :: g.journal;
    g.journal_len <- g.journal_len + 1)

let signature g = g.sg
let inference g = g.infer

(* Drop the first occurrence of [n] (physical equality) from a use-list.
   O(position): a rolled-back allocation is at the head. *)
let rec remove_one n = function
  | [] -> []
  | u :: rest -> if u == n then rest else u :: remove_one n rest

let alloc g op inputs attrs ty =
  let n =
    { id = g.next_id; op; inputs; attrs; ty; users = []; live = false }
  in
  g.next_id <- g.next_id + 1;
  Hashtbl.replace g.table n.id n;
  List.iter (fun i -> i.users <- n :: i.users) inputs;
  (* Undo: drop the node and its use-list entries. [next_id] is
     deliberately not restored, so node ids are never reused across a
     rollback — events and provenance that captured an id during the
     attempt can never alias a later node. *)
  journal_push g (fun () ->
      Hashtbl.remove g.table n.id;
      List.iter (fun i -> i.users <- remove_one n i.users) inputs);
  n

let leaf_with_class g ~name ~cls ty =
  let sym = Symbol.fresh ~prefix:name () in
  ignore (Signature.declare g.sg ~arity:0 ~op_class:cls sym);
  alloc g sym [] [] (Some ty)

let input g ~name ty = leaf_with_class g ~name ~cls:"input" ty
let opaque g ~name ty = leaf_with_class g ~name ~cls:"opaque" ty

let add g op ?(attrs = []) inputs =
  (match Signature.arity g.sg op with
  | None -> invalid_arg (Printf.sprintf "Graph.add: undeclared operator %s" op)
  | Some n ->
      if n <> List.length inputs then
        invalid_arg
          (Printf.sprintf "Graph.add: %s has arity %d, got %d inputs" op n
             (List.length inputs)));
  let ty =
    if Infer.mem g.infer op then
      let in_tys = List.map (fun n -> n.ty) inputs in
      if List.exists Option.is_none in_tys then None
      else
        match
          Infer.infer g.infer op ~attrs (List.map Option.get in_tys)
        with
        | Ok ty -> Some ty
        | Error msg ->
            invalid_arg (Printf.sprintf "Graph.add: %s: %s" op msg)
    else None
  in
  alloc g op inputs attrs ty

let add_with_ty g op ?(attrs = []) ~ty inputs =
  (match Signature.arity g.sg op with
  | None ->
      invalid_arg (Printf.sprintf "Graph.add_with_ty: undeclared operator %s" op)
  | Some n ->
      if n <> List.length inputs then
        invalid_arg
          (Printf.sprintf "Graph.add_with_ty: %s has arity %d, got %d inputs"
             op n (List.length inputs)));
  alloc g op inputs attrs (Some ty)

let const_scale = 1000.

let stored_of_value value = int_of_float (Float.round (value *. const_scale))

let lit_symbol ?(dtype = Dtype.F32) value =
  Printf.sprintf "lit_%s_%d" (Dtype.to_string dtype) (stored_of_value value)

let declare_lit sg ?(dtype = Dtype.F32) value =
  let sym = lit_symbol ~dtype value in
  ignore (Signature.declare sg ~arity:0 ~op_class:"const" sym);
  sym

let constant g ?(dtype = Dtype.F32) value =
  let sym = declare_lit g.sg ~dtype value in
  alloc g sym [] [ ("value_x1000", stored_of_value value) ] (Some (Ty.scalar dtype))

let constant_value n =
  match List.assoc_opt "value_x1000" n.attrs with
  | Some v -> Some (float_of_int v /. const_scale)
  | None -> None

(* ------------------------------------------------------------------ *)
(* Liveness                                                            *)
(* ------------------------------------------------------------------ *)

(* The [live] flag is kept equal to reachability from the outputs by the
   two mutations that change reachability: [set_outputs] and
   [try_replace]. A node becomes live when a live node or an output first
   points at it ([mark_live] walks down through the nodes that were not
   live), and dead when it is no longer an output and has no live user
   ([kill] cascades down through inputs). Both are journaled. *)

let set_live g n v =
  if n.live <> v then (
    n.live <- v;
    journal_push g (fun () -> n.live <- not v))

let rec mark_live g n =
  if not n.live then (
    set_live g n true;
    List.iter (mark_live g) n.inputs)

let is_output g n = List.exists (fun o -> o == n) g.outs
let has_live_user n = List.exists (fun u -> u.live) n.users

let rec kill g n =
  if n.live && (not (has_live_user n)) && not (is_output g n) then (
    set_live g n false;
    List.iter (kill g) n.inputs)

let set_outputs g outs =
  let old = g.outs in
  journal_push g (fun () -> g.outs <- old);
  g.outs <- outs;
  List.iter (mark_live g) outs;
  List.iter (kill g) old

let outputs g = g.outs
let find_node g id = Hashtbl.find_opt g.table id

let nodes g =
  List.sort
    (fun a b -> Int.compare a.id b.id)
    (Hashtbl.fold (fun _ n acc -> n :: acc) g.table [])

let node_count g = Hashtbl.length g.table
let next_id g = g.next_id

(* Topological order via DFS from outputs; inputs first. *)
let live_nodes g =
  let visited = Hashtbl.create 256 in
  let out = ref [] in
  let rec visit n =
    if not (Hashtbl.mem visited n.id) then (
      Hashtbl.replace visited n.id ();
      List.iter visit n.inputs;
      out := n :: !out)
  in
  List.iter visit g.outs;
  List.rev !out

let live_count g = List.length (live_nodes g)

let users _g n =
  List.sort_uniq
    (fun a b -> Int.compare a.id b.id)
    (List.filter (fun u -> u.live) n.users)

(* Can [new_root] reach one of [targets] (the live users of the node it
   replaces) by following inputs? One DFS over [new_root]'s cone that does
   not enter [settled] nodes: the caller vouches that no settled node
   reaches a target. *)
let closes_cycle ~settled new_root targets =
  targets <> []
  &&
  let visited = Hashtbl.create 16 in
  let rec go n =
    List.memq n targets
    || (not (settled n))
       && (not (Hashtbl.mem visited n.id))
       && (Hashtbl.replace visited n.id ();
           List.exists go n.inputs)
  in
  go new_root

let try_replace ?(settled = fun _ -> false) g ~old_root ~new_root =
  if old_root.id = new_root.id then Ok ()
  else
    (* Cycle guard: if some live user of old_root is reachable from
       new_root, rewiring would close a loop. Only live users are rewired:
       dead nodes keep their stale inputs until they are freed, and
       rewiring (or cycle-checking against) them would resurrect edges no
       live computation observes. *)
    let live_users = List.filter (fun u -> u.live) old_root.users in
    if closes_cycle ~settled new_root live_users then Error `Cycle
    else (
      let old_ru = old_root.users and old_nu = new_root.users in
      journal_push g (fun () ->
          old_root.users <- old_ru;
          new_root.users <- old_nu);
      (* a user reading old_root twice appears twice in [live_users]; the
         second visit finds nothing left to rewire *)
      List.iter
        (fun u ->
          if List.exists (fun i -> i == old_root) u.inputs then (
            let old_inputs = u.inputs in
            journal_push g (fun () -> u.inputs <- old_inputs);
            u.inputs <-
              List.map
                (fun i ->
                  if i == old_root then (
                    new_root.users <- u :: new_root.users;
                    new_root)
                  else i)
                u.inputs))
        live_users;
      old_root.users <- List.filter (fun u -> not u.live) old_root.users;
      let old_outs = g.outs in
      journal_push g (fun () -> g.outs <- old_outs);
      g.outs <-
        List.map (fun o -> if o.id = old_root.id then new_root else o) g.outs;
      if old_root.live then mark_live g new_root;
      kill g old_root;
      Pypm_obs.Obs.emit ~node:old_root.id
        (Pypm_obs.Obs.Replace { old_root = old_root.id; new_root = new_root.id });
      Ok ())

let replace g ~old_root ~new_root =
  match try_replace g ~old_root ~new_root with
  | Ok () -> ()
  | Error `Cycle -> invalid_arg "Graph.replace: rewiring would create a cycle"

(* Raw input surgery, bypassing every invariant but the use-lists. Exists
   so tests (and debugging sessions) can manufacture broken graphs for
   [validate]. *)
let unsafe_set_inputs (n : node) inputs =
  List.iter (fun i -> i.users <- remove_one n i.users) n.inputs;
  List.iter (fun i -> i.users <- n :: i.users) inputs;
  n.inputs <- inputs

let free g root =
  let freed = ref 0 in
  let rec go n =
    if (not n.live) && Hashtbl.mem g.table n.id then (
      Hashtbl.remove g.table n.id;
      journal_push g (fun () -> Hashtbl.replace g.table n.id n);
      incr freed;
      List.iter
        (fun i ->
          let old = i.users in
          journal_push g (fun () -> i.users <- old);
          i.users <- remove_one n old;
          go i)
        n.inputs)
  in
  go root;
  if !freed > 0 then
    Pypm_obs.Obs.emit (Pypm_obs.Obs.Gc { collected = !freed });
  !freed

let gc g =
  if g.journal_depth > 0 then
    invalid_arg "Graph.gc: cannot collect inside an open transaction";
  (* recompute liveness from scratch rather than trusting the flags *)
  Hashtbl.iter (fun _ n -> n.live <- false) g.table;
  let rec mark n =
    if not n.live then (
      n.live <- true;
      List.iter mark n.inputs)
  in
  List.iter mark g.outs;
  let before = Hashtbl.length g.table in
  Hashtbl.filter_map_inplace
    (fun _ n -> if n.live then Some n else None)
    g.table;
  let collected = before - Hashtbl.length g.table in
  if collected > 0 then (
    Hashtbl.iter
      (fun _ n ->
        if not (List.for_all (fun u -> u.live) n.users) then
          n.users <- List.filter (fun u -> u.live) n.users)
      g.table;
    Pypm_obs.Obs.emit (Pypm_obs.Obs.Gc { collected }));
  collected

let count_op g op =
  List.length (List.filter (fun n -> Symbol.equal n.op op) (live_nodes g))

let count_class g cls =
  List.length
    (List.filter
       (fun n ->
         match Signature.op_class g.sg n.op with
         | Some c -> String.equal c cls
         | None -> false)
       (live_nodes g))

(* Is [candidate] reachable from [from] following inputs? [marks] is a
   scratch array indexed by node id and [stamp] a value none of its
   entries holds yet: a node is visited once its entry equals [stamp].
   [validate] calls this once per edge, so it allocates nothing. *)
let reaches ~marks ~stamp from candidate =
  let rec go n =
    n.id = candidate.id
    || n.id < Array.length marks
       && marks.(n.id) <> stamp
       && (marks.(n.id) <- stamp;
           List.exists go n.inputs)
  in
  go from

let validate g =
  let errs = ref [] in
  let err fmt = Format.kasprintf (fun m -> errs := m :: !errs) fmt in
  let live = live_nodes g in
  let marks = Array.make g.next_id 0 and stamp = ref 0 in
  let reachable = Hashtbl.create 256 in
  List.iter (fun n -> Hashtbl.replace reachable n.id ()) live;
  (* expected use-list entries: one per (input, live user) edge *)
  let edges = Hashtbl.create 256 in
  let bump key d =
    Hashtbl.replace edges key
      (d + Option.value ~default:0 (Hashtbl.find_opt edges key))
  in
  List.iter
    (fun n ->
      (match Signature.arity g.sg n.op with
      | None -> err "node %d: undeclared operator %s" n.id n.op
      | Some a ->
          if a <> List.length n.inputs then
            err "node %d: operator %s arity %d but %d inputs" n.id n.op a
              (List.length n.inputs));
      List.iter
        (fun i ->
          bump (i.id, n.id) 1;
          if not (Hashtbl.mem g.table i.id) then
            err "node %d: input %d not in node table" n.id i.id)
        n.inputs;
      (* [reaches n n] is vacuously true (a node trivially reaches itself),
         so the real cycle test is whether [n] is reachable from one of its
         own inputs. *)
      if
        List.exists
          (fun i ->
            incr stamp;
            reaches ~marks ~stamp:!stamp i n)
          n.inputs
      then
        err "node %d: participates in a cycle" n.id)
    live;
  (* use-lists: the live entries of a live node's use-list are exactly its
     live users, one entry per edge *)
  List.iter
    (fun n ->
      List.iter
        (fun u ->
          if not (Hashtbl.mem g.table u.id) then
            err "node %d: use-list holds %d, which is not in the node table"
              n.id u.id
          else if Hashtbl.mem reachable u.id then bump (n.id, u.id) (-1))
        n.users)
    live;
  Hashtbl.iter
    (fun (i, u) d ->
      if d > 0 then err "node %d: use-list misses user %d" i u
      else if d < 0 then
        err "node %d: use-list lists user %d but %d does not read it" i u u)
    edges;
  (* the live flag is reachability from the outputs *)
  Hashtbl.iter
    (fun id n ->
      let r = Hashtbl.mem reachable id in
      if n.live <> r then
        err "node %d: live flag is %b but the node is %sreachable" id n.live
          (if r then "" else "un"))
    g.table;
  List.rev !errs

(* ------------------------------------------------------------------ *)
(* Transactions                                                        *)
(* ------------------------------------------------------------------ *)

module Txn = struct
  type savepoint = { mark : int; at_depth : int }

  let begin_ g =
    g.journal_depth <- g.journal_depth + 1;
    { mark = g.journal_len; at_depth = g.journal_depth }

  let check g sp what =
    if g.journal_depth <> sp.at_depth then
      invalid_arg
        (Printf.sprintf
           "Graph.Txn.%s: savepoint depth %d but transaction depth is %d \
            (commit/rollback must nest LIFO)"
           what sp.at_depth g.journal_depth)

  let close g =
    g.journal_depth <- g.journal_depth - 1;
    if g.journal_depth = 0 then (
      g.journal <- [];
      g.journal_len <- 0)

  let commit g sp =
    check g sp "commit";
    close g

  let rollback g sp =
    check g sp "rollback";
    let undone = ref 0 in
    while g.journal_len > sp.mark do
      match g.journal with
      | [] -> assert false
      | undo :: rest ->
          undo ();
          g.journal <- rest;
          g.journal_len <- g.journal_len - 1;
          incr undone
    done;
    close g;
    !undone

  let active g = g.journal_depth > 0
  let depth g = g.journal_depth
end

let pp_node ppf n =
  Format.fprintf ppf "%%%d = %s(%a)%a" n.id n.op
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       (fun ppf i -> Format.fprintf ppf "%%%d" i.id))
    n.inputs
    (fun ppf -> function
      | Some ty -> Format.fprintf ppf " : %a" Ty.pp ty
      | None -> Format.fprintf ppf " : opaque")
    n.ty

let pp ppf g =
  Format.fprintf ppf "@[<v>";
  List.iter (fun n -> Format.fprintf ppf "%a@," pp_node n) (live_nodes g);
  Format.fprintf ppf "outputs: %a@]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       (fun ppf o -> Format.fprintf ppf "%%%d" o.id))
    g.outs
