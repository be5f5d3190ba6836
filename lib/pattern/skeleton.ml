open Pypm_term

type path = int list

type instr =
  | Check_head of path * Symbol.t * int
  | Check_arity of path * int
  | Bind_var of path * Subst.var
  | Bind_fvar of path * Fsubst.fvar
  | Check_guard of Guard.t
  | Check_bound of Subst.var
  | Check_fbound of Fsubst.fvar

type branch = { b_index : int; instrs : instr list }

let path_equal = List.equal Int.equal

let instr_equal a b =
  match (a, b) with
  | Check_head (p, f, n), Check_head (q, g, m) ->
      path_equal p q && Symbol.equal f g && n = m
  | Check_arity (p, n), Check_arity (q, m) -> path_equal p q && n = m
  | Bind_var (p, x), Bind_var (q, y) -> path_equal p q && String.equal x y
  | Bind_fvar (p, x), Bind_fvar (q, y) -> path_equal p q && String.equal x y
  | Check_guard g, Check_guard h -> Guard.equal g h
  | Check_bound x, Check_bound y -> String.equal x y
  | Check_fbound x, Check_fbound y -> String.equal x y
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Alternate expansion                                                 *)
(* ------------------------------------------------------------------ *)

let ( let* ) = Option.bind

(* Ordered cartesian product, leftmost factor most significant: the matcher
   establishes the first argument's choice points first, so backtracking
   exhausts later arguments' alternatives before advancing an earlier one. *)
let rec cartesian = function
  | [] -> [ [] ]
  | xs :: rest ->
      let tails = cartesian rest in
      List.concat_map (fun x -> List.map (fun tl -> x :: tl) tails) xs

(* Expand a pattern into its ordered list of alternate-free branches; [None]
   if the pattern is outside the decision fragment or too wide. The order is
   the matcher's exploration order of complete structural alternatives:
   [Alt (p, q)] contributes all of [p]'s branches before any of [q]'s. *)
let expand ~max_branches p =
  let guard n l = if n > max_branches then None else Some l in
  let rec go (p : Pattern.t) =
    match p with
    | Var _ -> Some [ p ]
    | App (f, ps) ->
        let* pss = go_list ps in
        let prod = cartesian pss in
        guard (List.length prod)
          (List.map (fun qs -> Pattern.App (f, qs)) prod)
    | Fapp (f, ps) ->
        let* pss = go_list ps in
        let prod = cartesian pss in
        guard (List.length prod)
          (List.map (fun qs -> Pattern.Fapp (f, qs)) prod)
    | Alt (p1, p2) ->
        let* l1 = go p1 in
        let* l2 = go p2 in
        guard (List.length l1 + List.length l2) (l1 @ l2)
    | Guarded (p1, g) ->
        let* l = go p1 in
        Some (List.map (fun q -> Pattern.Guarded (q, g)) l)
    | Exists (x, p1) ->
        let* l = go p1 in
        Some (List.map (fun q -> Pattern.Exists (x, q)) l)
    | Exists_f (f, p1) ->
        let* l = go p1 in
        Some (List.map (fun q -> Pattern.Exists_f (f, q)) l)
    | Constr _ | Mu _ | Call _ -> None
  and go_list = function
    | [] -> Some []
    | p :: ps ->
        let* l = go p in
        let* ls = go_list ps in
        Some (l :: ls)
  in
  go p

(* ------------------------------------------------------------------ *)
(* Linearization                                                       *)
(* ------------------------------------------------------------------ *)

(* Instructions in the matcher's continuation order: preorder over the
   branch, with each pattern node's own check before its children, and
   post-checks (guards, existence) immediately after the subpattern they
   wrap — before any later sibling binds. *)
let rec linearize path (p : Pattern.t) =
  match p with
  | Var x -> [ Bind_var (path, x) ]
  | App (f, ps) ->
      Check_head (path, f, List.length ps)
      :: List.concat (List.mapi (fun i q -> linearize (path @ [ i ]) q) ps)
  | Fapp (f, ps) ->
      Check_arity (path, List.length ps)
      :: Bind_fvar (path, f)
      :: List.concat (List.mapi (fun i q -> linearize (path @ [ i ]) q) ps)
  | Guarded (p1, g) -> linearize path p1 @ [ Check_guard g ]
  | Exists (x, p1) -> linearize path p1 @ [ Check_bound x ]
  | Exists_f (f, p1) -> linearize path p1 @ [ Check_fbound f ]
  | Alt _ | Constr _ | Mu _ | Call _ ->
      invalid_arg "Skeleton.linearize: not alternate-free"

(* ------------------------------------------------------------------ *)
(* Guard hoisting                                                      *)
(* ------------------------------------------------------------------ *)

(* A guard is pure and its evaluation depends only on the bindings of the
   variables it mentions, so it may be moved EARLIER to the first point
   where all of them are already bound: the extra bindings present at its
   natural slot cannot change its value. It must never move LATER: at the
   natural slot an unbound variable makes evaluation undefined and fails
   the branch (Backtrack policy), and a later slot might see the variable
   bound by a subsequent sibling. *)
let hoist_guards instrs =
  let binds_after = function
    | Bind_var (_, x) -> Some (`V x)
    | Bind_fvar (_, f) -> Some (`F f)
    | _ -> None
  in
  (* [out] is in reverse order; [bound] the bindings established by it. *)
  let insert_hoisted out g =
    let needs_v = Guard.vars g and needs_f = Guard.fvars g in
    let satisfied vs fs =
      Symbol.Set.subset needs_v vs && Symbol.Set.subset needs_f fs
    in
    (* Walk the reversed output, peeling instructions while the guard's
       requirements remain satisfied without them; stop at the earliest
       position (equivalently: peel until removing one more instruction
       would unbind something the guard needs). *)
    let full_v, full_f =
      List.fold_left
        (fun (vs, fs) i ->
          match binds_after i with
          | Some (`V x) -> (Symbol.Set.add x vs, fs)
          | Some (`F f) -> (vs, Symbol.Set.add f fs)
          | None -> (vs, fs))
        (Symbol.Set.empty, Symbol.Set.empty)
        out
    in
    if not (satisfied full_v full_f) then Check_guard g :: out
    else
      let rec peel acc vs fs = function
        | i :: rest when satisfied vs fs ->
            let vs', fs' =
              match binds_after i with
              | Some (`V x) -> (Symbol.Set.remove x vs, fs)
              | Some (`F f) -> (vs, Symbol.Set.remove f fs)
              | None -> (vs, fs)
            in
            if satisfied vs' fs' then peel (i :: acc) vs' fs' rest
            else List.rev_append acc (Check_guard g :: i :: rest)
        | rest -> List.rev_append acc (Check_guard g :: rest)
      in
      peel [] full_v full_f out
  in
  let out =
    List.fold_left
      (fun out i ->
        match i with Check_guard g -> insert_hoisted out g | _ -> i :: out)
      [] instrs
  in
  List.rev out

(* Note on hoisting stability: when a guard hoists past other (non-binding)
   instructions it lands just after the binding it still needs; two guards
   hoisted to the same point keep their relative order only if they peel the
   same instructions, but since guards are pure and conjunctive, their
   relative order never affects the branch's outcome. *)

let extract ?(max_branches = 128) p =
  match expand ~max_branches p with
  | None -> None
  | Some alts ->
      Some
        (List.mapi
           (fun i q -> { b_index = i; instrs = hoist_guards (linearize [] q) })
           alts)

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let pp_path ppf path =
  if path = [] then Format.pp_print_string ppf "ε"
  else
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.pp_print_char ppf '.')
      Format.pp_print_int ppf path

let pp_instr ppf = function
  | Check_head (p, f, n) ->
      Format.fprintf ppf "head(%a, %a/%d)" pp_path p Symbol.pp f n
  | Check_arity (p, n) -> Format.fprintf ppf "arity(%a, %d)" pp_path p n
  | Bind_var (p, x) -> Format.fprintf ppf "bind(%a, %s)" pp_path p x
  | Bind_fvar (p, f) -> Format.fprintf ppf "bindF(%a, %s)" pp_path p f
  | Check_guard g -> Format.fprintf ppf "guard(%a)" Guard.pp g
  | Check_bound x -> Format.fprintf ppf "bound(%s)" x
  | Check_fbound f -> Format.fprintf ppf "boundF(%s)" f

let pp_branch ppf b =
  Format.fprintf ppf "@[<hov 2>#%d:@ %a@]" b.b_index
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
       pp_instr)
    b.instrs
