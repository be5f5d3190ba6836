(** Skeleton extraction: the compilable fragment, linearized.

    A pattern in the {e decision fragment} — applications, function-variable
    applications, variables, alternates, guards and existence checks, but no
    [mu]-recursion, free calls or match constraints — denotes a finite,
    ordered set of alternate-free {e branches}: the left-to-right expansion
    of its alternates, exactly the order in which the backtracking matcher
    explores complete structural alternatives. Each branch is alternate-free
    and therefore {e deterministic}: matching it against a term is a single
    left-to-right pass of checks and bindings with no choice points.

    Branches are linearized into instruction strings over subject positions
    (paths from the matched root). The instruction order is the matcher's
    continuation order (preorder over the branch), except that guard checks
    are {e hoisted} to the earliest point at which every variable they
    mention is already bound — never later than their natural slot, so a
    guard whose variables are bound only by a later sibling still fails the
    branch exactly as the matcher's [Backtrack] policy does.

    [Pypm_analysis.Analysis] canonicalizes the branches of a pattern
    library to decide subsumption, shadowing and overlap between them. *)

open Pypm_term

(** Position in the subject term: the empty path is the matched root,
    [i :: rest] descends into argument [i] (0-based). *)
type path = int list

type instr =
  | Check_head of path * Symbol.t * int
      (** subject at [path] has this head symbol and arity *)
  | Check_arity of path * int
      (** subject at [path] has this arity (function-variable application) *)
  | Bind_var of path * Subst.var
      (** bind the variable to the subject at [path]; a conflicting prior
          binding fails the branch *)
  | Bind_fvar of path * Fsubst.fvar
      (** bind the function variable to the head symbol at [path] *)
  | Check_guard of Guard.t
      (** evaluate the guard; [None] (unbound variable, undefined
          attribute) and [Some false] both fail the branch *)
  | Check_bound of Subst.var  (** [exists x] check: [x] must be bound *)
  | Check_fbound of Fsubst.fvar  (** [existsF F] check *)

type branch = {
  b_index : int;  (** position in the matcher's alternate-exploration order *)
  instrs : instr list;
}

val path_equal : path -> path -> bool
val instr_equal : instr -> instr -> bool

(** [extract ?max_branches p] is the ordered branch list of [p], or [None]
    if [p] falls outside the decision fragment ([mu], [Call], match
    constraints) or its alternate expansion exceeds [max_branches]
    (default 128). Branch [i] succeeding means the matcher's first witness
    comes from the lowest-index succeeding branch. *)
val extract : ?max_branches:int -> Pattern.t -> branch list option

val pp_instr : Format.formatter -> instr -> unit
val pp_branch : Format.formatter -> branch -> unit
