(** The production matcher.

    This is the repository's analogue of the "thousands of lines of C++"
    matching subroutine in DLCB: an efficient, direct implementation of the
    algorithmic semantics using success continuations and native-stack
    backtracking instead of an explicit machine state. It is deliberately
    left-eager exactly like the machine, so the first witness it produces
    coincides with the machine's [success] substitution (property-tested in
    [test/test_equiv.ml]).

    Complexity: no explicit continuation lists are allocated; the
    backtracking stack is the OCaml call stack; substitutions are persistent
    maps so choice points are O(1) to save and restore. *)

open Pypm_term
open Pypm_pattern

(** [matches ~interp ?policy ?fuel p t] runs the matcher to its first
    result. Default [policy] is [Backtrack] (the production behaviour:
    an assert that cannot be evaluated fails); default [fuel] bounds
    pattern-node visits, 1_000_000. *)
val matches :
  interp:Guard.interp ->
  ?policy:Outcome.Policy.t ->
  ?fuel:int ->
  Pattern.t ->
  Term.t ->
  Outcome.t

(** [matches_at ~interp ?policy ?fuel ~theta ~phi p t] starts from existing
    bindings instead of empty substitutions. Used by the rewrite engine to
    match rule-level constraints under the pattern's substitution. *)
val matches_at :
  interp:Guard.interp ->
  ?policy:Outcome.Policy.t ->
  ?fuel:int ->
  theta:Subst.t ->
  phi:Fsubst.t ->
  Pattern.t ->
  Term.t ->
  Outcome.t

(** Nodes visited by the last call on this domain; cheap instrumentation for
    the FIG12/FIG13 compile-cost benches. *)
val last_visits : unit -> int

(** Nodes visited by every call since {!reset_cumulative_visits}: the total
    backtracking-matcher work a whole pass performed. The FIG12/13 engine
    comparison resets this around each engine run. *)
val cumulative_visits : unit -> int

val reset_cumulative_visits : unit -> unit
