(** Equality saturation: the nondestructive rewriting loop.

    Applies rewrite rules by {e adding} equalities to the e-graph instead
    of replacing subgraphs, then extracts the cheapest equivalent term —
    the egg-style baseline the paper contrasts PyPM with. Where the greedy
    destructive pass commits to the first rule that fires (and can destroy
    a redex a later rule needed), saturation keeps every version and lets
    extraction choose. The pass's [Egraph] engine runs this loop over a
    lowered graph region; the ablation bench runs both on the same
    inputs.

    Rematching is dirty-class-driven: each round after the first only
    re-enumerates matches rooted in the upward closure (through the e-graph
    [uses] relation) of the classes created or merged since the previous
    round, so saturation cost tracks change, not graph size. *)

open Pypm_term

(** A rewrite: a simple pattern (see {!Ematch.supported}) and a
    term-template right-hand side over the pattern's variables. Rules
    built with [?guard] may additionally carry a rule-level guard and
    pattern-embedded guards ({!Ematch.supported_guarded}); these are
    evaluated by the [?guard_eval] supplied to {!run}, and fail closed
    without one. *)
type rw = {
  rw_name : string;
  lhs : Pypm_pattern.Pattern.t;
  rhs : rhs;
  rw_guard : Pypm_pattern.Guard.t;  (** [Guard.True] when unguarded *)
}

and rhs =
  | Tvar of string  (** a matched e-class *)
  | Tapp of Symbol.t * rhs list
  | Tfapp of string * rhs list  (** apply the matched operator *)

(** [rw ~name ?guard lhs rhs] validates the rewrite: the pattern must be
    in the e-matchable subset ({!Ematch.supported}, or
    {!Ematch.supported_guarded} when [?guard] is given — passing [?guard],
    even [Guard.True], opts the rule into the guarded subset) and every
    template variable (term and operator) must be bound by the pattern.
    [Error reason] otherwise — construction never raises. *)
val rw :
  name:string ->
  ?guard:Pypm_pattern.Guard.t ->
  Pypm_pattern.Pattern.t ->
  rhs ->
  (rw, string) result

(** Why the loop stopped. [Saturated] is a proven fixpoint: the last
    executed round changed nothing. Every other reason is a budget. *)
type stop_reason = Saturated | Iter_limit | Node_limit | Class_limit | Deadline

val stop_reason_name : stop_reason -> string

type stats = {
  iterations : int;  (** rounds actually executed *)
  applications : int;  (** unions performed (new equalities) *)
  skipped_applications : int;
      (** matches whose template could not be instantiated (a disjunctive
          pattern bound only one branch's variables); skipped, not fatal *)
  saturated : bool;  (** [stop_reason = Saturated] *)
  stop_reason : stop_reason;
  final_classes : int;
  final_nodes : int;
}

(** [run g rules ()] saturates, or stops at the first exceeded budget.
    Deterministic for a fixed rule list and e-graph.

    Budgets: [iter_limit] (default 30) bounds rounds; [node_limit] /
    [class_limit] stop before a round once the e-graph outgrows them;
    [match_limit] caps matches taken per rule per round (negative =
    unlimited); [deadline] is polled between rounds and between rules —
    returning [true] stops matching immediately (the anytime cutoff
    [Pass] wires to [~deadline_s]).

    [guard_eval] decides guards against an assignment (the e-graph engine
    evaluates them on per-class witness terms); without it only
    [Guard.True] passes. [on_iteration] fires with the 1-based round
    number before each round's matching — the hook for re-canonicalizing
    any caller-side tables keyed by e-class id. [on_union] fires with the
    rule name after each successful union.

    The limit/fixpoint distinction is exact: [iterations] counts rounds
    executed, and [saturated] is true iff the final executed round changed
    nothing — reaching [iter_limit] with a no-change final round reports
    [Saturated], not [Iter_limit]. *)
val run :
  Egraph.t ->
  rw list ->
  ?iter_limit:int ->
  ?node_limit:int ->
  ?class_limit:int ->
  ?match_limit:int ->
  ?deadline:(unit -> bool) ->
  ?guard_eval:(Pypm_pattern.Guard.t -> Ematch.env -> bool) ->
  ?on_iteration:(int -> unit) ->
  ?on_union:(string -> unit) ->
  unit ->
  stats

(** [simplify ~rules ?cost t] is the end-to-end convenience: build an
    e-graph from [t], saturate, extract the cheapest equivalent (default
    cost: term size). *)
val simplify :
  rules:rw list -> ?cost:(Symbol.t -> float) -> ?iter_limit:int -> Term.t ->
  Term.t * stats

val pp_stats : Format.formatter -> stats -> unit
