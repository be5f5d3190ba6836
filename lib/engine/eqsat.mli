(** Equality saturation over the graph IR: the e-graph engine's core.

    The greedy destructive pass is order-dependent — firing one rule can
    destroy the redex a later rule needed (the phase-ordering weakness the
    paper's extended version concedes). This module runs the egg-style
    alternative over a pattern program: lower the graph's outputs through
    {!Pypm_graph.Term_view}, saturate an e-graph under the program's
    convertible rules ({!Pypm_egraph.Saturate} with budgets and an anytime
    deadline), extract the cheapest equivalent of each output under the
    {!Pypm_kernels.Cost} kernel model, and splice winners back
    transactionally via [Graph.Txn] — committing only strict whole-graph
    cost improvements.

    The pass's [Egraph] engine runs this as a post-phase after the plan
    engine's greedy pass, so its result is never costlier than the Plan
    engine's on the same graph, by construction.

    Guards are supported: every matched e-class carries a witness term
    from the original graph, and guards are evaluated on witnesses through
    the view's attribute interpretation exactly as the destructive engines
    evaluate them — a guard over a class with no graph witness fails
    closed. Rules whose templates carry attributes ([Rapp_attrs],
    [Rcopy_attrs]) or whose patterns need concrete witnesses ([Mu],
    [Constr], existentials) are skipped and reported, not mistranslated. *)

(** Result of converting a program's rules to saturation rewrites. *)
type conversion = {
  crules : Pypm_egraph.Saturate.rw list;
  cskipped : (string * string) list;
      (** ("pattern/rule", reason) for every unconvertible rule *)
}

(** [rules_of_program ?guards p] converts every rule of [p] it can.
    [guards] (default true) admits guarded rules — callers that will not
    supply guard evaluation (the CLI's [simplify]) pass [~guards:false] to
    skip them instead of letting them fail closed at match time. *)
val rules_of_program : ?guards:bool -> Program.t -> conversion

(** Saturation budgets, all enforced by {!Pypm_egraph.Saturate.run}. *)
type budgets = {
  iter_limit : int;  (** saturation rounds (default 12) *)
  node_limit : int;  (** stop before a round past this many e-nodes *)
  class_limit : int;  (** stop before a round past this many e-classes *)
  match_limit : int;  (** matches per rule per round *)
}

val default_budgets : budgets

type outcome = {
  rules_used : int;
  rules_skipped : int;
  sat : Pypm_egraph.Saturate.stats;
  extracted : int;  (** outputs extraction produced a term for *)
  spliced : int;  (** splices committed (strict cost improvement) *)
  splices_rejected : int;
      (** splices rolled back: cost did not improve, the build failed, or
          rewiring would have closed a cycle *)
  cost_before : float;  (** simulated seconds before the phase *)
  cost_after : float;  (** ... and after; [<= cost_before] always *)
  collected : int;  (** nodes garbage-collected after splicing *)
}

(** [phase program g] runs one saturation phase over [g]'s outputs.
    [Error reason] when the phase cannot run at all (no convertible rules,
    no outputs) — callers treat that as "nothing to do", not failure.
    [deadline] is a polled anytime cutoff: when it fires, saturation stops
    where it is and only already-extracted splices are considered.
    Emits [Sat_iteration] / [Sat_union] / [Sat_extract] obs events. *)
val phase :
  ?device:Pypm_kernels.Cost.device ->
  ?budgets:budgets ->
  ?deadline:(unit -> bool) ->
  Program.t ->
  Pypm_graph.Graph.t ->
  (outcome, string) result
