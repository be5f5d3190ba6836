(** Pattern programs: the unit DLCB loads and runs.

    A program is an ordered list of named patterns, each with its ordered
    list of rules — the in-memory form of a serialized PyPM pattern binary.
    Order matters twice: the pass tries patterns in their order of
    appearance "in the original python file", and within a pattern, rules
    fire first-guard-passes-wins (paper, sections 2 and 2.4). *)

open Pypm_term
open Pypm_pattern

type entry = {
  pname : string;
  pattern : Pattern.t;
      (** elaborated: alternates folded into [Alt], recursion into [Mu] *)
  rules : Rule.t list;
}

type t = { sg : Signature.t; entries : entry list }

(** Builds a program. Raises [Invalid_argument] if two entries share a
    [pname]: names key per-pattern statistics, so a duplicate would
    silently alias them.

    [?lint] is an opt-in admission check: the built program is handed to
    it, and any [Wf.Error]-severity diagnostic it returns raises
    [Invalid_argument] with the rendered messages (warnings are
    tolerated). Pass [Pypm_analysis.Analysis.wf_lint] to reject programs
    with dead patterns or unsatisfiable guards at construction time
    instead of paying for them on every pass. ([Program] cannot depend on
    the analysis library — it is downstream — hence the function
    parameter rather than a baked-in call.) *)
val make :
  ?lint:(t -> Pypm_pattern.Wf.diagnostic list) ->
  sg:Signature.t ->
  entry list ->
  t

val entry : t -> string -> entry option
val pattern_names : t -> string list

(** [restrict t names] keeps only the listed patterns (in program order);
    used to benchmark optimizations separately (FMHA only / Epilog only). *)
val restrict : t -> string list -> t

(** Well-formedness of every pattern, plus rule-level checks: each rule's
    template variables must be free variables of its pattern. *)
val check : t -> Pypm_pattern.Wf.diagnostic list

val pp : Format.formatter -> t -> unit
