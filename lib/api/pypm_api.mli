(** The stable embedding surface.

    Everything an embedder needs, in pipeline order — the same path the
    [pypmc] driver and the serve layer walk:

    {v
      source text --parse--> Program.t --lint--> diagnostics
                                  |
                              prepare (Config)
                                  |
                               prepared --run--> stats --stats_json--> JSON
    v}

    The rest of the tree ({!Pypm_engine.Pass}, {!Pypm_analysis.Analysis},
    {!Pypm_surface.Surface}, ...) is reachable and public, but this module
    is the surface we keep stable: new capability arrives as new
    {!Config} fields with defaults, not as new positional or optional
    arguments on these functions.

    Quick start:

    {[
      let env = Pypm_api.env () in
      let prog = Result.get_ok (Pypm_api.parse ~sg:env.sg src) in
      match Pypm_api.lint prog with
      | _ :: _ as ds -> List.iter print_diagnostic ds
      | [] ->
          let config = { Pypm_api.Config.default with engine = Some Plan } in
          let prepared = Pypm_api.prepare ~config prog in
          let stats = Pypm_api.run ~config prepared graph in
          print_string (Pypm_api.stats_json stats)
    ]} *)

open Pypm_term
module Program = Pypm_engine.Program
module Pass = Pypm_engine.Pass
module Analysis = Pypm_analysis.Analysis

(** One knob record for the whole pass family
    ({!Pypm_engine.Pass.Config}). *)
module Config = Pypm_engine.Pass.Config

(** A fresh copy of the standard tensor-operator environment: the
    signature every built-in corpus program and zoo model is defined
    over, plus its type-inference rules. *)
val env : unit -> Pypm_patterns.Std_ops.env

(** [parse ~sg src] elaborates pattern source text into a core program
    over [sg] (extending it with the source's own [op] declarations).
    Errors are rendered with their source position. *)
val parse : sg:Signature.t -> string -> (Program.t, string) result

(** [load ~sg path] reads a [.pypm] source file or a [.bin] serialized
    pattern binary, by extension. *)
val load : sg:Signature.t -> string -> (Program.t, string) result

(** [lint ?overlaps prog] is {!Pypm_analysis.Analysis.lint}: dead
    patterns, shadowed alternates, subsumed and overlapping patterns,
    unsatisfiable guards. Error-severity findings are what
    {!Program.make}[ ~lint] and the serve layer's admission reject. *)
val lint : ?overlaps:bool -> Program.t -> Analysis.diagnostic list

(** [prepare ?config prog] binds the program to [config.engine] once,
    for repeated {!run}s. *)
val prepare : ?config:Config.t -> Program.t -> Pass.prepared

(** [run ?config prepared g] rewrites [g] in place to a fixpoint and
    reports statistics. Same [config] as {!prepare} — the prepared
    engine wins if they disagree. *)
val run : ?config:Config.t -> Pass.prepared -> Pypm_graph.Graph.t -> Pass.stats

(** One-shot {!prepare} + {!run}. *)
val optimize :
  ?config:Config.t -> Program.t -> Pypm_graph.Graph.t -> Pass.stats

(** Machine-readable pass statistics, including the effective config
    block ([engine_requested]/[engine_used], fuel, max_rewrites,
    check_types). *)
val stats_json : Pass.stats -> string
