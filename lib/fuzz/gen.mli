(** Deterministic random generators for every fuzzable object.

    All generators draw exclusively from an {!Srng.t} stream, so a case is
    reproducible from its seed alone. Three families:

    - {b core objects} over a tiny fixed signature (binary [f], unary [g],
      ternary [h], constants [a b c], mirroring the unit-test fixtures):
      terms, patterns covering every constructor including [Alt], [Guarded],
      [Exists]/[Exists_f], [Constr] and [Mu], match-biased (pattern, term)
      pairs, and whole engine programs with rules (for the codec);
    - {b frontend objects}: well-formed surface ASTs exercising aliases,
      [var()] locals, operator variables, asserts, match constraints,
      alternates, pattern calls and self-recursion, plus escape-laden string
      literals — and garbage/mutated source text for totality testing;
    - {b tensor graphs}: recipes for well-typed transformer-style graphs
      over {!Pypm_patterns.Std_ops} together with a pattern program drawn
      from the corpus, rebuildable deterministically so the differential
      engine properties can replay the same workload per engine. *)

open Pypm_term
open Pypm_pattern

(** The shared core test signature (f/2, g/1, h/3, a, b, c). *)
val sg : Signature.t

(** Structural attribute interpretation over {!sg}: [size], [depth],
    [nargs]; symbol [arity]. *)
val interp : Guard.interp

val term : Srng.t -> Term.t
val pattern : Srng.t -> Pattern.t

(** A (pattern, term) pair: mixes pairs abstracted from the term (frequent
    matches), independent draws, and binder/recursion-heavy patterns. *)
val pair : Srng.t -> Pattern.t * Term.t

(** An engine program over a fresh copy of the core signature: 1-4 named
    patterns, each with 0-2 rules whose templates use the pattern's free
    variables. Rule literals are millifloat-exact, so encoding is lossless. *)
val core_program : Srng.t -> Pypm_engine.Program.t

(** A well-formed surface AST. Mostly elaborable; always printable and
    re-parseable. *)
val ast_program : Srng.t -> Pypm_dsl.Ast.program

(** An arbitrary string over a pool that includes quotes, backslashes,
    newlines and other controls (for the string-literal round trip). *)
val string_ : Srng.t -> string

(** Hostile source text: random bytes, token soup, oversized numeric
    literals, or a valid program with point mutations. *)
val garbage_source : Srng.t -> string

(** A rebuildable differential-testing workload: seeds and size knobs only,
    so each engine run can rebuild the identical graph and program. *)
type graph_recipe = {
  gr_seed : int;  (** master seed for graph and program construction *)
  gr_nodes : int;  (** approximate live-node target *)
  gr_pats : int;  (** number of corpus patterns to load *)
}

val graph_recipe : Srng.t -> graph_recipe

(** [build recipe] deterministically rebuilds the environment, the graph
    and the pattern program. Repeated calls with the same recipe produce
    isomorphic graphs and identical programs. Every tensor and constant of
    one graph shares one float element type, f32 in most graphs, so the
    corpus's dtype guards both pass and reject. *)
val build :
  graph_recipe ->
  Pypm_patterns.Std_ops.env * Pypm_graph.Graph.t * Pypm_engine.Program.t
