(** Differential fuzzing driver.

    Each property draws cases from a seeded {!Srng} stream and cross-checks
    two or more independent implementations of the same semantics:

    - [machine_matcher_faithful] / [machine_matcher_backtrack]: the abstract
      machine and the production backtracking matcher return equal outcomes
      under both stuck-state policies;
    - [oracle_first_witness]: the machine's success witness is the
      enumeration oracle's first witness, and machine failure implies the
      (complete) oracle found no witness;
    - [engines_agree]: the three pass engines (naive, indexed, plan) report
      identical per-pattern match counts, perform the same number of
      rewrites and produce isomorphic graphs on random well-typed
      transformer-style workloads — and the rewritten graph validates;
    - [egraph_pass_agreement]: the {!Pypm_engine.Pass.Egraph} engine
      leaves a valid graph that is never costlier (under the
      {!Pypm_kernels.Cost} model) than the plan engine's result on the
      same recipe; when its saturation post-phase splices nothing, the
      graph is isomorphic to the plan engine's;
    - [crash_safety]: under any seeded fault-injection schedule
      ({!Pypm_resilience.Resilience.Inject}) the pass neither raises nor
      leaves an invalid graph, on every engine, and its statistics agree
      with a capture of its events ({!counter_mismatches});
    - [rollback_exact]: a schedule failing every instantiation leaves the
      graph's structural fingerprint (and live node count) unchanged —
      every attempted firing rolled back exactly;
    - [lint_soundness]: every committed static-analysis verdict holds
      dynamically — patterns flagged dead never match random probe terms
      (backtracking matcher and enumeration oracle agree), every
      shadowing / subsumption / overlap witness term re-matches the
      patterns its diagnostic names, and [Analysis.subsumes p q = `Yes]
      is extensional on the probe stream (a q-match is a p-match);
    - [codec_roundtrip]: encode / decode / re-encode of random programs is
      byte-identical;
    - [codec_wire]: varint and zigzag primitives round-trip any [int];
    - [codec_graph_roundtrip]: a random well-typed graph survives
      {!Pypm_serialize.Codec.Graphs} encode / decode with its structural
      fingerprint intact, and truncated or bit-flipped buffers decode to
      [Error] — never an exception;
    - [surface_roundtrip]: pretty-printing a random frontend AST, re-parsing
      and re-elaborating yields alpha-equivalent patterns and equal rules;
    - [lex_parse_total]: hostile input never escapes {!Pypm_surface.Surface.parse}
      with an exception — errors are positioned values;
    - [string_roundtrip]: string-literal quoting and lexing are inverse.

    A failing case is minimized by greedy delta debugging over the
    {!Shrink} candidates and reported with the exact command line that
    replays it. *)

(** Verdict of one case. [Discard] marks vacuous cases (e.g. fuel ran out),
    which count toward neither pass nor failure. *)
type verdict = Pass | Discard | Fail of string

type failure = {
  f_prop : string;
  f_case_seed : int;
      (** replay with [pypmc fuzz --prop <name> --seed <case_seed> --budget 1] *)
  f_message : string;
  f_original : string;  (** printed counterexample as generated *)
  f_minimized : string;  (** printed counterexample after shrinking *)
  f_shrink_steps : int;  (** successful shrink steps taken *)
}

type prop_report = {
  p_name : string;
  p_cases : int;  (** cases executed (including the failing one) *)
  p_passed : int;
  p_discarded : int;
  p_failure : failure option;
}

type report = {
  r_seed : int;
  r_budget : int;
  r_props : prop_report list;
}

val all_prop_names : string list

(** Structural fingerprint of the live graph: node ids and input-symbol
    uid suffixes are relabelled in first-appearance order, shared
    subgraphs are emitted once then referenced, so two graphs have equal
    fingerprints iff they are isomorphic as labelled DAGs from their
    outputs. Runs {!Pypm_graph.Graph.gc} first (the fingerprint sees live
    nodes only). *)
val fingerprint : Pypm_graph.Graph.t -> string

(** [counter_mismatches stats events] recounts the per-pattern counters
    of [stats] — and the pass-wide totals that have an event — from
    [events], a capture ({!Pypm_obs.Obs.Collector}) of exactly the run
    that produced [stats], and describes each disagreement; [[]] means the
    counters and the event stream tell the same story. *)
val counter_mismatches :
  Pypm_engine.Pass.stats -> Pypm_obs.Obs.event list -> string list

(** [run ?props ~seed ~budget ()] executes the selected properties
    ([props = []] or omitted means all), spreading [budget] cases across
    them (expensive properties receive proportionally fewer cases). Case
    [i] of every property uses case seed [seed + i], so a failure replays
    with [--seed <case_seed> --budget 1] restricted to that property. Each
    property stops at its first failure (after minimizing it). Raises
    [Invalid_argument] on an unknown property name. *)
val run : ?props:string list -> seed:int -> budget:int -> unit -> report

(** True when no property failed. *)
val ok : report -> bool

val pp_report : Format.formatter -> report -> unit
