(** The greedy rewrite pass.

    The paper's description (section 2.4): the compiler repeatedly traverses
    the graph; at each node it tries to match the subtree rooted there
    against each loaded pattern in order; on a match, the pattern's rules
    run in order and the first whose assertions pass fires, destructively
    replacing the root of the match; this repeats until no matches remain.

    {!run_cfg} implements exactly that, with instrumentation: per-pattern
    match attempts, matches, rewrites, and matcher wall-clock time — the
    data behind figures 12 and 13 — and a choice of four {e matching
    engines}:

    - {!Naive}: the paper's implementation — every pattern is tried at
      every node with the backtracking matcher.
    - {!Index}: the root-head index — a pattern whose
      {!Pypm_pattern.Pattern.root_heads} excludes the node's operator is
      skipped without running the matcher.
    - {!Plan}: the root-head index over a dirty-region worklist. Each
      visited node is matched exactly as under {!Index}; the pass is
      {e incremental}: after a rewrite fires, only the dirty region (the
      nodes the rewrite created plus the transitive consumers of the
      replacement root) is re-matched; everything else keeps its
      last-scanned no-match status, which is sound because a node's match
      outcome depends only on its term view. The scan resumes after a
      firing instead of restarting, and marking the dirty region walks
      use-lists; the loop's cost follows the rewrite, not the graph (see
      [doc/plan.md]). The rewrite sequence — and hence the final graph —
      is identical to the full-traversal engines' (checked in
      [test/test_plan.ml]).

    Every engine frees the replaced subgraph by use count after each
    firing ({!Pypm_graph.Graph.free}) and runs one {!Pypm_graph.Graph.gc}
    when its loop ends, unless the pass runs inside a caller's
    transaction.
    - {!Egraph}: the Plan engine followed by one cost-guided
      equality-saturation post-phase ({!Eqsat.phase}): the program's
      convertible rules saturate an e-graph over the greedy result under
      node/class/iteration budgets, each output's cheapest equivalent
      under the {!Pypm_kernels.Cost} model is extracted, and splices are
      committed transactionally only on strict whole-graph cost
      improvement — so the result is never costlier than {!Plan}'s on the
      same graph, by construction. The phase recovers rewrites the greedy
      order destroyed (the paper's phase-ordering weakness). Counters
      land in the [sat_*] stats fields; [deadline_s] bounds the phase
      like the rest of the pass.

    {2 Resilience}

    The pass is built to survive misbehaving rules, patterns and engines
    without corrupting the graph or aborting the process:

    - {e transactional firing} — from instantiation to the final rewiring,
      every firing attempt runs inside a graph transaction
      ({!Pypm_graph.Graph.Txn}); a failed instantiate, a type or cycle
      rejection after partial construction, or an injected fault rolls the
      graph back to its exact pre-attempt state ([rolled_back],
      [cycle_rejections]);
    - {e structured errors} — a rule that fails to instantiate or whose
      guard raises becomes an {!error} value in [stats.errors] (policy
      [`Quarantine], the default) or the pass's [stats.fatal] (policy
      [`Fail]), never an exception escaping the pass;
    - {e quarantine} — a pattern that keeps striking (fuel exhaustion,
      rule errors, cycle rejections) trips its circuit breaker after
      [quarantine_after] strikes and is skipped for the rest of the pass;
    - {e degradation ladder} — if the requested engine cannot be prepared
      (an injected [Plan_compile] fault, or no rule converts to a
      saturation rewrite), the pass degrades Egraph → Plan → Index →
      Naive with a warn event instead of dying;
    - {e deadline} — [deadline_s] bounds the pass's wall-clock time;
      on expiry the pass stops where it is and returns partial stats with
      [reached_fixpoint = false] and [deadline_hit = true];
    - {e fault injection} — [inject] threads a seeded
      {!Pypm_resilience.Resilience.Inject.schedule} through every failure
      point, for the fuzzer's crash-safety properties and for replaying
      fault schedules from the CLI. *)

open Pypm_term
open Pypm_graph

type engine = Naive | Index | Plan | Egraph

(** Every engine, from the simplest to the richest. *)
val engines : engine list

(** The engine's name on the command line, on the wire and in
    [stats.engine_used]: ["naive"], ["index"], ["plan"], ["egraph"]. *)
val engine_name : engine -> string

(** The inverse of {!engine_name}; [None] for any other string. *)
val engine_of_name : string -> engine option

(** The pass configuration: one record for every knob of the pass.
    Build it with a record update over {!Config.default} and hand
    the same value to {!prepare_cfg}, {!run_cfg}, {!run_prepared_cfg} and
    {!match_only_cfg}. *)
module Config : sig
  type t = {
    engine : engine option;  (** matching engine; [None] runs {!Naive} *)
    check_types : bool;
        (** refuse a rule whose replacement changes the matched root's
            tensor type (default true) *)
    fuel : int;  (** per-match visit budget (default 200_000) *)
    max_rewrites : int;  (** divergence backstop (default 10_000) *)
    deadline_s : float option;  (** anytime wall-clock budget *)
    quarantine_after : int;  (** breaker strikes (default 5) *)
    inject : Pypm_resilience.Resilience.Inject.schedule;
        (** fault-injection schedule (default none) *)
    on_error : [ `Quarantine | `Fail ];  (** rule-error policy *)
  }

  val default : t
end

(** Structured pass errors. A rule that misbehaves produces one of these
    instead of an exception; under the default [`Quarantine] policy they
    accumulate in [stats.errors] while the pass continues, under [`Fail]
    the first one becomes [stats.fatal] and stops the pass. In both cases
    the graph has already been rolled back to its pre-attempt state. *)
type error =
  | Rule_failed of { pattern : string; rule : string; reason : string }
      (** [Rule.instantiate] returned [Error] after the pattern matched
          (e.g. a template variable unbound by the pattern). *)
  | Guard_raised of { pattern : string; rule : string; reason : string }
      (** Guard evaluation raised an exception (distinct from a guard
          cleanly evaluating to false, which is a normal rejection). *)
  | Engine_unavailable of { engine : string; reason : string }
      (** No rung of the degradation ladder could be prepared. Always
          fatal. *)

val pp_error : Format.formatter -> error -> unit

(** [error_message e] is [pp_error] rendered to a string — the CLI's
    structured exit message. *)
val error_message : error -> string

type pattern_stats = {
  ps_name : string;
  mutable attempts : int;  (** nodes the backtracking matcher ran against *)
  mutable skipped : int;
      (** nodes skipped by the root-head prefilter without running the
          matcher; always 0 under [Naive] *)
  mutable plan_pruned : int;
      (** always 0: no engine prunes beyond the root-head prefilter. Kept
          so [stats_json] keeps its ["plan_pruned"] key *)
  mutable matches : int;  (** successful matches (rules may still not fire) *)
  mutable rewrites : int;  (** rules fired *)
  mutable fuel_exhausted : int;
      (** match attempts the matcher abandoned when [~fuel] ran out — {b
          not} clean no-matches: a witness may exist that was never found *)
  mutable guard_rejections : int;
      (** rules whose guard evaluated to false on a witness *)
  mutable rolled_back : int;
      (** firing attempts of this pattern's rules that were rolled back *)
  mutable quarantined : bool;
      (** the pattern's circuit breaker tripped: it was skipped from that
          point to the end of the pass *)
  mutable match_time : float;  (** seconds inside the backtracking matcher *)
}

type stats = {
  mutable iterations : int;  (** full traversals *)
  mutable nodes_visited : int;
      (** nodes actually scanned; under [Plan] clean nodes are skipped, so
          this is the work-queue length, not live-count × iterations *)
  mutable total_rewrites : int;
  mutable type_rejections : int;
      (** rules whose replacement would have changed the matched node's
          tensor type, rejected under [check_types = true] *)
  mutable fuel_exhausted : int;
      (** total fuel-exhausted attempts across all patterns; a nonzero
          value means the "fixpoint" may be short of the true one *)
  mutable cycle_rejections : int;
      (** firings rejected because the rewiring would have closed a cycle;
          the attempt was rolled back and the pass continued *)
  mutable rolled_back : int;
      (** total firing attempts undone by the transaction journal (failed
          instantiates, type and cycle rejections, injected faults) *)
  mutable quarantined : int;  (** patterns quarantined during the pass *)
  mutable collected : int;
      (** garbage nodes removed: freed after each firing plus the final
          collection *)
  mutable wall_time : float;  (** whole pass, seconds *)
  mutable plan_time : float;
      (** always 0. Kept so [stats_json] keeps its ["plan_time_s"] key *)
  mutable reached_fixpoint : bool;
  mutable deadline_hit : bool;
      (** the pass stopped at [deadline_s]; implies
          [reached_fixpoint = false] unless the fixpoint was reached
          first *)
  mutable engine_used : string;
      (** the engine that actually ran — differs from the requested one
          when the degradation ladder stepped down *)
  mutable engine_requested : string;
      (** the engine the configuration asked for, before any degradation
          — compare with [engine_used] *)
  mutable cfg_check_types : bool;  (** the run's [check_types] setting *)
  mutable cfg_fuel : int;  (** the run's per-match fuel budget *)
  mutable cfg_max_rewrites : int;
      (** the run's rewrite backstop (0 for [match_only]) *)
  mutable errors : error list;
      (** contained rule errors, in occurrence order (policy
          [`Quarantine]) *)
  mutable fatal : error option;
      (** the error that stopped the pass (policy [`Fail], or
          [Engine_unavailable]); the stats up to that point are valid *)
  mutable provenance : Pypm_obs.Obs.Provenance.step list;
      (** the rewrite provenance log: one step per fired rule, in firing
          order — what [pypmc trace] replays *)
  mutable sat_iterations : int;
      (** saturation rounds the {!Egraph} post-phase executed; all
          [sat_*] fields stay zero / [""] unless that phase ran *)
  mutable sat_unions : int;  (** equalities added by saturation rewrites *)
  mutable sat_skipped_rules : int;
      (** program rules that could not be converted to saturation
          rewrites (attributed templates, witness-needing patterns) *)
  mutable sat_classes : int;  (** e-classes when saturation stopped *)
  mutable sat_nodes : int;  (** e-nodes when saturation stopped *)
  mutable sat_extracted : int;
      (** graph outputs extraction produced a candidate term for *)
  mutable sat_spliced : int;
      (** splices committed (strict whole-graph cost improvement) *)
  mutable sat_rejected : int;
      (** splices rolled back (no improvement, build failure, or cycle) *)
  mutable sat_stop : string;
      (** why saturation stopped ({!Pypm_egraph.Saturate.stop_reason_name}:
          "saturated", "iter_limit", "node_limit", "class_limit",
          "deadline"); [""] when the phase did not run *)
  mutable sat_cost_before : float;
      (** simulated whole-graph seconds before the post-phase *)
  mutable sat_cost_after : float;  (** ... and after; never greater *)
  per_pattern : pattern_stats list;
      (** one record per program entry, in program order. The pass counts
          into each record where the thing happens (an attempt, a prune, a
          firing), beside the {!Pypm_obs.Obs} event that narrates it; the
          records are the statistics, not a summary of the events. A test
          and the [crash_safety] fuzz property check that a capture of the
          events agrees with them ([Fuzz.counter_mismatches]). *)
}

(** Name-keyed lookup into [per_pattern]. Unambiguous because
    {!Program.make} rejects duplicate pattern names; the pass itself uses
    per-entry records, never this. *)
val find_pattern_stats : stats -> string -> pattern_stats option

(** [provenance stats] is [stats.provenance]. *)
val provenance : stats -> Pypm_obs.Obs.Provenance.step list

(** The pass's log source ("pypm.pass"): [debug] on each rule firing,
    [warn] on type-check rejections, rollbacks, quarantines, engine
    degradations and deadline hits. Enable with
    [Logs.Src.set_level Pass.log_src (Some Logs.Debug)]. *)
val log_src : Logs.src

(** {1 Prepared engines}

    A {!prepared} value is the run-independent half of an engine: the
    program and the engine choice. Preparing once and calling
    {!run_prepared_cfg} many times is how the serve worker pool holds one
    engine per (program, engine) pair.

    A [prepared] value is immutable and safe to reuse across sequential
    runs on the same domain. Breakers, stats and fault schedules are
    created fresh inside every {!run_prepared_cfg} call. *)

type prepared

(** [prepare_cfg ?config program] resolves [config.engine]; the other
    fields are ignored. *)
val prepare_cfg : ?config:Config.t -> Program.t -> prepared

(** The engine that was requested at prepare time (the ladder may still
    step down during a run; see [stats.engine_used]). *)
val prepared_engine : prepared -> engine

val prepared_program : prepared -> Program.t

(** {1 Running the pass}

    [?config] defaults to {!Config.default} in every entry point. *)

(** [run_cfg ?config program graph] rewrites [graph] to fixpoint, or until
    [config.max_rewrites] rewrites as a divergence backstop. [fuel] bounds
    each individual match. [engine] selects the matching engine (see
    above). [check_types] refuses to fire a rule whose replacement node's
    tensor type differs from the matched root's — a rewrite must preserve
    what the rest of the graph observes; rejected firings are rolled
    back, counted in [type_rejections], and the next rule is tried.
    Replacements typed [None] (opaque) are always allowed.

    Resilience fields:

    - [deadline_s]: wall-clock budget in seconds; on expiry the pass
      returns partial stats with [deadline_hit = true].
    - [quarantine_after]: strikes before a pattern's circuit breaker
      trips and the pattern is skipped for the rest of the pass.
    - [inject]: the fault-injection schedule threaded through the pass's
      failure points.
    - [on_error]: what a structured rule error does — [`Quarantine]
      records it in [stats.errors], strikes the pattern's breaker and
      continues; [`Fail] sets [stats.fatal] and stops the pass at the
      first error.

    [run_cfg] does not raise on rule or engine failures; every failure
    mode is a stats field. *)
val run_cfg : ?config:Config.t -> Program.t -> Graph.t -> stats

(** [run_prepared_cfg ?config p g] is {!run_cfg} on [p]'s program; it
    runs whatever engine [p] was prepared for, so [config.engine] is not
    consulted. Per-run state — circuit breakers, stats records, the
    fault-injection schedule — is fresh on every call, and the [inject]
    [Plan_compile] point is consulted per run. *)
val run_prepared_cfg : ?config:Config.t -> prepared -> Graph.t -> stats

(** [run_result_cfg] is {!run_cfg} under the [`Fail] policy, with the
    fatal error (if any) surfaced as the [Error] case alongside the
    partial stats — the strict-mode entry point for callers that must
    report the first failure structurally (the CLI's [--strict]). *)
val run_result_cfg :
  ?config:Config.t -> Program.t -> Graph.t -> (stats, error * stats) result

(** [match_only_cfg ?config program graph] runs the matching half only:
    counts matches of every pattern at every node without firing any
    rule, using [config.engine] and [config.fuel]. Returns the stats
    (rewrites stay 0). This is the figure 12/13 measurement: the cost of
    running the matcher over a model. *)
val match_only_cfg : ?config:Config.t -> Program.t -> Graph.t -> stats

(** [matches_of ?fuel program graph] lists, per pattern, the node ids whose
    subtree matched, with the witness substitutions. No rewriting. *)
val matches_of :
  ?fuel:int ->
  Program.t ->
  Graph.t ->
  (string * (int * Subst.t * Fsubst.t) list) list

val pp_stats : Format.formatter -> stats -> unit

(** [stats_json s] renders the full stats record — totals, resilience
    counters, structured errors, per-pattern breakdown — as one JSON
    object. This is what [pypmc optimize --stats-json] emits and what the
    serve protocol carries in every response body. *)
val stats_json : stats -> string
