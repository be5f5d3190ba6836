(** Resilience primitives for the rewrite engine.

    Production rewrite engines treat every rewrite as an all-or-nothing
    transaction under explicit resource budgets (cf. egg's bounded
    saturation and TASO's verified-substitution discipline). This library
    collects the mechanisms the pass uses to survive misbehaving rules,
    patterns and engines without corrupting the graph or aborting the
    process:

    - {!Txn} — the graph mutation journal ({!Pypm_graph.Graph.Txn}
      re-exported): a failed rule firing rolls the graph back to its
      pre-attempt state instead of leaking orphan nodes or raising;
    - {!Breaker} — the per-pattern circuit breaker: a pattern whose
      attempts repeatedly exhaust fuel or whose rules repeatedly error is
      quarantined for the remainder of the pass;
    - {!Inject} — deterministic, seeded fault injection: the pass threads
      a schedule through its failure points so the fuzzer can prove that
      {e any} fault pattern leaves the graph valid and every rollback
      exact.

    The degradation ladder (Plan → Index → Naive on engine-preparation
    failure) lives in {!Pypm_engine.Pass} itself; its obs events
    ([Engine_degraded]) and the fault point that tests it
    ({!Inject.point.Plan_compile}) are defined here and in {!Pypm_obs}. *)

(** The graph transaction journal. See {!Pypm_graph.Graph.Txn}. *)
module Txn = Pypm_graph.Graph.Txn

(** Per-pattern circuit breaker: counts strikes (fuel exhaustions, rule
    errors, cycle rejections) and trips permanently at a threshold. *)
module Breaker : sig
  type t

  (** [create ~threshold] trips after [threshold] strikes ([> 0]). *)
  val create : threshold:int -> t

  (** Record one strike. Returns [true] exactly once: on the strike that
      trips the breaker. Strikes after the trip are ignored. *)
  val strike : t -> bool

  val tripped : t -> bool
  val strikes : t -> int
  val threshold : t -> int

  (** Re-arm (new pass over the same program). *)
  val reset : t -> unit
end

(** Deterministic fault injection.

    A {!Inject.schedule} is a seeded SplitMix64 stream queried at each of
    the pass's failure points; whether a given query fires is a pure
    function of the seed and the query sequence, so any observed fault
    pattern replays exactly ([pypmc optimize --fault-seed N]). Every fire
    emits an {!Pypm_obs.Obs.kind.Fault_injected} event. *)
module Inject : sig
  (** Where a fault can be injected:
      - [Instantiate_fail]: {!Pypm_engine.Rule.instantiate} returns
        [Error] after the pattern matched;
      - [Guard_raise]: guard evaluation raises mid-firing;
      - [Fuel_cut]: the match attempt's fuel is cut to 1, forcing
        out-of-fuel;
      - [Replace_cycle]: the replacement is treated as if it would close
        a cycle;
      - [Plan_compile]: engine preparation fails, exercising the
        degradation ladder;
      - [Worker_crash]: a serve worker domain dies mid-job, exercising
        the pool supervisor (restart, retry, poison-pill quarantine);
      - [Serve_stall]: the worker stalls mid-job long enough to trip the
        server's per-job deadline watchdog;
      - [Wire_partial], [Wire_corrupt], [Wire_stall], [Wire_disconnect]:
        client-side wire chaos — torn frames, flipped bytes, mid-frame
        delays and mid-request disconnects, driven through the
        {!Pypm_serve.Chaos} fd wrapper. *)
  type point =
    | Instantiate_fail
    | Guard_raise
    | Fuel_cut
    | Replace_cycle
    | Plan_compile
    | Worker_crash
    | Serve_stall
    | Wire_partial
    | Wire_corrupt
    | Wire_stall
    | Wire_disconnect

  (** Raised by the serve layer when a [Worker_crash] fault fires; the
      worker's catch-all deliberately re-raises it so the exception
      escapes the job handler and kills the worker domain, exactly like
      an unanticipated crash would. *)
  exception Injected_crash of string

  (** The default arming: the five pass-level points plus [Worker_crash].
      [Serve_stall] (slow by design) and the wire points (client-side)
      must be armed by name. *)
  val all_points : point list

  (** The client-side wire fault points, for the chaos harness. *)
  val wire_points : point list

  val point_name : point -> string
  val point_of_name : string -> point option

  type schedule

  (** The empty schedule: never fires, never advances. The default. *)
  val none : schedule

  (** [seeded ~seed ~rate ()] fires each armed query with probability
      [rate] (in [[0, 1]]), deterministically from [seed]. [points]
      restricts which failure points are armed (default: all);
      [max_fires] caps the total number of injected faults. *)
  val seeded :
    ?points:point list -> ?max_fires:int -> seed:int -> rate:float -> unit ->
    schedule

  (** [fires s point] decides (and records) whether the fault at [point]
      fires now. Advances the stream iff [point] is armed and the
      schedule's rate is nonzero. *)
  val fires : schedule -> point -> bool

  (** Faults fired so far. *)
  val fired : schedule -> int

  (** Armed queries made so far. *)
  val queried : schedule -> int

  (** The next uniform draw in [[0, 1)] from the schedule's stream,
      independent of arming — deterministic side-band randomness for the
      chaos harness (fault positions) and the load client (backoff
      jitter). *)
  val roll : schedule -> float
end
