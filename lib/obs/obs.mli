(** Structured observability for the whole engine.

    Every layer of the matcher stack — the backtracking matcher, the
    rewrite pass, the graph — emits {e typed events} through this
    module: match attempts with their outcome and duration, prunes, fuel
    exhaustion, guard and type rejections, rule firings, replacements, GC.
    This is the substrate the evaluation (figures 12/13) and every future
    performance PR measures against, in the spirit of TVM's pass
    instruments and MLIR's [-mlir-timing]/action tracing.

    Three sinks consume events:

    - a {e ring buffer}, always on and cheap — the last few thousand events
      are always available for post-mortem inspection ({!recent});
    - attachable sinks ({!add_sink}/{!with_sink}), used by the {!Collector}
      (full event capture for {!Chrome} trace export);
    - the {!Chrome} writer, which renders captured events as Chrome
      trace-event JSON loadable in [chrome://tracing] or
      {{:https://ui.perfetto.dev}Perfetto}.

    Events are the narrative, not the books: the per-pattern counters live
    in [Pass.stats], counted where each thing happens, and the test suite
    and the [crash_safety] fuzz property check that a capture of a pass's
    events agrees with them.

    The module is dependency-free (stdlib + unix for the clock) so every
    library in the tree can emit without layering concerns. *)

(** Outcome of one matcher invocation, mirrored from
    [Pypm_semantics.Outcome] to keep this library at the bottom of the
    dependency order. *)
type outcome = Matched | No_match | Stuck | Out_of_fuel

type kind =
  | Match_attempt of { pattern : string; outcome : outcome; visits : int }
      (** the backtracking matcher ran; [visits] = pattern nodes spent *)
  | Pruned of { pattern : string }
      (** the root-head prefilter rejected the pattern at a node without
          running the matcher *)
  | Fuel_exhausted of { pattern : string; fuel : int }
      (** a match attempt hit its fuel bound — {b not} a clean no-match *)
  | Matcher_fuel of { visits : int }
      (** emitted by the matcher itself at the exhaustion site *)
  | Guard_reject of { pattern : string; rule : string }
  | Type_reject of { pattern : string; rule : string }
  | Rule_fired of { pattern : string; rule : string; replacement : int }
  | Replace of { old_root : int; new_root : int }
  | Gc of { collected : int }
  | Iteration of { n : int }
  | Pass_begin of { engine : string; patterns : int }
  | Pass_end of { rewrites : int; iterations : int }
  | Rolled_back of {
      pattern : string;
      rule : string;
      reason : string;
      undone : int;  (** graph mutations undone by the journal *)
    }
      (** a firing attempt failed partway and the transaction journal
          restored the pre-attempt graph *)
  | Cycle_rejected of { pattern : string; rule : string }
      (** the replacement would have closed a cycle; the firing was rolled
          back instead of raising *)
  | Quarantined of { pattern : string; strikes : int }
      (** the per-pattern circuit breaker tripped: this pattern is skipped
          for the remainder of the pass *)
  | Engine_degraded of { from_ : string; to_ : string; reason : string }
      (** the degradation ladder fell back to a simpler matching engine *)
  | Fault_injected of { point : string }
      (** a deterministic fault-injection point fired (testing only) *)
  | Deadline_hit of { budget_s : float }
      (** the pass stopped at its wall-clock budget with partial stats *)
  | Cache_hit of { key : string }
      (** the serve result cache answered a request without running a pass *)
  | Cache_miss of { key : string }
  | Cache_evicted of { key : string; bytes : int }
      (** LRU eviction to stay under the cache's byte bound *)
  | Request_served of { id : int; cached : bool }
  | Request_shed of { id : int }
      (** admission control rejected the request (queue at bound) *)
  | Worker_restarted of { worker : int; restarts : int }
      (** the pool supervisor replaced a crashed worker domain;
          [restarts] is the pool-lifetime restart count after this one *)
  | Job_poisoned of { id : int }
      (** a request crashed two workers in a row and was quarantined
          with a structured [Worker_crashed] response instead of retried *)
  | Sat_iteration of { n : int; classes : int; nodes : int }
      (** an equality-saturation round is starting: 1-based round number
          and the e-graph's class/node counts at that point *)
  | Sat_union of { rule : string }
      (** a saturation rewrite added one equality (a union) *)
  | Sat_extract of {
      output : int;
      before_cost : float;
      after_cost : float;
      accepted : bool;
    }
      (** cost-guided extraction proposed a splice for the graph output
          [output]; [accepted] iff the transactional splice committed
          (it only does when the whole-graph cost strictly improves) *)

type event = {
  ts : float;  (** absolute seconds (Unix epoch) at emission *)
  dur : float;  (** seconds covered by the event; 0 for instants *)
  node : int;  (** graph node id, or -1 when not node-scoped *)
  kind : kind;
}

(** {1 Emission} *)

val emit : ?node:int -> ?dur:float -> kind -> unit

(** The clock events are stamped with; defaults to [Unix.gettimeofday].
    Replaceable for deterministic tests. Use for {e timestamps} only —
    wall time can jump backwards. *)
val set_clock : (unit -> float) -> unit

val now : unit -> float

(** Monotonic clock for measuring {e durations} and deadlines: seconds
    from an arbitrary origin, never decreasing. Backed by
    [clock_gettime(CLOCK_MONOTONIC)] (wall-clock fallback on platforms
    without it). Not comparable with {!now}. *)
val monotonic : unit -> float

(** Replace {!monotonic} for deterministic tests. *)
val set_monotonic_clock : (unit -> float) -> unit

(** {1 The ring buffer (always on)}

    The ring and the attachable sinks below are {e domain-local}: each
    OCaml domain (e.g. a serve worker) observes only its own events, so
    concurrent passes never interleave their streams. *)

(** Most recent events, oldest first. [limit] caps the result length. *)
val recent : ?limit:int -> unit -> event list

val ring_reset : unit -> unit

(** Resize the ring (default 4096 events); drops current contents. *)
val set_ring_capacity : int -> unit

(** {1 Attachable sinks} *)

type sink = event -> unit

(** [add_sink s] attaches [s]; returns the detach function. *)
val add_sink : sink -> unit -> unit

(** [with_sink s f] runs [f] with [s] attached, detaching on exit even on
    exceptions. *)
val with_sink : sink -> (unit -> 'a) -> 'a

(** {1 Event capture} *)

module Collector : sig
  type t

  val create : unit -> t
  val sink : t -> sink

  (** Captured events in emission order. *)
  val events : t -> event list

  val length : t -> int
  val clear : t -> unit
end

(** {1 Rewrite provenance}

    The ordered record of what the pass did to the graph: one step per
    fired rule, replayable as a human-readable narrative ([pypmc trace]). *)

module Provenance : sig
  type step = {
    seq : int;  (** 0-based firing order *)
    pattern : string;
    rule : string;
    matched_root : int;  (** graph node id the pattern matched at *)
    matched_op : string;
    replacement_root : int;  (** node id of the replacement *)
    replacement_op : string;
    theta_dom : string list;  (** variables bound by the witness *)
    phi_dom : string list;  (** function variables bound *)
  }

  val pp_step : Format.formatter -> step -> unit

  (** The full narrative, one line per step. *)
  val pp : Format.formatter -> step list -> unit
end

(** {1 Chrome trace-event export} *)

module Chrome : sig
  (** [to_string events] renders a Chrome trace-event JSON object
      ([{"traceEvents": [...], ...}]); events with a duration become
      complete ("ph":"X") slices, instants become "ph":"i". Timestamps are
      microseconds relative to the earliest event. *)
  val to_string : event list -> string

  val write : string -> event list -> unit
end

(** {1 Pretty-printing} *)

val pp_kind : Format.formatter -> kind -> unit
val pp_event : Format.formatter -> event -> unit

(** Escape a string for embedding in a JSON string literal (used by the
    Chrome writer; exported for other JSON emitters in the tree). *)
val json_escape : string -> string
