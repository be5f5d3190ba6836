(** A supervised pool of worker domains behind a bounded job queue.

    Submission is non-blocking admission control: a queue at its bound
    refuses the job ([`Overloaded]) instead of queueing unbounded work —
    the server surfaces that to the client as an explicit overload
    response rather than silently growing latency.

    Workers are supervised. An exception escaping a job handler kills
    that worker domain; the supervisor joins the dead domain and spawns
    a replacement — with a fresh [setup], so poisoned per-worker state
    is rebuilt — under a restart budget with exponential backoff. The
    job the worker died on is retried once; a job that kills two workers
    is a {e poison pill}: it is handed to [on_crash] (the place to answer
    the client with a structured [Worker_crashed] error) instead of
    retried forever. Every restart
    emits an {!Pypm_obs.Obs.kind.Worker_restarted} event. *)

type 'job t

(** [create ~workers ~queue_bound setup] spawns [workers] domains. Each
    domain calls [setup wid] {e on itself} to build its job handler, so
    per-worker state (the prepared engine, domain-local observability)
    is created where the jobs will run — and rebuilt from scratch when a
    crashed worker is restarted.

    A handler exception is a {e crash}: the worker dies and is restarted
    (budgeted by [max_restarts], pool-lifetime, default 10000; delayed by
    [backoff_s k] where [k] counts that slot's crashes, default
    [min 0.05 (0.002 * 2^k)] seconds). [on_crash job exn] (default:
    drop) is called for a poison-pill job — one that crashed two
    workers — and for jobs stranded in the queue when the last worker
    dies with no budget left. Handlers that want to survive an error
    must catch it themselves and report a structured outcome; what
    escapes is treated as state-corrupting.

    Raises [Invalid_argument] on non-positive sizes or a negative
    restart budget. *)
val create :
  ?on_crash:('job -> exn -> unit) ->
  ?max_restarts:int ->
  ?backoff_s:(int -> float) ->
  workers:int ->
  queue_bound:int ->
  (int -> 'job -> unit) ->
  'job t

(** [submit t job] enqueues and wakes a worker, or refuses when the
    queue is at its bound, the pool is shutting down, or every worker is
    dead with no restart budget left (accepted work could never run). *)
val submit : 'job t -> 'job -> [ `Accepted | `Overloaded ]

val queue_length : 'job t -> int

(** Workers currently able to take jobs (spawned minus crashed-and-not-
    restarted). *)
val workers_alive : 'job t -> int

(** Pool-lifetime worker restarts performed by the supervisor. *)
val restarts : 'job t -> int

(** Drain the queue, stop the workers and the supervisor, join their
    domains. Idempotent in effect; jobs already queued are still
    processed by the surviving workers. *)
val shutdown : 'job t -> unit
