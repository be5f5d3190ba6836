(** The resident optimization service.

    A Unix-domain-socket server that accepts {!Pypm_serialize.Protocol}
    frames and runs rewrite passes on a {!Pool} of worker domains. The
    moving parts:

    - {e accept loop} (the calling domain): [select] over the listen
      socket and every connection, incremental deframing, request
      decode, admission control — a full queue answers [Overloaded]
      immediately instead of queueing unbounded work;
    - {e workers}: each worker domain owns a full operator environment
      and a cache of {!Pypm_engine.Pass.prepared} engines keyed by
      (program, engine), so a program is decoded and linted once per
      worker, not once per request;
    - {e supervision}: an exception escaping a job kills its worker
      domain; the pool supervisor restarts it with a fresh environment
      under [restart_budget]. The job is retried once; a job that kills
      two workers is answered [Worker_crashed] and quarantined;
    - {e deadline watchdog}: a job not answered within [job_deadline_s]
      of admission is reaped with [Deadline_exceeded]; a worker still
      grinding on it loses the completion claim and its late result is
      discarded;
    - {e graceful drain}: on SIGTERM/SIGINT (CLI mode) or the [drain]
      hook, the server stops accepting connections, answers new
      [Optimize] requests with [Draining], serves what is in flight for
      up to [drain_timeout_s], then exits — answering any stragglers
      [Deadline_exceeded] first. A second signal exits immediately;
    - {e health}: [Health] requests are answered inline by the accept
      loop — status, uptime, workers alive, restart and poison counts,
      in-flight jobs — even while draining;
    - {e result cache} ({!Cache}): content-addressed by (program,
      options, graph fingerprint); a warm response body is
      byte-identical to the cold one;
    - {e resilience}: request faults — undecodable bytes, unknown
      engines or pattern sets, injected faults, anything a pass can
      throw — become structured error responses on the same connection;
      the server and the connection both survive.

    Responses may be written by any domain; per-connection write mutexes
    keep concurrent frames from interleaving, and a per-connection
    pending count keeps a worker's late write off a recycled fd. *)

type config = {
  socket_path : string;
  workers : int;  (** worker domains (>= 1) *)
  queue_bound : int;  (** jobs queued before shedding *)
  cache_bytes : int;  (** result-cache byte bound *)
  max_frame_bytes : int;
      (** largest request frame accepted; a bigger length prefix is a
          sticky protocol error before any allocation *)
  job_deadline_s : float option;
      (** admission-to-completion budget per job; [None] disables the
          watchdog *)
  drain_timeout_s : float;  (** how long a graceful drain waits *)
  restart_budget : int;  (** lifetime worker restarts before giving up *)
}

(** 4 workers, queue bound 64, 64 MiB cache, 64 MiB frames, 300 s job
    deadline, 5 s drain, 10000 restarts. *)
val default_config : socket_path:string -> config

(** [run ?on_ready ?stop ?drain ?signals cfg] binds, listens, serves.
    Blocks until [stop ()] returns true (polled a few times per second)
    or a drain completes; [on_ready] fires once the socket accepts
    connections — the in-process test hook. [drain] is polled like
    [stop] and starts a graceful drain when it first returns true;
    [signals] (default false — only [pypmc serve] sets it) installs
    SIGTERM/SIGINT handlers that do the same. Removes the socket file on
    exit.

    Startup probes an existing socket file: live server → [Error]
    without touching it; stale socket from a crashed process →
    reclaimed; non-socket file → [Error]. A losing bind race surfaces
    as [Error] too ([EADDRINUSE]). *)
val run :
  ?on_ready:(unit -> unit) ->
  ?stop:(unit -> bool) ->
  ?drain:(unit -> bool) ->
  ?signals:bool ->
  config ->
  (unit, string) result

val log_src : Logs.src
