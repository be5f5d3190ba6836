(** The serve wire protocol.

    Request/response envelopes for the resident optimization service
    ([pypmc serve]), built on {!Codec.Wire}. Every message is one
    varint-length-prefixed {e frame}; the payload leads with a magic +
    protocol version, then a tagged body. Like the codec formats,
    decoding is total: corrupt bytes yield [Error], never an exception.

    An [Optimize] request carries the program (by registered name, or as
    inline pattern-binary bytes), the full option block, and a
    {!Codec.Graphs}-encoded graph. The server answers with [Result]
    (whose body is an encoded {!outcome} — result graph, stats JSON,
    structured pass errors), [Overloaded] when admission control sheds
    the request, [Bad_request] on undecodable input, or [Server_error].

    The outcome body is encoded separately from the response header so
    the result cache can store cold body bytes verbatim: a warm response
    body is byte-identical to the cold one by construction, while the
    per-service fields ([cached], [service_s]) live in the header. *)

val version : int

(** {1 Pass options} *)

type options = {
  engine : string;  (** ["naive"] | ["index"] | ["plan"] | ["egraph"] *)
  fuel : int;
  max_rewrites : int;
  deadline_s : float option;
  quarantine_after : int;
  check_types : bool;
  strict : bool;  (** run under the [`Fail] error policy *)
  fault_seed : int;  (** fault injection; rate 0 disables *)
  fault_rate : float;
  fault_points : string list;  (** empty = all points armed *)
}

val default_options : options

(** The option component of the cache key: the encoded option block.
    Two requests with equal fingerprints are interchangeable to the
    pass. *)
val options_fingerprint : options -> string

(** {1 Envelopes} *)

type program_spec =
  | Named of string  (** a pattern set registered in the server *)
  | Inline of string  (** pattern-binary bytes ({!Codec.encode}) *)

type request =
  | Optimize of {
      id : int;
      program : program_spec;
      options : options;
      graph : string;  (** {!Codec.Graphs.encode} bytes *)
    }
  | Stats of { id : int }
  | Health of { id : int }
      (** liveness/readiness probe; answered inline by the accept loop
          even while the server is draining. Added in protocol v3. *)

(** What one optimization produced; travels as the [Result] body. *)
type outcome = {
  graph : string;  (** the rewritten graph, {!Codec.Graphs.encode} bytes *)
  stats_json : string;  (** [Pass.stats_json] of the run *)
  errors : Pypm_engine.Pass.error list;  (** contained rule errors *)
  fatal : Pypm_engine.Pass.error option;
}

type server_stats = {
  served : int;
  shed : int;
  errors : int;  (** requests answered with [Bad_request]/[Server_error] *)
  cache_hits : int;
  cache_misses : int;
  cache_evictions : int;
  cache_entries : int;
  cache_bytes : int;
  workers : int;
  uptime_s : float;
}

(** The health probe's answer: supervision and drain state at a glance. *)
type health = {
  status : string;  (** ["ok"] or ["draining"] *)
  uptime_s : float;
  workers_alive : int;  (** workers currently able to take jobs *)
  workers_total : int;  (** configured worker count *)
  restarts : int;  (** supervisor worker restarts since boot *)
  poisoned : int;  (** jobs answered [Worker_crashed] since boot *)
  inflight : int;  (** jobs admitted but not yet answered *)
}

type response =
  | Result of {
      id : int;
      cached : bool;  (** answered from the result cache *)
      service_s : float;  (** seconds from dequeue to answer *)
      body : string;  (** encoded {!outcome} *)
    }
  | Stats_report of { id : int; stats : server_stats }
  | Overloaded of { id : int }
      (** admission control shed the request; retry later *)
  | Bad_request of { id : int; reason : string }
  | Server_error of { id : int; reason : string }
  | Deadline_exceeded of { id : int; elapsed_s : float }
      (** the per-job watchdog reaped the request: it spent [elapsed_s]
          seconds from admission without completing. The job's eventual
          result (if any) is discarded. Added in protocol v3. *)
  | Draining of { id : int }
      (** the server is shutting down gracefully and no longer admits
          optimization work; reconnect and retry against its successor.
          Added in protocol v3. *)
  | Worker_crashed of { id : int; reason : string }
      (** the request crashed two worker domains in a row and was
          quarantined as a poison pill. Added in protocol v3. *)
  | Health_report of { id : int; health : health }  (** v3 *)

val response_id : response -> int

(** {1 Message encoding} *)

val encode_request : request -> string
val decode_request : string -> (request, string) result
val encode_response : response -> string
val decode_response : string -> (response, string) result
val encode_outcome : outcome -> string
val decode_outcome : string -> (outcome, string) result

(** {1 Framing} *)

(** [frame payload] is the varint length prefix plus the payload; what
    actually crosses the socket. *)
val frame : string -> string

(** Incremental deframer: feed raw socket bytes, pull complete frames.
    Frames split anywhere — including inside the length varint — resume
    cleanly on the next feed. A frame larger than [max_frame] (default
    64 MiB) is a sticky protocol error, as is a length varint that
    overflows the int range — both are rejected {e before} any
    allocation of the claimed size is attempted. *)
module Reader : sig
  type t

  val create : ?max_frame:int -> unit -> t
  val feed : t -> string -> unit
  val next : t -> [ `Frame of string | `Await | `Error of string ]
end
