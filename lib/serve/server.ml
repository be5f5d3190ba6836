module Obs = Pypm_obs.Obs
module Pass = Pypm_engine.Pass
module Program = Pypm_engine.Program
module Codec = Pypm_serialize.Codec
module Protocol = Pypm_serialize.Protocol
module Std_ops = Pypm_patterns.Std_ops
module Corpus = Pypm_patterns.Corpus
module Inject = Pypm_resilience.Resilience.Inject
module Signature = Pypm_term.Signature

let log_src = Logs.Src.create "pypm.serve" ~doc:"PyPM optimization service"

module Log = (val Logs.src_log log_src)

type config = {
  socket_path : string;
  workers : int;
  queue_bound : int;
  cache_bytes : int;
  max_frame_bytes : int;
  job_deadline_s : float option;
  drain_timeout_s : float;
  restart_budget : int;
}

let default_config ~socket_path =
  {
    socket_path;
    workers = 4;
    queue_bound = 64;
    cache_bytes = 64 * 1024 * 1024;
    max_frame_bytes = 64 * 1024 * 1024;
    job_deadline_s = Some 300.;
    drain_timeout_s = 5.;
    restart_budget = 10_000;
  }

(* ------------------------------------------------------------------ *)
(* Connections                                                         *)
(* ------------------------------------------------------------------ *)

(* Responses are written by whichever domain produced them — workers for
   results, the accept loop for sheds, reaps and protocol errors, the
   pool supervisor for poison pills — so each connection carries a write
   mutex: frames from concurrent requests on one connection must not
   interleave mid-frame. *)
type conn = {
  fd : Unix.file_descr;
  reader : Protocol.Reader.t;
  wmutex : Mutex.t;
  mutable alive : bool;
  mutable polled : bool;
      (* the accept loop still selects and reads on the fd; a worker whose
         write found the peer dead must leave the fd open until the loop
         has dropped it, or the loop would select or read a closed (or
         recycled) descriptor *)
  mutable pending : int;
      (* jobs in flight for this connection; the fd is closed only when
         this reaches 0 after death — otherwise a worker's late response
         could land on a recycled descriptor belonging to a new client *)
  mutable closed : bool;
}

let close_fd_once conn =
  if not conn.closed then begin
    conn.closed <- true;
    try Unix.close conn.fd with Unix.Unix_error _ -> ()
  end

let retain conn =
  Mutex.protect conn.wmutex (fun () -> conn.pending <- conn.pending + 1)

let release conn =
  Mutex.protect conn.wmutex (fun () ->
      conn.pending <- conn.pending - 1;
      if (not conn.alive) && (not conn.polled) && conn.pending = 0 then
        close_fd_once conn)

let write_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then
      let w = Unix.write_substring fd s off (n - off) in
      go (off + w)
  in
  go 0

let send conn resp =
  Mutex.protect conn.wmutex (fun () ->
      if conn.alive && not conn.closed then
        try write_all conn.fd (Protocol.frame (Protocol.encode_response resp))
        with Unix.Unix_error _ | Sys_error _ ->
          (* client went away; the accept loop reaps the fd *)
          conn.alive <- false)

(* ------------------------------------------------------------------ *)
(* Jobs and shared state                                               *)
(* ------------------------------------------------------------------ *)

type job = {
  jconn : conn;
  jid : int;  (* client-chosen request id, echoed in the response *)
  juid : int;  (* server-side unique id, keys the inflight registry *)
  jadmitted : float;  (* monotonic admission time, for the watchdog *)
  jdone : bool Atomic.t;
      (* completion claim: exactly one of the worker, the deadline
         watchdog and the pool supervisor answers the client and
         releases the connection — whoever wins the CAS *)
  jprogram : Protocol.program_spec;
  joptions : Protocol.options;
  jgraph : string;
}

type shared = {
  cache : Cache.t;
  served : int Atomic.t;
  shed : int Atomic.t;
  errs : int Atomic.t;
  poisoned : int Atomic.t;
  t0 : float;
  n_workers : int;
  jobs_mutex : Mutex.t;
  inflight : (int, job) Hashtbl.t;  (* juid -> admitted, unanswered job *)
}

let register sh j =
  Mutex.protect sh.jobs_mutex (fun () -> Hashtbl.replace sh.inflight j.juid j)

let inflight_count sh =
  Mutex.protect sh.jobs_mutex (fun () -> Hashtbl.length sh.inflight)

(* Answer the job's client and retire the job — from whichever domain
   won the completion claim. Loses the race: does nothing (someone else
   already answered). *)
let finish sh j resp =
  if Atomic.compare_and_set j.jdone false true then begin
    Mutex.protect sh.jobs_mutex (fun () -> Hashtbl.remove sh.inflight j.juid);
    (match resp with
    | Protocol.Result { cached; _ } ->
        Atomic.incr sh.served;
        Obs.emit (Obs.Request_served { id = j.jid; cached })
    | Protocol.Worker_crashed _ ->
        Atomic.incr sh.errs;
        Atomic.incr sh.poisoned;
        Obs.emit (Obs.Job_poisoned { id = j.jid })
    | Protocol.Overloaded _ -> Atomic.incr sh.shed
    | _ -> Atomic.incr sh.errs);
    send j.jconn resp;
    release j.jconn
  end

let server_stats sh : Protocol.server_stats =
  let cs = Cache.stats sh.cache in
  {
    Protocol.served = Atomic.get sh.served;
    shed = Atomic.get sh.shed;
    errors = Atomic.get sh.errs;
    cache_hits = cs.Cache.hits;
    cache_misses = cs.Cache.misses;
    cache_evictions = cs.Cache.evictions;
    cache_entries = cs.Cache.entries;
    cache_bytes = cs.Cache.bytes;
    workers = sh.n_workers;
    uptime_s = Obs.monotonic () -. sh.t0;
  }

(* ------------------------------------------------------------------ *)
(* Worker context                                                      *)
(* ------------------------------------------------------------------ *)

(* One per worker domain, built on that domain: the operator environment
   and a cache of prepared engines keyed by (program, engine), so a
   program is decoded and linted once per worker, not once per request.
   When the supervisor restarts a crashed worker, the replacement's
   [setup] builds a fresh context, so whatever state the crash poisoned
   is gone. *)
type wctx = {
  env : Std_ops.env;
  prepared : (string, Pass.prepared) Hashtbl.t;
}

let named_program env = function
  | "none" -> Some (Program.make ~sg:env.Std_ops.sg [])
  | "fmha" -> Some (Corpus.fmha_program env.Std_ops.sg)
  | "epilog" -> Some (Corpus.epilog_program env.Std_ops.sg)
  | "both" -> Some (Corpus.both_program env.Std_ops.sg)
  | "full" -> Some (Corpus.full_program env.Std_ops.sg)
  | _ -> None

exception Reject of Protocol.response

let reject_bad id reason = raise (Reject (Protocol.Bad_request { id; reason }))

(* The request's content key: program identity x option block x the
   isomorphism-invariant graph fingerprint. Fingerprint, not bytes: two
   clients encoding the same model mint different fresh-symbol uids and
   node ids, but fingerprint-equal graphs get the same optimization, so
   they share a cache line. *)
let cache_key ~program_key ~options ~fingerprint =
  Digest.to_hex
    (Digest.string
       (String.concat "\x00"
          [ program_key; Protocol.options_fingerprint options; fingerprint ]))

let prepared_for wctx ~program_key ~engine ~(program : Protocol.program_spec)
    ~id =
  let slot = program_key ^ "#" ^ Pass.engine_name engine in
  match Hashtbl.find_opt wctx.prepared slot with
  | Some p -> p
  | None ->
      let prog =
        match program with
        | Protocol.Named name -> (
            match named_program wctx.env name with
            | Some p -> p
            | None ->
                reject_bad id
                  (Printf.sprintf
                     "unknown pattern set %S (none|fmha|epilog|both|full)" name))
        | Protocol.Inline bytes -> (
            match Codec.decode_into ~sg:wctx.env.Std_ops.sg bytes with
            | Ok p -> p
            | Error msg -> reject_bad id ("pattern binary: " ^ msg))
      in
      (* Admission lint: a program with dead patterns or unsatisfiable
         guards is a structured Bad_request at admission time, not a
         runtime surprise billed to every request. Warnings pass;
         overlap search is skipped — only error-severity findings can
         reject, and they never come from the overlap report. The verdict
         is amortized with the prepared engine: one lint per
         (program, engine) slot per worker. *)
      (match
         Pypm_analysis.Analysis.(errors (lint ~overlaps:false prog))
       with
      | [] -> ()
      | errs ->
          reject_bad id
            ("program rejected by lint: "
            ^ String.concat "; "
                (List.map
                   (fun d ->
                     Format.asprintf "%a"
                       Pypm_analysis.Analysis.pp_diagnostic d)
                   errs)));
      let p =
        Pass.prepare_cfg
          ~config:{ Pass.Config.default with Pass.Config.engine = Some engine }
          prog
      in
      Hashtbl.replace wctx.prepared slot p;
      p

let inject_of_options ~id (o : Protocol.options) =
  if o.Protocol.fault_rate <= 0. then Inject.none
  else
    let points =
      match o.Protocol.fault_points with
      | [] -> None
      | names ->
          Some
            (List.map
               (fun n ->
                 match Inject.point_of_name n with
                 | Some p -> p
                 | None ->
                     reject_bad id (Printf.sprintf "unknown fault point %S" n))
               names)
    in
    Inject.seeded ?points ~seed:o.Protocol.fault_seed
      ~rate:o.Protocol.fault_rate ()

(* How long an injected serve-stall holds the worker: long enough to
   trip any test-sized job deadline, short enough that the worker's
   eventual (discarded) completion doesn't stall the suite. *)
let stall_s = 0.75

let handle_job sh wctx (j : job) =
  (* reaped while still queued (deadline passed before a worker was
     free): the watchdog already answered; skip the work entirely *)
  if Atomic.get j.jdone then ()
  else begin
    let t0 = Obs.monotonic () in
    let o = j.joptions in
    match
      let engine =
        match Pass.engine_of_name o.Protocol.engine with
        | Some e -> e
        | None ->
            reject_bad j.jid
              (Printf.sprintf "unknown engine %S (naive|index|plan|egraph)"
                 o.Protocol.engine)
      in
      let program_key =
        match j.jprogram with
        | Protocol.Named n -> "named:" ^ n
        | Protocol.Inline bytes ->
            "inline:" ^ Digest.to_hex (Digest.string bytes)
      in
      let prepared =
        prepared_for wctx ~program_key ~engine ~program:j.jprogram ~id:j.jid
      in
      (* Per-request signature copy: graph decode declares the graph's
         fresh leaf symbols, and those must not accumulate in the worker's
         long-lived signature, request after request. *)
      let sg = Signature.copy wctx.env.Std_ops.sg in
      let g =
        match
          Codec.Graphs.decode_into ~sg ~infer:wctx.env.Std_ops.infer j.jgraph
        with
        | Ok g -> g
        | Error msg -> reject_bad j.jid ("graph: " ^ msg)
      in
      let fingerprint = Pypm_fuzz.Fuzz.fingerprint g in
      let key = cache_key ~program_key ~options:o ~fingerprint in
      match Cache.find sh.cache key with
      | Some body ->
          Protocol.Result
            { id = j.jid; cached = true; service_s = Obs.monotonic () -. t0; body }
      | None ->
          let inject = inject_of_options ~id:j.jid o in
          (* the process-level fault points, queried before the pass so
             their position in the schedule's stream is fixed: a crash
             here escapes the catch-all below and kills this worker
             domain (the supervisor takes over); a stall holds the job
             past any test-sized deadline so the watchdog reaps it *)
          if Inject.fires inject Inject.Worker_crash then
            raise (Inject.Injected_crash "injected worker crash");
          if Inject.fires inject Inject.Serve_stall then Unix.sleepf stall_s;
          (* the option block folded into one pass configuration *)
          let config =
            {
              Pass.Config.default with
              Pass.Config.check_types = o.Protocol.check_types;
              fuel = o.Protocol.fuel;
              max_rewrites = o.Protocol.max_rewrites;
              deadline_s = o.Protocol.deadline_s;
              quarantine_after = o.Protocol.quarantine_after;
              inject;
              on_error = (if o.Protocol.strict then `Fail else `Quarantine);
            }
          in
          let stats = Pass.run_prepared_cfg ~config prepared g in
          let out_graph = Codec.Graphs.encode g in
          let body =
            Protocol.encode_outcome
              {
                Protocol.graph = out_graph;
                stats_json = Pass.stats_json stats;
                errors = stats.Pass.errors;
                fatal = stats.Pass.fatal;
              }
          in
          Cache.add sh.cache key body;
          Protocol.Result
            { id = j.jid; cached = false; service_s = Obs.monotonic () -. t0;
              body }
    with
    | resp -> finish sh j resp
    | exception Reject resp -> finish sh j resp
    | exception (Inject.Injected_crash _ as e) ->
        (* deliberately NOT contained: the crash escapes to the pool,
           kills this worker, and exercises the supervisor exactly like
           an unanticipated one would *)
        raise e
    | exception ((Stack_overflow | Out_of_memory) as e) ->
        (* the two real exceptions a request must not be able to feed
           back into this worker's next job: the heap or stack that
           raised them is this domain's, so let the supervisor rebuild
           the domain rather than serve on from a wounded one *)
        raise e
    | exception exn ->
        (* the catch-all that keeps a worker alive through anything else
           a request can throw (encode errors, injected pass chaos); the
           client gets a structured failure and the next request
           proceeds *)
        Log.warn (fun m ->
            m "request %d failed: %s" j.jid (Printexc.to_string exn));
        finish sh j
          (Protocol.Server_error { id = j.jid; reason = Printexc.to_string exn })
  end

(* ------------------------------------------------------------------ *)
(* Accept loop                                                        *)
(* ------------------------------------------------------------------ *)

let health_of sh pool ~workers ~draining : Protocol.health =
  {
    Protocol.status = (if draining then "draining" else "ok");
    uptime_s = Obs.monotonic () -. sh.t0;
    workers_alive = Pool.workers_alive pool;
    workers_total = workers;
    restarts = Pool.restarts pool;
    poisoned = Atomic.get sh.poisoned;
    inflight = inflight_count sh;
  }

let handle_frame sh pool ~workers ~draining ~next_uid conn payload =
  match Protocol.decode_request payload with
  | Error msg ->
      Atomic.incr sh.errs;
      send conn (Protocol.Bad_request { id = 0; reason = msg })
  | Ok (Protocol.Stats { id }) ->
      send conn (Protocol.Stats_report { id; stats = server_stats sh })
  | Ok (Protocol.Health { id }) ->
      send conn
        (Protocol.Health_report { id; health = health_of sh pool ~workers ~draining })
  | Ok (Protocol.Optimize { id; program; options; graph }) ->
      if draining then send conn (Protocol.Draining { id })
      else begin
        let job =
          {
            jconn = conn;
            jid = id;
            juid = next_uid ();
            jadmitted = Obs.monotonic ();
            jdone = Atomic.make false;
            jprogram = program;
            joptions = options;
            jgraph = graph;
          }
        in
        retain conn;
        register sh job;
        match Pool.submit pool job with
        | `Accepted -> ()
        | `Overloaded ->
            Obs.emit (Obs.Request_shed { id });
            finish sh job (Protocol.Overloaded { id })
      end

(* The deadline watchdog: runs on the accept-loop domain once per select
   round. A job past its admission-to-completion budget is answered
   [Deadline_exceeded] now; if a worker is still grinding on it, that
   worker's eventual result loses the completion claim and is discarded.
   The watchdog cannot preempt the worker (domains are not killable
   mid-computation) — it bounds the {e client's} wait, and the
   supervisor bounds the damage if the worker never comes back. *)
let reap_expired sh = function
  | None -> ()
  | Some deadline ->
      let now = Obs.monotonic () in
      let expired =
        Mutex.protect sh.jobs_mutex (fun () ->
            Hashtbl.fold
              (fun _ j acc ->
                if now -. j.jadmitted > deadline && not (Atomic.get j.jdone)
                then j :: acc
                else acc)
              sh.inflight [])
      in
      List.iter
        (fun j ->
          Log.warn (fun m ->
              m "request %d exceeded its %.3f s deadline; reaping" j.jid
                deadline);
          finish sh j
            (Protocol.Deadline_exceeded
               { id = j.jid; elapsed_s = now -. j.jadmitted }))
        expired

(* Probe an existing socket file before binding: a live server answers
   the connect (leave it alone — refuse to start); a stale socket left
   by a crashed process refuses it (reclaim by unlinking). Anything
   that is not a socket is never touched. *)
let reclaim_socket path =
  match Unix.stat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> Ok ()
  | { Unix.st_kind = Unix.S_SOCK; _ } ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let live =
        match Unix.connect fd (Unix.ADDR_UNIX path) with
        | () -> true
        | exception Unix.Unix_error _ -> false
      in
      (try Unix.close fd with Unix.Unix_error _ -> ());
      if live then
        Error
          (Printf.sprintf
             "%s: a server is already accepting connections on this socket"
             path)
      else begin
        Log.info (fun m -> m "reclaiming stale socket %s" path);
        (try Unix.unlink path with Unix.Unix_error _ -> ());
        Ok ()
      end
  | _ -> Error (Printf.sprintf "%s exists and is not a socket" path)
  | exception Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "%s: %s" path (Unix.error_message e))

let ( let* ) = Result.bind

let run ?(on_ready = fun () -> ()) ?(stop = fun () -> false)
    ?(drain = fun () -> false) ?(signals = false) (cfg : config) =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let draining = Atomic.make false in
  if signals then begin
    (* first signal: drain gracefully; second: stop being graceful *)
    let on_term _ =
      if Atomic.get draining then exit 1 else Atomic.set draining true
    in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle on_term);
    Sys.set_signal Sys.sigint (Sys.Signal_handle on_term)
  end;
  let sh =
    {
      cache = Cache.create ~max_bytes:cfg.cache_bytes;
      served = Atomic.make 0;
      shed = Atomic.make 0;
      errs = Atomic.make 0;
      poisoned = Atomic.make 0;
      t0 = Obs.monotonic ();
      n_workers = cfg.workers;
      jobs_mutex = Mutex.create ();
      inflight = Hashtbl.create 64;
    }
  in
  let uid = Atomic.make 0 in
  let next_uid () = Atomic.fetch_and_add uid 1 in
  let pool =
    Pool.create ~workers:cfg.workers ~queue_bound:cfg.queue_bound
      ~max_restarts:cfg.restart_budget
      ~on_crash:(fun (j : job) exn ->
        Log.warn (fun m ->
            m "request %d poisoned two workers: %s" j.jid
              (Printexc.to_string exn));
        finish sh j
          (Protocol.Worker_crashed
             { id = j.jid; reason = Printexc.to_string exn }))
      (fun _wid ->
        let wctx = { env = Std_ops.make (); prepared = Hashtbl.create 8 } in
        fun job -> handle_job sh wctx job)
  in
  let* () = reclaim_socket cfg.socket_path in
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let* () =
    match Unix.bind listen_fd (Unix.ADDR_UNIX cfg.socket_path) with
    | () -> Ok ()
    | exception Unix.Unix_error (e, _, _) ->
        (try Unix.close listen_fd with Unix.Unix_error _ -> ());
        Pool.shutdown pool;
        Error
          (Printf.sprintf "cannot bind %s: %s" cfg.socket_path
             (Unix.error_message e))
  in
  Unix.listen listen_fd 64;
  Log.info (fun m ->
      m "serving on %s: %d worker(s), queue bound %d, %d-byte cache"
        cfg.socket_path cfg.workers cfg.queue_bound cfg.cache_bytes);
  on_ready ();
  let conns : (Unix.file_descr, conn) Hashtbl.t = Hashtbl.create 16 in
  let close_conn (c : conn) =
    Hashtbl.remove conns c.fd;
    Mutex.protect c.wmutex (fun () ->
        c.alive <- false;
        c.polled <- false;
        if c.pending = 0 then close_fd_once c)
  in
  let buf = Bytes.create 65536 in
  let drain_t0 = ref None in
  let rec loop () =
    if not (stop ()) then begin
      if (not (Atomic.get draining)) && drain () then
        Atomic.set draining true;
      let is_draining = Atomic.get draining in
      (match (is_draining, !drain_t0) with
      | true, None ->
          drain_t0 := Some (Obs.monotonic ());
          Log.info (fun m ->
              m "draining: %d in-flight job(s), %.1f s budget"
                (inflight_count sh) cfg.drain_timeout_s)
      | _ -> ());
      reap_expired sh cfg.job_deadline_s;
      let drained =
        match !drain_t0 with
        | None -> false
        | Some t ->
            inflight_count sh = 0
            || Obs.monotonic () -. t > cfg.drain_timeout_s
      in
      if not drained then begin
        let fds =
          (* a draining server stops accepting new connections; existing
             ones stay readable so in-flight answers can be read and new
             requests get a structured [Draining] *)
          (if is_draining then [] else [ listen_fd ])
          @ Hashtbl.fold (fun fd _ acc -> fd :: acc) conns []
        in
        let readable =
          match Unix.select fds [] [] 0.2 with
          | r, _, _ -> r
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
        in
        List.iter
          (fun fd ->
            if fd = listen_fd then begin
              match Unix.accept listen_fd with
              | cfd, _ ->
                  Hashtbl.replace conns cfd
                    {
                      fd = cfd;
                      reader =
                        Protocol.Reader.create
                          ~max_frame:cfg.max_frame_bytes ();
                      wmutex = Mutex.create ();
                      alive = true;
                      polled = true;
                      pending = 0;
                      closed = false;
                    }
              | exception Unix.Unix_error _ -> ()
            end
            else
              match Hashtbl.find_opt conns fd with
              | None -> ()
              | Some conn -> (
                  match Unix.read fd buf 0 (Bytes.length buf) with
                  | 0 -> close_conn conn
                  | n ->
                      Protocol.Reader.feed conn.reader
                        (Bytes.sub_string buf 0 n);
                      let rec drain_frames () =
                        match Protocol.Reader.next conn.reader with
                        | `Frame payload ->
                            handle_frame sh pool ~workers:cfg.workers
                              ~draining:(Atomic.get draining) ~next_uid conn
                              payload;
                            drain_frames ()
                        | `Await -> ()
                        | `Error msg ->
                            (* oversize or mangled framing is sticky: no
                               frame boundary to resync on *)
                            Atomic.incr sh.errs;
                            send conn
                              (Protocol.Bad_request { id = 0; reason = msg });
                            close_conn conn
                      in
                      drain_frames ()
                  | exception
                      Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
                      close_conn conn
                  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()))
          readable;
        (* reap connections whose writes failed *)
        Hashtbl.iter
          (fun _ c -> if not c.alive then close_conn c)
          (Hashtbl.copy conns);
        loop ()
      end
    end
  in
  Fun.protect
    ~finally:(fun () ->
      (* jobs the drain budget did not cover get a terminal answer now,
         before their connections are torn down *)
      (let now = Obs.monotonic () in
       let stragglers =
         Mutex.protect sh.jobs_mutex (fun () ->
             Hashtbl.fold (fun _ j acc -> j :: acc) sh.inflight [])
       in
       List.iter
         (fun j ->
           finish sh j
             (Protocol.Deadline_exceeded
                { id = j.jid; elapsed_s = now -. j.jadmitted }))
         stragglers);
      (* drain queued jobs before tearing connections down so in-flight
         requests still answer (their completions lose the claim and are
         discarded silently) *)
      Pool.shutdown pool;
      (try Unix.close listen_fd with Unix.Unix_error _ -> ());
      Hashtbl.iter
        (fun _ c -> Mutex.protect c.wmutex (fun () -> close_fd_once c))
        conns;
      try Unix.unlink cfg.socket_path with Unix.Unix_error _ -> ())
    (fun () ->
      loop ();
      Ok ())
