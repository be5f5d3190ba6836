(* A bounded multi-producer multi-consumer job queue feeding a fixed set
   of worker domains, under a supervisor. Submission never blocks: past
   the bound the job is refused ([`Overloaded]) and the caller sheds it —
   admission control belongs to the caller, latency to the queue.

   Workers are supervised: an exception escaping a job handler is a
   worker {e crash}. The crashed domain ends, the supervisor joins it and
   spawns a replacement — with a fresh [setup], so whatever state the
   crash poisoned is rebuilt — under a restart budget and exponential
   backoff. The job that was running is retried
   once on another worker; a job that kills two workers is a poison pill
   and is handed to [on_crash] instead of retried forever. *)

module Obs = Pypm_obs.Obs

(* A queued job plus how many workers it has killed. *)
type 'job entry = { job : 'job; mutable crashes : int }

(* Per-worker slot. [domain] and [crash_count] are touched only by
   [create] and the supervisor domain — never by workers or callers. *)
type slot = {
  mutable domain : unit Domain.t option;
  mutable crash_count : int;  (* crashes of this slot; drives backoff *)
}

type 'job t = {
  mutex : Mutex.t;
  nonempty : Condition.t;
  sup_wake : Condition.t;
  queue : 'job entry Queue.t;
  bound : int;
  mutable stopping : bool;
  setup : int -> 'job -> unit;
  on_crash : 'job -> exn -> unit;
  max_restarts : int;
  backoff_s : int -> float;
  mutable restart_count : int;  (* pool-lifetime worker restarts *)
  mutable alive : int;  (* workers currently able to take jobs *)
  mutable reports : (int * 'job entry option * exn) list;
      (* pending crash reports: worker id, the job it died on ([None] for
         a crash in [setup] itself), and the escaping exception *)
  slots : slot array;
  mutable supervisor : unit Domain.t option;
}

let report_crash t wid entry exn =
  Mutex.protect t.mutex (fun () ->
      t.alive <- t.alive - 1;
      t.reports <- (wid, entry, exn) :: t.reports;
      Condition.signal t.sup_wake)

let worker_loop t wid handle =
  let rec next () =
    let job =
      Mutex.protect t.mutex (fun () ->
          while Queue.is_empty t.queue && not t.stopping do
            Condition.wait t.nonempty t.mutex
          done;
          if Queue.is_empty t.queue then None else Some (Queue.pop t.queue))
    in
    match job with
    | None -> () (* stopping and drained *)
    | Some entry -> (
        (* An exception escaping the handler is a crash, not a blip: the
           handler layer (the server's per-job catch-all) already turned
           every containable error into a structured response, so what
           escapes here is the uncontainable kind — report it and let
           this domain die so the supervisor can rebuild its state. *)
        match handle entry.job with
        | () -> next ()
        | exception exn -> report_crash t wid (Some entry) exn)
  in
  next ()

let spawn_worker t wid =
  Domain.spawn (fun () ->
      (* [setup] runs on the worker domain so domain-local state (obs
         rings, matcher counters) and the worker's engine context live
         where the jobs run. *)
      match t.setup wid with
      | handle -> worker_loop t wid handle
      | exception exn -> report_crash t wid None exn)

(* One crash: join the dead domain (so it has ended before any
   replacement touches shared per-slot state), decide the job's
   fate, then restart the slot if the budget allows. Runs on the
   supervisor domain. *)
let handle_crash t wid entry exn =
  let slot = t.slots.(wid) in
  (match slot.domain with
  | Some d -> ( try Domain.join d with _ -> ())
  | None -> ());
  slot.domain <- None;
  slot.crash_count <- slot.crash_count + 1;
  (match entry with
  | Some e ->
      e.crashes <- e.crashes + 1;
      if e.crashes >= 2 then ((* poison pill: answer, don't retry *)
        try t.on_crash e.job exn with _ -> ())
      else
        Mutex.protect t.mutex (fun () ->
            (* retry once on another worker; the entry was already
               admitted, so it bypasses the bound *)
            Queue.push e t.queue;
            Condition.signal t.nonempty)
  | None -> ());
  let restart =
    Mutex.protect t.mutex (fun () ->
        if t.stopping || t.restart_count >= t.max_restarts then false
        else begin
          t.restart_count <- t.restart_count + 1;
          t.alive <- t.alive + 1;
          true
        end)
  in
  if restart then begin
    let delay = t.backoff_s (slot.crash_count - 1) in
    if delay > 0. then Unix.sleepf delay;
    Obs.emit (Obs.Worker_restarted { worker = wid; restarts = t.restart_count });
    slot.domain <- Some (spawn_worker t wid)
  end
  else
    (* The slot stays dead. If that was the last worker, jobs already
       queued would wait forever — fail them closed instead. *)
    let orphans =
      Mutex.protect t.mutex (fun () ->
          if t.alive > 0 then []
          else begin
            let l = Queue.fold (fun acc e -> e :: acc) [] t.queue in
            Queue.clear t.queue;
            List.rev l
          end)
    in
    List.iter (fun e -> try t.on_crash e.job exn with _ -> ()) orphans

let supervisor_loop t =
  let rec loop () =
    let action =
      Mutex.protect t.mutex (fun () ->
          while t.reports = [] && not t.stopping do
            Condition.wait t.sup_wake t.mutex
          done;
          match t.reports with
          | [] -> `Stop
          | r ->
              t.reports <- [];
              `Handle (List.rev r))
    in
    match action with
    | `Stop -> ()
    | `Handle reports ->
        List.iter (fun (wid, entry, exn) -> handle_crash t wid entry exn) reports;
        loop ()
  in
  loop ()

let default_backoff k = Float.min 0.05 (0.002 *. (2. ** float_of_int k))

let create ?(on_crash = fun _ _ -> ()) ?(max_restarts = 10_000)
    ?(backoff_s = default_backoff) ~workers ~queue_bound setup =
  if workers <= 0 then invalid_arg "Pool.create: workers must be > 0";
  if queue_bound <= 0 then invalid_arg "Pool.create: queue_bound must be > 0";
  if max_restarts < 0 then
    invalid_arg "Pool.create: max_restarts must be >= 0";
  let t =
    {
      mutex = Mutex.create ();
      nonempty = Condition.create ();
      sup_wake = Condition.create ();
      queue = Queue.create ();
      bound = queue_bound;
      stopping = false;
      setup;
      on_crash;
      max_restarts;
      backoff_s;
      restart_count = 0;
      alive = workers;
      reports = [];
      slots = Array.init workers (fun _ -> { domain = None; crash_count = 0 });
      supervisor = None;
    }
  in
  Array.iteri (fun wid slot -> slot.domain <- Some (spawn_worker t wid)) t.slots;
  t.supervisor <- Some (Domain.spawn (fun () -> supervisor_loop t));
  t

let submit t job =
  Mutex.protect t.mutex (fun () ->
      if t.stopping then `Overloaded
      else if t.alive = 0 && t.restart_count >= t.max_restarts then
        (* every worker is dead and the budget is spent: nothing will
           ever pop the queue again, so shed instead of accepting work
           that cannot complete *)
        `Overloaded
      else if Queue.length t.queue >= t.bound then `Overloaded
      else begin
        Queue.push { job; crashes = 0 } t.queue;
        Condition.signal t.nonempty;
        `Accepted
      end)

let queue_length t = Mutex.protect t.mutex (fun () -> Queue.length t.queue)
let workers_alive t = Mutex.protect t.mutex (fun () -> t.alive)
let restarts t = Mutex.protect t.mutex (fun () -> t.restart_count)

let shutdown t =
  Mutex.protect t.mutex (fun () ->
      t.stopping <- true;
      Condition.broadcast t.nonempty;
      Condition.broadcast t.sup_wake);
  (* supervisor first, so no restart races the slot joins below *)
  (match t.supervisor with Some d -> Domain.join d | None -> ());
  t.supervisor <- None;
  Array.iter
    (fun slot ->
      match slot.domain with
      | Some d ->
          (try Domain.join d with _ -> ());
          slot.domain <- None
      | None -> ())
    t.slots
