type outcome = Matched | No_match | Stuck | Out_of_fuel

type kind =
  | Match_attempt of { pattern : string; outcome : outcome; visits : int }
  | Pruned of { pattern : string }
  | Fuel_exhausted of { pattern : string; fuel : int }
  | Matcher_fuel of { visits : int }
  | Guard_reject of { pattern : string; rule : string }
  | Type_reject of { pattern : string; rule : string }
  | Rule_fired of { pattern : string; rule : string; replacement : int }
  | Replace of { old_root : int; new_root : int }
  | Gc of { collected : int }
  | Iteration of { n : int }
  | Pass_begin of { engine : string; patterns : int }
  | Pass_end of { rewrites : int; iterations : int }
  | Rolled_back of { pattern : string; rule : string; reason : string; undone : int }
  | Cycle_rejected of { pattern : string; rule : string }
  | Quarantined of { pattern : string; strikes : int }
  | Engine_degraded of { from_ : string; to_ : string; reason : string }
  | Fault_injected of { point : string }
  | Deadline_hit of { budget_s : float }
  | Cache_hit of { key : string }
  | Cache_miss of { key : string }
  | Cache_evicted of { key : string; bytes : int }
  | Request_served of { id : int; cached : bool }
  | Request_shed of { id : int }
  | Worker_restarted of { worker : int; restarts : int }
  | Job_poisoned of { id : int }
  | Sat_iteration of { n : int; classes : int; nodes : int }
  | Sat_union of { rule : string }
  | Sat_extract of {
      output : int;
      before_cost : float;
      after_cost : float;
      accepted : bool;
    }

type event = { ts : float; dur : float; node : int; kind : kind }

(* ------------------------------------------------------------------ *)
(* Clocks                                                              *)
(*                                                                     *)
(* Two clocks on purpose: trace timestamps want wall-clock time (so    *)
(* traces from different processes line up), while durations and       *)
(* deadlines want a clock that cannot jump backwards under NTP slew.   *)
(* ------------------------------------------------------------------ *)

external monotonic_raw : unit -> float = "pypm_obs_monotonic_s"

let clock = ref Unix.gettimeofday
let set_clock f = clock := f
let now () = !clock ()
let mono_clock = ref monotonic_raw
let set_monotonic_clock f = mono_clock := f
let monotonic () = !mono_clock ()

(* ------------------------------------------------------------------ *)
(* Per-domain state                                                    *)
(*                                                                     *)
(* The ring buffer and the sink list are domain-local: the serve worker *)
(* pool runs one rewrite pass per domain. A process-global ring or sink *)
(* list would interleave events from unrelated passes (a capture would  *)
(* mix workers' streams) and race on the list itself. Domain.DLS gives  *)
(* each domain an isolated ring + sinks at no cost to the single-domain *)
(* CLI paths.                                                           *)
(* ------------------------------------------------------------------ *)

type sink = event -> unit

type dstate = {
  mutable ring_cap : int;
  mutable ring : event option array;
  mutable ring_next : int; (* next write position *)
  mutable ring_len : int;
  mutable next_sink_id : int;
  mutable sinks : (int * sink) list;
}

let dstate_key =
  Domain.DLS.new_key (fun () ->
      {
        ring_cap = 4096;
        ring = Array.make 4096 None;
        ring_next = 0;
        ring_len = 0;
        next_sink_id = 0;
        sinks = [];
      })

let st () = Domain.DLS.get dstate_key

(* ------------------------------------------------------------------ *)
(* Ring buffer: always on, fixed cost per event                        *)
(* ------------------------------------------------------------------ *)

let ring_push d e =
  d.ring.(d.ring_next) <- Some e;
  d.ring_next <- (d.ring_next + 1) mod d.ring_cap;
  if d.ring_len < d.ring_cap then d.ring_len <- d.ring_len + 1

let ring_reset () =
  let d = st () in
  Array.fill d.ring 0 d.ring_cap None;
  d.ring_next <- 0;
  d.ring_len <- 0

let set_ring_capacity n =
  if n <= 0 then invalid_arg "Obs.set_ring_capacity: capacity must be > 0";
  let d = st () in
  d.ring_cap <- n;
  d.ring <- Array.make n None;
  d.ring_next <- 0;
  d.ring_len <- 0

let recent ?limit () =
  let d = st () in
  let len = match limit with Some l -> min l d.ring_len | None -> d.ring_len in
  let first = (d.ring_next - len + (d.ring_cap * 2)) mod d.ring_cap in
  List.init len (fun i ->
      match d.ring.((first + i) mod d.ring_cap) with
      | Some e -> e
      | None -> assert false)

(* ------------------------------------------------------------------ *)
(* Sinks                                                               *)
(* ------------------------------------------------------------------ *)

let add_sink s =
  let d = st () in
  let id = d.next_sink_id in
  d.next_sink_id <- id + 1;
  d.sinks <- (id, s) :: d.sinks;
  fun () ->
    let d = st () in
    d.sinks <- List.filter (fun (i, _) -> i <> id) d.sinks

let with_sink s f =
  let detach = add_sink s in
  Fun.protect ~finally:detach f

let emit ?(node = -1) ?(dur = 0.) kind =
  let d = st () in
  let e = { ts = now (); dur; node; kind } in
  ring_push d e;
  match d.sinks with
  | [] -> ()
  | ss -> List.iter (fun (_, s) -> s e) ss

(* ------------------------------------------------------------------ *)
(* Collector                                                           *)
(* ------------------------------------------------------------------ *)

module Collector = struct
  type t = { mutable rev : event list; mutable n : int }

  let create () = { rev = []; n = 0 }

  let sink c e =
    c.rev <- e :: c.rev;
    c.n <- c.n + 1

  let events c = List.rev c.rev
  let length c = c.n

  let clear c =
    c.rev <- [];
    c.n <- 0
end

(* ------------------------------------------------------------------ *)
(* Provenance                                                          *)
(* ------------------------------------------------------------------ *)

module Provenance = struct
  type step = {
    seq : int;
    pattern : string;
    rule : string;
    matched_root : int;
    matched_op : string;
    replacement_root : int;
    replacement_op : string;
    theta_dom : string list;
    phi_dom : string list;
  }

  let pp_step ppf s =
    let dom =
      match s.theta_dom @ List.map (fun f -> f ^ "/fn") s.phi_dom with
      | [] -> ""
      | xs -> Printf.sprintf " binding {%s}" (String.concat ", " xs)
    in
    Format.fprintf ppf
      "step %d: rule %s (pattern %s) rewrote %%%d %s -> %%%d %s%s" s.seq
      s.rule s.pattern s.matched_root s.matched_op s.replacement_root
      s.replacement_op dom

  let pp ppf steps =
    Format.fprintf ppf "@[<v>";
    List.iter (fun s -> Format.fprintf ppf "%a@," pp_step s) steps;
    Format.fprintf ppf "@]"
end

(* ------------------------------------------------------------------ *)
(* Chrome trace-event JSON                                             *)
(* ------------------------------------------------------------------ *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let outcome_to_string = function
  | Matched -> "matched"
  | No_match -> "no-match"
  | Stuck -> "stuck"
  | Out_of_fuel -> "out-of-fuel"

(* name, category, args *)
let describe = function
  | Match_attempt { pattern; outcome; visits } ->
      ( "match " ^ pattern,
        "matcher",
        [
          ("pattern", `S pattern);
          ("outcome", `S (outcome_to_string outcome));
          ("visits", `I visits);
        ] )
  | Pruned { pattern } ->
      ("prune " ^ pattern, "pass", [ ("pattern", `S pattern) ])
  | Fuel_exhausted { pattern; fuel } ->
      ( "fuel-exhausted " ^ pattern,
        "pass",
        [ ("pattern", `S pattern); ("fuel", `I fuel) ] )
  | Matcher_fuel { visits } ->
      ("matcher out-of-fuel", "matcher", [ ("visits", `I visits) ])
  | Guard_reject { pattern; rule } ->
      ( "guard-reject " ^ rule,
        "pass",
        [ ("pattern", `S pattern); ("rule", `S rule) ] )
  | Type_reject { pattern; rule } ->
      ( "type-reject " ^ rule,
        "pass",
        [ ("pattern", `S pattern); ("rule", `S rule) ] )
  | Rule_fired { pattern; rule; replacement } ->
      ( "fire " ^ rule,
        "pass",
        [
          ("pattern", `S pattern);
          ("rule", `S rule);
          ("replacement", `I replacement);
        ] )
  | Replace { old_root; new_root } ->
      ( "replace",
        "graph",
        [ ("old_root", `I old_root); ("new_root", `I new_root) ] )
  | Gc { collected } -> ("gc", "graph", [ ("collected", `I collected) ])
  | Iteration { n } -> ("iteration", "pass", [ ("n", `I n) ])
  | Pass_begin { engine; patterns } ->
      ( "pass",
        "pass",
        [ ("engine", `S engine); ("patterns", `I patterns) ] )
  | Pass_end { rewrites; iterations } ->
      ( "pass-end",
        "pass",
        [ ("rewrites", `I rewrites); ("iterations", `I iterations) ] )
  | Rolled_back { pattern; rule; reason; undone } ->
      ( "rollback " ^ rule,
        "resilience",
        [
          ("pattern", `S pattern);
          ("rule", `S rule);
          ("reason", `S reason);
          ("undone", `I undone);
        ] )
  | Cycle_rejected { pattern; rule } ->
      ( "cycle-reject " ^ rule,
        "resilience",
        [ ("pattern", `S pattern); ("rule", `S rule) ] )
  | Quarantined { pattern; strikes } ->
      ( "quarantine " ^ pattern,
        "resilience",
        [ ("pattern", `S pattern); ("strikes", `I strikes) ] )
  | Engine_degraded { from_; to_; reason } ->
      ( "engine-degrade",
        "resilience",
        [ ("from", `S from_); ("to", `S to_); ("reason", `S reason) ] )
  | Fault_injected { point } ->
      ("fault " ^ point, "resilience", [ ("point", `S point) ])
  | Deadline_hit { budget_s } ->
      ( "deadline",
        "resilience",
        [ ("budget_ms", `I (int_of_float (budget_s *. 1000.))) ] )
  | Cache_hit { key } -> ("cache-hit", "serve", [ ("key", `S key) ])
  | Cache_miss { key } -> ("cache-miss", "serve", [ ("key", `S key) ])
  | Cache_evicted { key; bytes } ->
      ("cache-evict", "serve", [ ("key", `S key); ("bytes", `I bytes) ])
  | Request_served { id; cached } ->
      ( "request-served",
        "serve",
        [ ("id", `I id); ("cached", `S (string_of_bool cached)) ] )
  | Request_shed { id } -> ("request-shed", "serve", [ ("id", `I id) ])
  | Worker_restarted { worker; restarts } ->
      ( "worker-restarted",
        "serve",
        [ ("worker", `I worker); ("restarts", `I restarts) ] )
  | Job_poisoned { id } -> ("job-poisoned", "serve", [ ("id", `I id) ])
  | Sat_iteration { n; classes; nodes } ->
      ( "sat-iteration",
        "egraph",
        [ ("n", `I n); ("classes", `I classes); ("nodes", `I nodes) ] )
  | Sat_union { rule } -> ("sat-union " ^ rule, "egraph", [ ("rule", `S rule) ])
  | Sat_extract { output; before_cost; after_cost; accepted } ->
      ( "sat-extract",
        "egraph",
        [
          ("output", `I output);
          ("before_cost_ns", `I (int_of_float (before_cost *. 1e9)));
          ("after_cost_ns", `I (int_of_float (after_cost *. 1e9)));
          ("accepted", `S (string_of_bool accepted));
        ] )

module Chrome = struct
  let args_json args node =
    let fields =
      (if node >= 0 then [ ("node", `I node) ] else []) @ args
    in
    "{"
    ^ String.concat ","
        (List.map
           (fun (k, v) ->
             Printf.sprintf "\"%s\":%s" (json_escape k)
               (match v with
               | `S s -> "\"" ^ json_escape s ^ "\""
               | `I i -> string_of_int i))
           fields)
    ^ "}"

  let to_string events =
    let epoch =
      List.fold_left (fun a e -> Float.min a e.ts) infinity events
    in
    let epoch = if epoch = infinity then 0. else epoch in
    let buf = Buffer.create 65536 in
    Buffer.add_string buf "{\"traceEvents\":[";
    List.iteri
      (fun i e ->
        if i > 0 then Buffer.add_char buf ',';
        let name, cat, args = describe e.kind in
        let ts_us = (e.ts -. epoch) *. 1e6 in
        if e.dur > 0. then
          Buffer.add_string buf
            (Printf.sprintf
               "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,\"args\":%s}"
               (json_escape name) (json_escape cat) ts_us (e.dur *. 1e6)
               (args_json args e.node))
        else
          Buffer.add_string buf
            (Printf.sprintf
               "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"i\",\"s\":\"t\",\"ts\":%.3f,\"pid\":1,\"tid\":1,\"args\":%s}"
               (json_escape name) (json_escape cat) ts_us
               (args_json args e.node)))
      events;
    Buffer.add_string buf "],\"displayTimeUnit\":\"ms\"}";
    Buffer.contents buf

  let write path events =
    let oc = open_out_bin path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc (to_string events))
end

(* ------------------------------------------------------------------ *)
(* Pretty-printing                                                     *)
(* ------------------------------------------------------------------ *)

let pp_kind ppf k =
  let name, cat, args = describe k in
  Format.fprintf ppf "[%s] %s" cat name;
  List.iter
    (fun (k, v) ->
      match v with
      | `S s -> Format.fprintf ppf " %s=%s" k s
      | `I i -> Format.fprintf ppf " %s=%d" k i)
    args

let pp_event ppf e =
  Format.fprintf ppf "%.6f %a" e.ts pp_kind e.kind;
  if e.node >= 0 then Format.fprintf ppf " node=%%%d" e.node;
  if e.dur > 0. then Format.fprintf ppf " dur=%.1fus" (e.dur *. 1e6)
