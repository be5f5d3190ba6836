open Pypm_graph
open Pypm_semantics
module Obs = Pypm_obs.Obs
module Breaker = Pypm_resilience.Resilience.Breaker
module Inject = Pypm_resilience.Resilience.Inject

type engine = Naive | Index | Plan | Egraph

let engine_name = function
  | Naive -> "naive"
  | Index -> "index"
  | Plan -> "plan"
  | Egraph -> "egraph"

let engines = [ Naive; Index; Plan; Egraph ]

let engine_of_name s =
  List.find_opt (fun e -> String.equal (engine_name e) s) engines

(* ------------------------------------------------------------------ *)
(* Run configuration                                                   *)
(* ------------------------------------------------------------------ *)

(* One record for every knob of the pass. Callers build a
   [Config.t] (usually [{ Config.default with ... }]) and pass that one
   value to [prepare_cfg] / [run_cfg] / [run_prepared_cfg] /
   [match_only_cfg]. *)
module Config = struct
  type t = {
    engine : engine option;  (** [None]: Naive *)
    check_types : bool;
    fuel : int;
    max_rewrites : int;
    deadline_s : float option;
    quarantine_after : int;
    inject : Inject.schedule;
    on_error : [ `Quarantine | `Fail ];
  }

  let default =
    {
      engine = None;
      check_types = true;
      fuel = 200_000;
      max_rewrites = 10_000;
      deadline_s = None;
      quarantine_after = 5;
      inject = Inject.none;
      on_error = `Quarantine;
    }
end

(* ------------------------------------------------------------------ *)
(* Structured pass errors                                              *)
(* ------------------------------------------------------------------ *)

type error =
  | Rule_failed of { pattern : string; rule : string; reason : string }
  | Guard_raised of { pattern : string; rule : string; reason : string }
  | Engine_unavailable of { engine : string; reason : string }

let pp_error ppf = function
  | Rule_failed { pattern; rule; reason } ->
      Format.fprintf ppf "rule %s (pattern %s) failed to instantiate: %s" rule
        pattern reason
  | Guard_raised { pattern; rule; reason } ->
      Format.fprintf ppf "guard of rule %s (pattern %s) raised: %s" rule
        pattern reason
  | Engine_unavailable { engine; reason } ->
      Format.fprintf ppf
        "no matching engine available (last tried %s): %s" engine reason

let error_message e = Format.asprintf "%a" pp_error e

type pattern_stats = {
  ps_name : string;
  mutable attempts : int;
  mutable skipped : int;
  mutable plan_pruned : int; (* always 0; kept for its stats_json key *)
  mutable matches : int;
  mutable rewrites : int;
  mutable fuel_exhausted : int;
  mutable guard_rejections : int;
  mutable rolled_back : int;
  mutable quarantined : bool;
  mutable match_time : float;
}

type stats = {
  mutable iterations : int;
  mutable nodes_visited : int;
  mutable total_rewrites : int;
  mutable type_rejections : int;
  mutable fuel_exhausted : int;
  mutable cycle_rejections : int;
  mutable rolled_back : int;
  mutable quarantined : int;
  mutable collected : int;
  mutable wall_time : float;
  mutable plan_time : float; (* always 0; kept for its stats_json key *)
  mutable reached_fixpoint : bool;
  mutable deadline_hit : bool;
  mutable engine_used : string;
  mutable engine_requested : string;
  mutable cfg_check_types : bool;
  mutable cfg_fuel : int;
  mutable cfg_max_rewrites : int;
  mutable errors : error list;
  mutable fatal : error option;
  mutable provenance : Obs.Provenance.step list;
  (* Equality-saturation post-phase counters; all zero / "" unless the
     [Egraph] engine ran its phase. *)
  mutable sat_iterations : int;
  mutable sat_unions : int;
  mutable sat_skipped_rules : int;
  mutable sat_classes : int;
  mutable sat_nodes : int;
  mutable sat_extracted : int;
  mutable sat_spliced : int;
  mutable sat_rejected : int;
  mutable sat_stop : string;
  mutable sat_cost_before : float;
  mutable sat_cost_after : float;
  per_pattern : pattern_stats list;
}

let fresh_stats (program : Program.t) =
  {
    iterations = 0;
    nodes_visited = 0;
    total_rewrites = 0;
    type_rejections = 0;
    fuel_exhausted = 0;
    cycle_rejections = 0;
    rolled_back = 0;
    quarantined = 0;
    collected = 0;
    wall_time = 0.;
    plan_time = 0.;
    reached_fixpoint = false;
    deadline_hit = false;
    engine_used = "";
    engine_requested = "";
    cfg_check_types = true;
    cfg_fuel = 0;
    cfg_max_rewrites = 0;
    errors = [];
    fatal = None;
    provenance = [];
    sat_iterations = 0;
    sat_unions = 0;
    sat_skipped_rules = 0;
    sat_classes = 0;
    sat_nodes = 0;
    sat_extracted = 0;
    sat_spliced = 0;
    sat_rejected = 0;
    sat_stop = "";
    sat_cost_before = 0.;
    sat_cost_after = 0.;
    per_pattern =
      List.map
        (fun (e : Program.entry) ->
          {
            ps_name = e.Program.pname;
            attempts = 0;
            skipped = 0;
            plan_pruned = 0;
            matches = 0;
            rewrites = 0;
            fuel_exhausted = 0;
            guard_rejections = 0;
            rolled_back = 0;
            quarantined = false;
            match_time = 0.;
          })
        program.Program.entries;
  }

(* Program.make rejects duplicate names, so the name → stats lookup is
   unambiguous; the hot paths below never use it, they carry per-entry
   records instead. *)
let find_pattern_stats stats name =
  List.find_opt (fun ps -> String.equal ps.ps_name name) stats.per_pattern

let log_src = Logs.Src.create "pypm.pass" ~doc:"PyPM rewrite pass"

module Log = (val Logs.src_log log_src)

(* Durations and deadlines use the monotonic clock: wall time (Obs.now,
   which stamps event timestamps) can jump under NTP slew and once
   produced a negative match_time. The two clocks are not comparable. *)
let now = Obs.monotonic

(* ------------------------------------------------------------------ *)
(* Run context: configuration plus the abort channel                   *)
(* ------------------------------------------------------------------ *)

(* Raised to unwind out of the traversal when the pass cannot or must not
   continue (wall-clock deadline, fatal error under [`Fail], no engine
   left on the ladder). The relevant stats fields are always set before
   raising; [run_prepared_cfg] catches it and returns the partial stats. *)
exception Aborted

type rctx = {
  rstats : stats;
  rinject : Inject.schedule;
  ron_error : [ `Quarantine | `Fail ];
  rdeadline : float option; (* absolute, seconds *)
  rdeadline_budget : float; (* as requested, for the event *)
  rcheck_types : bool;
  rfuel : int;
  rstart : float; (* [now ()] when the run started *)
}

let check_deadline rc =
  match rc.rdeadline with
  | Some d when (not rc.rstats.deadline_hit) && now () > d ->
      rc.rstats.deadline_hit <- true;
      Obs.emit (Obs.Deadline_hit { budget_s = rc.rdeadline_budget });
      Log.warn (fun m ->
          m
            "pass stopped at its %.3fs wall-clock deadline after %d \
             rewrite(s) — returning partial stats (reached_fixpoint=false)"
            rc.rdeadline_budget rc.rstats.total_rewrites);
      raise Aborted
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Per-entry matching context: each pattern carries its own optional    *)
(* root-head prefilter, its circuit breaker, and its stats record.      *)
(* ------------------------------------------------------------------ *)

type ectx = {
  entry : Program.entry;
  heads : Pypm_term.Symbol.Set.t option;
      (* operators the root can have; None = no prefilter *)
  breaker : Breaker.t;
  epstats : pattern_stats;
}

(* One (breaker, stats-record) slot per program entry, shared by every
   engine the ladder tries: strikes and counts survive a mid-pass
   degradation. *)
let entry_slots ~quarantine_after stats =
  List.map
    (fun ps -> (Breaker.create ~threshold:quarantine_after, ps))
    stats.per_pattern

let contexts ~prefilter (program : Program.t) slots =
  List.map2
    (fun (e : Program.entry) (breaker, ps) ->
      {
        entry = e;
        heads =
          (if prefilter then Pypm_pattern.Pattern.root_heads e.Program.pattern
           else None);
        breaker;
        epstats = ps;
      })
    program.Program.entries slots

(* The per-pattern circuit breaker: fuel exhaustions, rule errors and
   cycle rejections all strike; at the threshold the pattern is
   quarantined — skipped without matching — for the rest of the pass. *)
let strike rc (c : ectx) =
  if Breaker.strike c.breaker then begin
    c.epstats.quarantined <- true;
    rc.rstats.quarantined <- rc.rstats.quarantined + 1;
    Obs.emit
      (Obs.Quarantined
         {
           pattern = c.entry.Program.pname;
           strikes = Breaker.strikes c.breaker;
         });
    Log.warn (fun m ->
        m
          "pattern %s QUARANTINED after %d strike(s) (fuel exhaustions or \
           rule errors) — skipped for the remainder of this pass"
          c.entry.Program.pname (Breaker.strikes c.breaker))
  end

(* Record a contained rule error; under [`Fail] it becomes fatal and
   aborts the pass (the graph has already been rolled back). *)
let rule_error rc (c : ectx) err =
  rc.rstats.errors <- err :: rc.rstats.errors;
  strike rc c;
  if rc.ron_error = `Fail then begin
    rc.rstats.fatal <- Some err;
    raise Aborted
  end

(* Try to match one pattern at one node with the backtracking matcher.
   Every attempt, prune, and fuel exhaustion is counted in the entry's
   stats record and emits an obs event. Quarantined patterns are skipped
   outright. *)
let try_match rc view (c : ectx) (node : Graph.node) =
  let pname = c.entry.Program.pname in
  let ps = c.epstats in
  if Breaker.tripped c.breaker then None
  else
    match c.heads with
    | Some heads when not (Pypm_term.Symbol.Set.mem node.Graph.op heads) ->
        ps.skipped <- ps.skipped + 1;
        Obs.emit ~node:node.Graph.id (Obs.Pruned { pattern = pname });
        None
    | _ -> (
        let fuel =
          if Inject.fires rc.rinject Inject.Fuel_cut then 1 else rc.rfuel
        in
        let t = Term_view.term_of view node in
        let interp = Term_view.interp view in
        let t0 = now () in
        let outcome =
          Matcher.matches ~interp ~policy:Outcome.Policy.Backtrack ~fuel
            c.entry.Program.pattern t
        in
        let dur = now () -. t0 in
        ps.attempts <- ps.attempts + 1;
        ps.match_time <- ps.match_time +. dur;
        let obs_outcome =
          match outcome with
          | Outcome.Matched _ ->
              ps.matches <- ps.matches + 1;
              Obs.Matched
          | Outcome.No_match -> Obs.No_match
          | Outcome.Stuck -> Obs.Stuck
          | Outcome.Out_of_fuel -> Obs.Out_of_fuel
        in
        Obs.emit ~node:node.Graph.id ~dur
          (Obs.Match_attempt
             {
               pattern = pname;
               outcome = obs_outcome;
               visits = Matcher.last_visits ();
             });
        match outcome with
        | Outcome.Matched (theta, phi) -> Some (theta, phi)
        | Outcome.Out_of_fuel ->
            (* NOT a clean no-match: the matcher was stopped mid-search, so a
               witness may exist that we never saw. Surface it loudly, and
               strike the breaker: a pattern that keeps exhausting fuel
               starves the rest of the library and gets quarantined. *)
            Log.warn (fun m ->
                m
                  "pattern %s at node %%%d ran OUT OF FUEL after %d visits — \
                   counted as fuel_exhausted, not as a no-match; raise ~fuel \
                   if this keeps happening"
                  pname node.Graph.id fuel);
            ps.fuel_exhausted <- ps.fuel_exhausted + 1;
            rc.rstats.fuel_exhausted <- rc.rstats.fuel_exhausted + 1;
            Obs.emit ~node:node.Graph.id
              (Obs.Fuel_exhausted { pattern = pname; fuel });
            strike rc c;
            None
        | Outcome.No_match | Outcome.Stuck -> None)

(* A replacement must present the same tensor type to the rest of the
   graph; opaque (untyped) nodes are accepted on either side. *)
let types_compatible (old_root : Graph.node) (new_root : Graph.node) =
  match (old_root.Graph.ty, new_root.Graph.ty) with
  | Some a, Some b -> Pypm_tensor.Ty.equal a b
  | _ -> true

let symbol_strings syms = List.map (fun (s : Pypm_term.Symbol.t) -> (s :> string)) syms

(* Fire the first rule whose guard passes. Returns the replacement root if
   a rewrite happened; records provenance on the stats.

   Every firing attempt is a transaction: the guard check happens before
   anything is allocated, and from instantiation to the final rewiring the
   graph mutations sit in the journal. A failed instantiate, a type or
   cycle rejection after construction, or an injected fault rolls the
   graph back to its pre-attempt state — no orphan nodes, no partial
   rewiring — and the next rule (or pattern) is tried. *)
let fire ?settled rc g view (c : ectx) node theta phi =
  let stats = rc.rstats in
  let pname = c.entry.Program.pname in
  let ps = c.epstats in
  let rec try_rules = function
    | [] -> None
    | (r : Rule.t) :: rest -> (
        let guard_verdict =
          if Inject.fires rc.rinject Inject.Guard_raise then
            Error "injected fault: guard raised"
          else
            match Rule.check_guard view theta phi r with
            | ok -> Ok ok
            | exception e -> Error (Printexc.to_string e)
        in
        match guard_verdict with
        | Error reason ->
            (* Nothing allocated yet; no rollback needed. *)
            Log.warn (fun m ->
                m "guard of rule %s at node %%%d raised: %s" r.Rule.rule_name
                  node.Graph.id reason);
            rule_error rc c
              (Guard_raised { pattern = pname; rule = r.Rule.rule_name; reason });
            try_rules rest
        | Ok false ->
            ps.guard_rejections <- ps.guard_rejections + 1;
            Obs.emit ~node:node.Graph.id
              (Obs.Guard_reject { pattern = pname; rule = r.Rule.rule_name });
            try_rules rest
        | Ok true -> (
            let sp = Graph.Txn.begin_ g in
            let rollback reason =
              let undone = Graph.Txn.rollback g sp in
              stats.rolled_back <- stats.rolled_back + 1;
              ps.rolled_back <- ps.rolled_back + 1;
              Obs.emit ~node:node.Graph.id
                (Obs.Rolled_back
                   { pattern = pname; rule = r.Rule.rule_name; reason; undone })
            in
            let instantiated =
              if Inject.fires rc.rinject Inject.Instantiate_fail then
                Error "injected fault: instantiate failed"
              else
                match Rule.instantiate g view theta phi r.Rule.rhs with
                | result -> result
                | exception e ->
                    Error ("construction raised: " ^ Printexc.to_string e)
            in
            match instantiated with
            | Error reason ->
                rollback ("instantiate: " ^ reason);
                Log.warn (fun m ->
                    m "rule %s for %s failed to instantiate at node %%%d: %s"
                      r.Rule.rule_name pname node.Graph.id reason);
                rule_error rc c
                  (Rule_failed
                     { pattern = pname; rule = r.Rule.rule_name; reason });
                try_rules rest
            | Ok new_root ->
                if new_root.Graph.id = node.Graph.id then (
                  (* identity rewrite: firing it forever would spin *)
                  Graph.Txn.commit g sp;
                  try_rules rest)
                else if rc.rcheck_types && not (types_compatible node new_root)
                then (
                  stats.type_rejections <- stats.type_rejections + 1;
                  Obs.emit ~node:node.Graph.id
                    (Obs.Type_reject { pattern = pname; rule = r.Rule.rule_name });
                  Log.warn (fun m ->
                      m
                        "rule %s at node %%%d rejected: replacement type \
                         differs from the matched root"
                        r.Rule.rule_name node.Graph.id);
                  rollback "replacement type differs from the matched root";
                  try_rules rest)
                else
                  let replaced =
                    if Inject.fires rc.rinject Inject.Replace_cycle then
                      Error `Cycle
                    else Graph.try_replace ?settled g ~old_root:node ~new_root
                  in
                  match replaced with
                  | Error `Cycle ->
                      stats.cycle_rejections <- stats.cycle_rejections + 1;
                      Obs.emit ~node:node.Graph.id
                        (Obs.Cycle_rejected
                           { pattern = pname; rule = r.Rule.rule_name });
                      Log.warn (fun m ->
                          m
                            "rule %s at node %%%d rejected: rewiring would \
                             create a cycle (firing rolled back)"
                            r.Rule.rule_name node.Graph.id);
                      rollback "rewiring would create a cycle";
                      strike rc c;
                      try_rules rest
                  | Ok () ->
                      Graph.Txn.commit g sp;
                      Log.debug (fun m ->
                          m "fired %s (pattern %s) at node %%%d -> %%%d (%s)"
                            r.Rule.rule_name pname node.Graph.id
                            new_root.Graph.id new_root.Graph.op);
                      stats.provenance <-
                        {
                          Obs.Provenance.seq = stats.total_rewrites;
                          pattern = pname;
                          rule = r.Rule.rule_name;
                          matched_root = node.Graph.id;
                          matched_op = (node.Graph.op :> string);
                          replacement_root = new_root.Graph.id;
                          replacement_op = (new_root.Graph.op :> string);
                          theta_dom =
                            symbol_strings (Pypm_term.Subst.domain theta);
                          phi_dom =
                            symbol_strings (Pypm_term.Fsubst.domain phi);
                        }
                        :: stats.provenance;
                      stats.total_rewrites <- stats.total_rewrites + 1;
                      ps.rewrites <- ps.rewrites + 1;
                      Obs.emit ~node:node.Graph.id
                        (Obs.Rule_fired
                           {
                             pattern = pname;
                             rule = r.Rule.rule_name;
                             replacement = new_root.Graph.id;
                           });
                      Some new_root))
  in
  try_rules c.entry.Program.rules

let resolve_engine engine = Option.value engine ~default:Naive

(* Match every entry at one node, in program order, each behind its
   root-head prefilter when it has one, and call [on_match] on each
   witness until it returns [Some _]. Every engine matches this way; they
   differ in which nodes they visit. *)
let match_at rc ctxs view node ~on_match =
  rc.rstats.nodes_visited <- rc.rstats.nodes_visited + 1;
  List.find_map
    (fun c ->
      match try_match rc view c node with
      | Some w -> on_match c w
      | None -> None)
    ctxs

(* ------------------------------------------------------------------ *)
(* Full-traversal engines (Naive, Index)                               *)
(* ------------------------------------------------------------------ *)

(* After each committed firing the replaced root, and every input it
   leaves without a live user, is freed by use count; the one full
   [Graph.gc] runs when the pass leaves the loop (see [run_prepared_cfg]). *)
let run_scan rc ~max_rewrites ctxs g =
  let stats = rc.rstats in
  let rec traverse () =
    stats.iterations <- stats.iterations + 1;
    Obs.emit (Obs.Iteration { n = stats.iterations });
    let view = Term_view.create g in
    let fired =
      List.find_opt
        (fun node ->
          check_deadline rc;
          Option.is_some
            (match_at rc ctxs view node ~on_match:(fun c (theta, phi) ->
                 fire rc g view c node theta phi)))
        (Graph.live_nodes g)
    in
    match fired with
    | Some node ->
        stats.collected <- stats.collected + Graph.free g node;
        if stats.total_rewrites < max_rewrites then traverse ()
    | None -> stats.reached_fixpoint <- true
  in
  traverse ()

(* ------------------------------------------------------------------ *)
(* Plan engine: the dirty-region worklist                              *)
(* ------------------------------------------------------------------ *)

(* The plan loop keeps a set of {e clean} nodes: scanned since their term
   view last changed, without firing. Every other node is dirty, new nodes
   included. Scanning visits the dirty live nodes in the live topological
   order, so the rewrite sequence is the full traversal's: a clean node
   cannot newly match, since its term view is unchanged and matching
   depends on nothing else.

   The dirty set is upward closed: every live user of a dirty node is
   dirty. It starts as every node. A node is cleaned only when the scan
   reaches it, after all its inputs, none of which fired; a firing makes
   dirty its new nodes and every transitive user of [new_root]. So clean
   nodes only read clean nodes, and a clean node's whole cone is clean.

   After a rewrite, only nodes whose term view changed can newly match:
   the nodes the rewrite created, which are dirty already, plus the
   transitive consumers of the replacement root. Walk up use edges from
   [new_root]; by upward closure the walk stops at the first dirty user.
   The rewired users of the matched root are dirty, so usually nothing
   beyond [new_root] is touched. *)
let mark_dirty_region clean (new_root : Graph.node) =
  let rec up (n : Graph.node) =
    List.iter
      (fun (u : Graph.node) ->
        if u.Graph.live && Hashtbl.mem clean u.Graph.id then (
          Hashtbl.remove clean u.Graph.id;
          up u))
      n.Graph.users
  in
  Hashtbl.remove clean new_root.Graph.id;
  up new_root

(* One frame of the scan's explicit DFS stack: a node (or, at the bottom,
   the output list) and how many of its input slots have been consumed.
   [rest] is cut from [seen]; a rewrite replaces the input list of every
   node it rewires, so a frame whose list is no longer [seen] re-cuts
   [rest] from the current list. *)
type frame = {
  fnode : Graph.node option;  (** [None]: the outputs *)
  mutable seen : Graph.node list;
  mutable rest : Graph.node list;
  mutable consumed : int;
}

let slots_of g = function None -> Graph.outputs g | Some n -> n.Graph.inputs

let new_frame g fnode =
  let slots = slots_of g fnode in
  { fnode; seen = slots; rest = slots; consumed = 0 }

let rec drop k l = if k = 0 then l else match l with [] -> [] | _ :: t -> drop (k - 1) t

(* The scan is a DFS from the outputs, inputs first, that visits a node
   after its inputs — the order of [Graph.live_nodes] — but only descends
   into dirty nodes: a clean node's cone is clean, so the dirty nodes come
   in the same order as in a full traversal.

   A firing does not restart it. When the node [f] fires, every node the
   DFS has finished is clean (or is [f]), and the graph changes only at
   [f]'s users, which are all unfinished. So a fresh DFS would retrace the
   current stack, skipping the clean finished subtrees, and arrive at the
   slot of [f]'s parent frame that now holds [new_root]: the scan resumes
   there. That needs two things, which hold for nearly every rewrite:
   [new_root] is a new node (an old one, e.g. [x] for [Mul(x, 1)], may
   have finished users that the rewrite makes dirty), and [f] is dead (a
   live [f] is dirty and finished). Otherwise the scan restarts from the
   outputs, still skipping clean nodes.

   The term view is built fresh once per iteration (one firing): [node_of]
   resolves structurally equal subgraphs to the first node the view
   registers, so a view kept across firings would change sharing. *)
let run_plan rc ~max_rewrites ctxs g =
  let stats = rc.rstats in
  let clean : (int, unit) Hashtbl.t = Hashtbl.create 512 in
  let entered : (int, unit) Hashtbl.t = Hashtbl.create 512 in
  let stack = ref [ new_frame g None ] in
  let restart () =
    Hashtbl.reset entered;
    stack := [ new_frame g None ]
  in
  let rec iteration () =
    stats.iterations <- stats.iterations + 1;
    Obs.emit (Obs.Iteration { n = stats.iterations });
    scan (Term_view.create g)
  and scan view =
    match !stack with
    | [] -> stats.reached_fixpoint <- true
    | fr :: below -> (
        let slots = slots_of g fr.fnode in
        if slots != fr.seen then (
          fr.seen <- slots;
          fr.rest <- drop fr.consumed slots);
        match fr.rest with
        | n :: rest ->
            fr.rest <- rest;
            fr.consumed <- fr.consumed + 1;
            let id = n.Graph.id in
            if not (Hashtbl.mem clean id || Hashtbl.mem entered id) then (
              Hashtbl.replace entered id ();
              stack := new_frame g (Some n) :: !stack);
            scan view
        | [] -> (
            stack := below;
            match fr.fnode with
            | None -> scan view
            | Some node -> visit view below node))
  and visit view below node =
    check_deadline rc;
    let first_new = Graph.next_id g in
    (* Cycle-test bound for [Graph.try_replace]: a clean old node cannot
       reach a live user of [node]. [node] is dirty (it is being scanned),
       so by upward closure its live users are dirty, and a clean node
       reaches only clean nodes. New nodes are not in the clean set yet,
       so they are never settled. *)
    let settled (n : Graph.node) =
      n.Graph.id < first_new && Hashtbl.mem clean n.Graph.id
    in
    match
      match_at rc ctxs view node ~on_match:(fun c (theta, phi) ->
          fire ~settled rc g view c node theta phi)
    with
    | None ->
        Hashtbl.replace clean node.Graph.id ();
        scan view
    | Some new_root ->
        stats.collected <- stats.collected + Graph.free g node;
        mark_dirty_region clean new_root;
        (match below with
        | parent :: _ when new_root.Graph.id >= first_new && not node.Graph.live
          ->
            (* resume: re-read [node]'s slot, which now holds [new_root] *)
            parent.consumed <- parent.consumed - 1;
            parent.seen <- []
        | _ -> restart ());
        if stats.total_rewrites < max_rewrites then iteration ()
  in
  iteration ()

(* ------------------------------------------------------------------ *)
(* Prepared engines                                                    *)
(* ------------------------------------------------------------------ *)

(* The reusable, run-independent part of an engine: the program and the
   requested engine. Everything per-run (breakers, stats, fault
   schedules) stays out of this record, so one [prepared] serves any
   number of sequential runs; the serve worker pool holds one per
   (program, engine). *)
type prepared = { p_program : Program.t; p_engine : engine }

let prepare_cfg ?(config = Config.default) (program : Program.t) =
  { p_program = program; p_engine = resolve_engine config.Config.engine }

let prepared_engine p = p.p_engine
let prepared_program p = p.p_program

(* ------------------------------------------------------------------ *)
(* Engine degradation ladder                                           *)
(* ------------------------------------------------------------------ *)

let next_down = function
  | Egraph -> Some Plan
  | Plan -> Some Index
  | Index -> Some Naive
  | Naive -> None

(* Settle the engine for one run, degrading Egraph → Plan → Index → Naive
   on a preparation failure (an injected fault, or an egraph run with
   nothing to saturate) with a warn event instead of dying. Fault
   schedules describe runs, not programs, so the injection point is
   consulted per run. If even Naive cannot be prepared (injection only),
   the pass has no engine: fatal. *)
let prepare_engine rc (p : prepared) =
  let prep e =
    if Inject.fires rc.rinject Inject.Plan_compile then
      Error "injected fault: engine preparation failed"
    else
      match e with
      | Egraph when (Eqsat.rules_of_program p.p_program).Eqsat.crules = [] ->
          (* The e-graph engine is the plan engine plus a saturation
             post-phase; without a single convertible rule the phase would
             be a no-op, so degrade to Plan and say why. *)
          Error "no egraph-convertible rules in the program"
      | _ -> Ok ()
  in
  let rec ladder e =
    match prep e with
    | Ok () ->
        rc.rstats.engine_used <- engine_name e;
        e
    | Error reason -> (
        match next_down e with
        | Some e' ->
            Log.warn (fun m ->
                m
                  "engine %s unavailable (%s) — degrading to %s; the pass \
                   continues with the simpler engine"
                  (engine_name e) reason (engine_name e'));
            Obs.emit
              (Obs.Engine_degraded
                 { from_ = engine_name e; to_ = engine_name e'; reason });
            ladder e'
        | None ->
            rc.rstats.fatal <-
              Some (Engine_unavailable { engine = engine_name e; reason });
            raise Aborted)
  in
  ladder p.p_engine

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

(* The per-run state both entry points start from: fresh stats stamped
   with the run's engine and configuration, the run context (a deadline
   counts from here) and one slot per program entry. *)
let start_run (config : Config.t) engine (program : Program.t) =
  let stats = fresh_stats program in
  stats.engine_used <- engine_name engine;
  stats.engine_requested <- engine_name engine;
  stats.cfg_check_types <- config.Config.check_types;
  stats.cfg_fuel <- config.Config.fuel;
  stats.cfg_max_rewrites <- config.Config.max_rewrites;
  let t_start = now () in
  let rc =
    {
      rstats = stats;
      rinject = config.Config.inject;
      ron_error = config.Config.on_error;
      rdeadline = Option.map (fun d -> t_start +. d) config.Config.deadline_s;
      rdeadline_budget = Option.value ~default:0. config.Config.deadline_s;
      rcheck_types = config.Config.check_types;
      rfuel = config.Config.fuel;
      rstart = t_start;
    }
  in
  (rc, entry_slots ~quarantine_after:config.Config.quarantine_after stats)

(* Close a run: its wall time, and the two logs in occurrence order. *)
let finalize rc =
  let stats = rc.rstats in
  stats.wall_time <- now () -. rc.rstart;
  stats.errors <- List.rev stats.errors;
  stats.provenance <- List.rev stats.provenance

let run_prepared_cfg ?(config = Config.default) (p : prepared) g =
  let program = p.p_program in
  Obs.emit
    (Obs.Pass_begin
       {
         engine = engine_name p.p_engine;
         patterns = List.length program.Program.entries;
       });
  let rc, slots = start_run config p.p_engine program in
  let stats = rc.rstats in
  (try
     let e = prepare_engine rc p in
     let ctxs = contexts ~prefilter:(e <> Naive) program slots in
     let max_rewrites = config.Config.max_rewrites in
     match e with
     | Naive | Index -> run_scan rc ~max_rewrites ctxs g
     | Plan | Egraph -> run_plan rc ~max_rewrites ctxs g
   with Aborted -> ());
  (* The loop frees by use count; one full collection when it is left,
     at a fixpoint or not, drops what use counts cannot see (garbage
     the graph came with, dead nodes a rule built beside its
     replacement). Skipped without a rewrite, where nothing changed,
     and inside a caller's transaction, which gc cannot journal. *)
  if stats.total_rewrites > 0 && not (Graph.Txn.active g) then
    stats.collected <- stats.collected + Graph.gc g;
  (* The e-graph engine's saturation post-phase: runs after the greedy
     pass (never instead of it) and commits only strict whole-graph
     cost improvements, so the result is never costlier than the Plan
     engine's on the same input. Skipped when the pass already aborted
     (deadline, fatal) or the ladder degraded below Egraph. The
     remaining wall-clock budget becomes the phase's polled anytime
     deadline: it never raises, it stops saturating. *)
  if
    stats.fatal = None
    && (not stats.deadline_hit)
    && String.equal stats.engine_used (engine_name Egraph)
  then begin
    let deadline () =
      match rc.rdeadline with Some d -> now () > d | None -> false
    in
    match Eqsat.phase ~deadline program g with
    | Error _ -> ()
    | Ok (o : Eqsat.outcome) ->
        stats.sat_iterations <- o.sat.Pypm_egraph.Saturate.iterations;
        stats.sat_unions <- o.sat.applications;
        stats.sat_skipped_rules <- o.rules_skipped;
        stats.sat_classes <- o.sat.final_classes;
        stats.sat_nodes <- o.sat.final_nodes;
        stats.sat_extracted <- o.extracted;
        stats.sat_spliced <- o.spliced;
        stats.sat_rejected <- o.splices_rejected;
        stats.sat_stop <-
          Pypm_egraph.Saturate.stop_reason_name o.sat.stop_reason;
        stats.sat_cost_before <- o.cost_before;
        stats.sat_cost_after <- o.cost_after;
        stats.total_rewrites <- stats.total_rewrites + o.spliced;
        stats.collected <- stats.collected + o.collected
  end;
  finalize rc;
  Obs.emit
    (Obs.Pass_end
       { rewrites = stats.total_rewrites; iterations = stats.iterations });
  stats

let run_cfg ?(config = Config.default) (program : Program.t) g =
  run_prepared_cfg ~config (prepare_cfg ~config program) g

let run_result_cfg ?(config = Config.default) program g =
  let stats =
    run_cfg ~config:{ config with Config.on_error = `Fail } program g
  in
  match stats.fatal with Some e -> Error (e, stats) | None -> Ok stats

let provenance stats = stats.provenance

let match_only_cfg ?(config = Config.default) (program : Program.t) g =
  let e = resolve_engine config.Config.engine in
  (* one matching sweep: no rewrites, faults, deadline or quarantine *)
  let rc, slots =
    start_run
      {
        config with
        Config.check_types = true;
        max_rewrites = 0;
        deadline_s = None;
        quarantine_after = max_int;
        inject = Inject.none;
        on_error = `Quarantine;
      }
      e program
  in
  let stats = rc.rstats in
  stats.iterations <- 1;
  let view = Term_view.create g in
  let ctxs = contexts ~prefilter:(e <> Naive) program slots in
  List.iter
    (fun node -> ignore (match_at rc ctxs view node ~on_match:(fun _ _ -> None)))
    (Graph.live_nodes g);
  stats.reached_fixpoint <- true;
  finalize rc;
  stats

let matches_of ?(fuel = 200_000) (program : Program.t) g =
  let view = Term_view.create g in
  let interp = Term_view.interp view in
  List.map
    (fun (entry : Program.entry) ->
      let hits =
        List.filter_map
          (fun node ->
            let t = Term_view.term_of view node in
            match
              Matcher.matches ~interp ~policy:Outcome.Policy.Backtrack ~fuel
                entry.Program.pattern t
            with
            | Outcome.Matched (theta, phi) ->
                Some (node.Graph.id, theta, phi)
            | _ -> None)
          (Graph.live_nodes g)
      in
      (entry.Program.pname, hits))
    program.Program.entries

let pp_stats ppf s =
  Format.fprintf ppf
    "@[<v>pass: %d iteration(s), %d nodes visited, %d rewrites, %d collected, \
     %.3f s (%s engine)%s%s@,"
    s.iterations s.nodes_visited s.total_rewrites s.collected s.wall_time
    s.engine_used
    (if s.reached_fixpoint then ""
     else if s.deadline_hit then " (deadline hit)"
     else " (max rewrites hit)")
    (if s.rolled_back > 0 || s.cycle_rejections > 0 then
       Printf.sprintf " [%d rolled back, %d cycle-rejected]" s.rolled_back
         s.cycle_rejections
     else "");
  if s.fuel_exhausted > 0 then
    Format.fprintf ppf
      "  WARNING: %d match attempt(s) ran out of fuel — these are not \
       no-matches; the pass may have missed rewrites (raise ~fuel)@,"
      s.fuel_exhausted;
  if s.sat_stop <> "" then
    Format.fprintf ppf
      "  egraph: %d round(s), %d union(s), %d/%d/%d \
       extracted/spliced/rejected, %d classes / %d nodes, stop=%s, cost \
       %.3e -> %.3e s%s@,"
      s.sat_iterations s.sat_unions s.sat_extracted s.sat_spliced
      s.sat_rejected s.sat_classes s.sat_nodes s.sat_stop s.sat_cost_before
      s.sat_cost_after
      (if s.sat_skipped_rules > 0 then
         Printf.sprintf " (%d rule(s) not convertible)" s.sat_skipped_rules
       else "");
  (match s.fatal with
  | Some e -> Format.fprintf ppf "  FATAL: %a@," pp_error e
  | None -> ());
  List.iter
    (fun e -> Format.fprintf ppf "  error: %a@," pp_error e)
    s.errors;
  List.iter
    (fun ps ->
      Format.fprintf ppf
        "  %-24s attempts %-6d skipped %-6d matches %-5d rewrites %-5d \
         %.4f s%s%s@,"
        ps.ps_name ps.attempts ps.skipped ps.matches
        ps.rewrites ps.match_time
        (if ps.fuel_exhausted > 0 then
           Printf.sprintf " fuel-exhausted %d" ps.fuel_exhausted
         else "")
        (if ps.quarantined then " QUARANTINED" else ""))
    s.per_pattern;
  Format.fprintf ppf "@]"

(* ------------------------------------------------------------------ *)
(* JSON rendering                                                      *)
(* ------------------------------------------------------------------ *)

let stats_json (s : stats) =
  let buf = Buffer.create 1024 in
  let str v = "\"" ^ Obs.json_escape v ^ "\"" in
  let fld k v = Buffer.add_string buf (Printf.sprintf "\"%s\":%s" k v) in
  let sep () = Buffer.add_char buf ',' in
  Buffer.add_char buf '{';
  fld "engine" (str s.engine_used);
  sep ();
  (* the run's configuration, so archived stats (BENCH_*.json, serve
     responses) are self-describing: what was asked for vs what ran *)
  Buffer.add_string buf
    (Printf.sprintf
       "\"config\":{\"engine_requested\":%s,\"engine_used\":%s,\"fuel\":%d,\"max_rewrites\":%d,\"check_types\":%b}"
       (str s.engine_requested) (str s.engine_used) s.cfg_fuel
       s.cfg_max_rewrites s.cfg_check_types);
  sep ();
  fld "iterations" (string_of_int s.iterations);
  sep ();
  fld "nodes_visited" (string_of_int s.nodes_visited);
  sep ();
  fld "total_rewrites" (string_of_int s.total_rewrites);
  sep ();
  fld "type_rejections" (string_of_int s.type_rejections);
  sep ();
  fld "fuel_exhausted" (string_of_int s.fuel_exhausted);
  sep ();
  fld "cycle_rejections" (string_of_int s.cycle_rejections);
  sep ();
  fld "rolled_back" (string_of_int s.rolled_back);
  sep ();
  fld "quarantined" (string_of_int s.quarantined);
  sep ();
  fld "collected" (string_of_int s.collected);
  sep ();
  fld "wall_time_s" (Printf.sprintf "%.6f" s.wall_time);
  sep ();
  fld "plan_time_s" (Printf.sprintf "%.6f" s.plan_time);
  sep ();
  fld "reached_fixpoint" (string_of_bool s.reached_fixpoint);
  sep ();
  fld "deadline_hit" (string_of_bool s.deadline_hit);
  sep ();
  fld "errors"
    ("["
    ^ String.concat "," (List.map (fun e -> str (error_message e)) s.errors)
    ^ "]");
  sep ();
  fld "fatal"
    (match s.fatal with None -> "null" | Some e -> str (error_message e));
  sep ();
  fld "rewrites_applied" (string_of_int (List.length s.provenance));
  (* The egraph object appears only when the saturation post-phase ran;
     non-egraph responses keep their pre-egraph shape (and size — the serve
     result cache charges by encoded bytes). *)
  if s.sat_stop <> "" then begin
    sep ();
    Buffer.add_string buf
      (Printf.sprintf
         "\"egraph\":{\"iterations\":%d,\"unions\":%d,\"skipped_rules\":%d,\"classes\":%d,\"nodes\":%d,\"extracted\":%d,\"spliced\":%d,\"rejected\":%d,\"stop\":%s,\"cost_before_s\":%.9f,\"cost_after_s\":%.9f}"
         s.sat_iterations s.sat_unions s.sat_skipped_rules s.sat_classes
         s.sat_nodes s.sat_extracted s.sat_spliced s.sat_rejected
         (str s.sat_stop) s.sat_cost_before s.sat_cost_after)
  end;
  sep ();
  Buffer.add_string buf "\"per_pattern\":[";
  List.iteri
    (fun i (ps : pattern_stats) ->
      if i > 0 then sep ();
      Buffer.add_string buf
        (Printf.sprintf
           "{\"name\":%s,\"attempts\":%d,\"skipped\":%d,\"plan_pruned\":%d,\"matches\":%d,\"rewrites\":%d,\"fuel_exhausted\":%d,\"guard_rejections\":%d,\"rolled_back\":%d,\"quarantined\":%b,\"match_time_s\":%.6f}"
           (str ps.ps_name) ps.attempts ps.skipped ps.plan_pruned ps.matches
           ps.rewrites ps.fuel_exhausted ps.guard_rejections ps.rolled_back
           ps.quarantined ps.match_time))
    s.per_pattern;
  Buffer.add_string buf "]}";
  Buffer.contents buf
