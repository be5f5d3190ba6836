module Txn = Pypm_graph.Graph.Txn
module Obs = Pypm_obs.Obs

(* ------------------------------------------------------------------ *)
(* Per-pattern circuit breaker                                         *)
(* ------------------------------------------------------------------ *)

module Breaker = struct
  type t = { threshold : int; mutable strikes : int; mutable tripped : bool }

  let create ~threshold =
    if threshold <= 0 then
      invalid_arg "Resilience.Breaker.create: threshold must be > 0";
    { threshold; strikes = 0; tripped = false }

  let strike b =
    if b.tripped then false
    else (
      b.strikes <- b.strikes + 1;
      if b.strikes >= b.threshold then (
        b.tripped <- true;
        true)
      else false)

  let tripped b = b.tripped
  let strikes b = b.strikes
  let threshold b = b.threshold

  let reset b =
    b.strikes <- 0;
    b.tripped <- false
end

(* ------------------------------------------------------------------ *)
(* Deterministic fault injection                                       *)
(* ------------------------------------------------------------------ *)

module Inject = struct
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

  exception Injected_crash of string

  let all_points =
    [
      Instantiate_fail;
      Guard_raise;
      Fuel_cut;
      Replace_cycle;
      Plan_compile;
      Worker_crash;
    ]

  let wire_points = [ Wire_partial; Wire_corrupt; Wire_stall; Wire_disconnect ]

  let point_name = function
    | Instantiate_fail -> "instantiate-fail"
    | Guard_raise -> "guard-raise"
    | Fuel_cut -> "fuel-cut"
    | Replace_cycle -> "replace-cycle"
    | Plan_compile -> "plan-compile"
    | Worker_crash -> "worker-crash"
    | Serve_stall -> "serve-stall"
    | Wire_partial -> "wire-partial"
    | Wire_corrupt -> "wire-corrupt"
    | Wire_stall -> "wire-stall"
    | Wire_disconnect -> "wire-disconnect"

  let point_of_name = function
    | "instantiate-fail" -> Some Instantiate_fail
    | "guard-raise" -> Some Guard_raise
    | "fuel-cut" -> Some Fuel_cut
    | "replace-cycle" -> Some Replace_cycle
    | "plan-compile" -> Some Plan_compile
    | "worker-crash" -> Some Worker_crash
    | "serve-stall" -> Some Serve_stall
    | "wire-partial" -> Some Wire_partial
    | "wire-corrupt" -> Some Wire_corrupt
    | "wire-stall" -> Some Wire_stall
    | "wire-disconnect" -> Some Wire_disconnect
    | _ -> None

  (* SplitMix64 step, same constants as the fuzzer's Srng: the schedule is
     a deterministic function of (seed, query sequence) alone, so any
     fault pattern replays exactly from its seed. Duplicated here (rather
     than depending on pypm_fuzz) because the fuzzer depends on the engine,
     which depends on this library. *)
  let mix64 z =
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
        0xbf58476d1ce4e5b9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
        0x94d049bb133111ebL in
    Int64.logxor z (Int64.shift_right_logical z 31)
  [@@ocamlformat "disable"]

  let golden_gamma = 0x9e3779b97f4a7c15L

  type schedule = {
    mutable state : int64;
    rate : float;  (** probability each armed query fires, in [0, 1] *)
    points : point list;  (** armed points; queries on others never fire *)
    max_fires : int option;  (** stop firing after this many, if set *)
    mutable fired : int;
    mutable queried : int;
  }

  let none =
    {
      state = 0L;
      rate = 0.;
      points = [];
      max_fires = Some 0;
      fired = 0;
      queried = 0;
    }

  let seeded ?(points = all_points) ?max_fires ~seed ~rate () =
    if rate < 0. || rate > 1. then
      invalid_arg "Resilience.Inject.seeded: rate must be in [0, 1]";
    {
      state = Int64.of_int seed;
      rate;
      points;
      max_fires;
      fired = 0;
      queried = 0;
    }

  (* Uniform float in [0, 1) from the top 53 bits of the next output. *)
  let next_unit s =
    s.state <- Int64.add s.state golden_gamma;
    let bits = Int64.shift_right_logical (mix64 s.state) 11 in
    Int64.to_float bits *. (1. /. 9007199254740992.)

  let fires s point =
    if s.rate = 0. || not (List.mem point s.points) then false
    else begin
      s.queried <- s.queried + 1;
      let budget_left =
        match s.max_fires with None -> true | Some m -> s.fired < m
      in
      let fire = budget_left && next_unit s < s.rate in
      if fire then (
        s.fired <- s.fired + 1;
        Obs.emit (Obs.Fault_injected { point = point_name point }));
      fire
    end

  let fired s = s.fired
  let queried s = s.queried

  (* The next uniform draw from the schedule's stream, independent of any
     point's arming. The chaos harness uses it to pick fault positions
     (which byte to corrupt, where to tear a frame) and the load client to
     jitter its backoff — all deterministic replays of the seed. *)
  let roll s = next_unit s
end
