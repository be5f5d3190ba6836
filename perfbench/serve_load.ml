(* The [serve] workload: a fresh [pypmc serve] child with 2 workers per
   run, driven by this process over 2 closed-loop connections. Requests
   mix a repeated hot set (the cache-hit path) with graphs never sent
   before in the run (the miss path). *)

open Pypm

let workers = 2
let connections = 2

(* The request mix is an assumption: nothing in the repository records
   what share of a compiler driver's requests repeat a graph. The
   repository's own load harness ([pypmc load]) sends only transformer
   graphs and leaves the share to its [--variants] knob. 70% repeats
   was chosen so that both paths carry weight. A hit's service time is
   about a quarter of a miss's (2.1 vs 8.0 ms median on a 2-vCPU VM),
   so at this share hits take about 40% of the server's busy time and
   misses about 60%, and a change to either path moves [serve_ms] and
   [serve_rps]. The hot set holds 8 graphs per
   stratum, so every stratum is in it, and is small enough that each hot
   graph is sent dozens of times per run. *)
let hot_set = 8 * Inputs.serve_strata
let hot_share = 0.7
let fresh_batch = 256
let warm_graphs = 4
let request_timeout_s = 30.

(* ---------------------------------------------------------------- *)
(* Inputs                                                             *)

type input = {
  bytes : string;  (* Codec.Graphs.encode of the built graph *)
  fp : string;  (* Verify.fingerprint *)
  live_in : int;
  reference : Verify.reference;
}

(* Draws graphs whose fingerprints are distinct from every graph drawn
   before (hot set, warm-up, earlier fresh graphs): an isomorphic
   jitter draw would silently turn a miss into a hit. *)
type gen = {
  next : unit -> Inputs.model;
  env : Std_ops.env;
  seen : (string, unit) Hashtbl.t;
  mutable duplicates : int;  (* isomorphic draws skipped *)
}

let generator ~seed env =
  {
    next = Inputs.strata (Inputs.stream ~seed 3) Inputs.serve_strata Inputs.serve_stratum;
    env; seen = Hashtbl.create 1024; duplicates = 0;
  }

let rec draw gen =
  let m = gen.next () in
  let env = { gen.env with Std_ops.sg = Signature.copy gen.env.Std_ops.sg } in
  let g = Inputs.build env m in
  let fp = Verify.fingerprint g in
  if Hashtbl.mem gen.seen fp then begin
    gen.duplicates <- gen.duplicates + 1;
    draw gen
  end
  else begin
    Hashtbl.replace gen.seen fp ();
    {
      bytes = Codec.Graphs.encode g;
      fp;
      live_in = Graph.live_count g;
      reference = Inputs.reference m g;
    }
  end

(* ---------------------------------------------------------------- *)
(* The server child                                                   *)

type server = { pid : int; socket : string; mutable alive : bool }

let live_servers : server list ref = ref []

let stop_server s =
  if s.alive then begin
    s.alive <- false;
    (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
    let deadline = Spans.now () +. 10. in
    let rec wait () =
      match Unix.waitpid [ Unix.WNOHANG ] s.pid with
      | 0, _ when Spans.now () < deadline ->
          Unix.sleepf 0.005;
          wait ()
      | 0, _ ->
          (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] s.pid)
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
      | exception Unix.Unix_error _ -> ()
    in
    wait ();
    (try Sys.remove s.socket with Sys_error _ -> ())
  end

(* No child outlives the benchmark, whatever way it exits. *)
let () = at_exit (fun () -> List.iter stop_server !live_servers)

let spawn ~pypmc ~socket =
  (try Sys.remove socket with Sys_error _ -> ());
  let pid =
    Unix.create_process pypmc
      [| pypmc; "serve"; "--socket"; socket; "--workers"; string_of_int workers;
         "--queue-bound"; "64"; "--cache-mb"; "64" |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  let s = { pid; socket; alive = true } in
  live_servers := s :: !live_servers;
  s

(* ---------------------------------------------------------------- *)
(* Connections                                                        *)

type conn = { fd : Unix.file_descr; reader : Protocol.Reader.t; buf : Bytes.t }

let connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () -> Some { fd; reader = Protocol.Reader.create (); buf = Bytes.create 65536 }
  | exception Unix.Unix_error _ ->
      Unix.close fd;
      None

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let write_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then go (off + Unix.write_substring fd s off (n - off))
  in
  go 0

let send c payload = write_all c.fd (Protocol.frame payload)

(* Read from [c] until a whole frame is buffered; [None] on timeout or a
   broken connection. *)
let rec await_frame c ~deadline =
  match Protocol.Reader.next c.reader with
  | `Frame payload -> Some payload
  | `Error _ -> None
  | `Await -> (
      let left = deadline -. Spans.now () in
      if left <= 0. then None
      else
        match Unix.select [ c.fd ] [] [] left with
        | [], _, _ -> None
        | _ -> (
            match Unix.read c.fd c.buf 0 (Bytes.length c.buf) with
            | 0 -> None
            | n ->
                Protocol.Reader.feed c.reader (Bytes.sub_string c.buf 0 n);
                await_frame c ~deadline
            | exception Unix.Unix_error _ -> None)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> await_frame c ~deadline)

let optimize_request id graph =
  Protocol.Optimize
    { id; program = Protocol.Named Inproc.pattern_set;
      options = Protocol.default_options; graph }

(* A blocking round trip, for the health probe and warm-up. *)
let round_trip c req =
  send c (Protocol.encode_request req);
  match await_frame c ~deadline:(Spans.now () +. request_timeout_s) with
  | None -> Error "no answer"
  | Some payload -> Protocol.decode_response payload

(* ---------------------------------------------------------------- *)
(* Set-up: spawn -> health probe answered -> every worker warmed       *)

type ready = { server : server; conns : conn array; ready_s : float; warm_s : float }

let start ~pypmc ~socket ~warm =
  let t0 = Spans.now () in
  let server = spawn ~pypmc ~socket in
  let deadline = t0 +. 60. in
  let rec probe () =
    if Spans.now () > deadline then failwith "pypmc serve never answered the health probe";
    match connect socket with
    | None ->
        Unix.sleepf 0.001;
        probe ()
    | Some c -> (
        match round_trip c (Protocol.Health { id = 0 }) with
        | Ok (Protocol.Health_report { health; _ })
          when health.Protocol.workers_alive = workers ->
            c
        | _ ->
            close c;
            Unix.sleepf 0.001;
            probe ())
  in
  let first = probe () in
  let conns =
    Array.init connections (fun i ->
        if i = 0 then first
        else match connect socket with Some c -> c | None -> failwith "connect failed")
  in
  let t1 = Spans.now () in
  (* warm-up: rounds of one request per connection, so both workers
     prepare their engines on graphs outside the measured set *)
  let rec rounds id = function
    | [] -> ()
    | warm ->
        let now = List.filteri (fun i _ -> i < connections) warm in
        List.iteri
          (fun k (inp : input) ->
            send conns.(k) (Protocol.encode_request (optimize_request (id + k) inp.bytes)))
          now;
        List.iteri
          (fun k _ ->
            match await_frame conns.(k) ~deadline:(Spans.now () +. request_timeout_s) with
            | Some payload -> (
                match Protocol.decode_response payload with
                | Ok (Protocol.Result _) -> ()
                | _ -> failwith "warm-up request failed")
            | None -> failwith "warm-up request timed out")
          now;
        rounds (id + connections) (List.filteri (fun i _ -> i >= connections) warm)
  in
  rounds 2_000_000 warm;
  let t2 = Spans.now () in
  { server; conns; ready_s = t1 -. t0; warm_s = t2 -. t1 }

let shutdown r =
  Array.iter close r.conns;
  let hwm = Summary.vm_hwm_mb r.server.pid in
  stop_server r.server;
  hwm

(* ---------------------------------------------------------------- *)
(* The measured load                                                  *)

type sample = {
  rid : int;
  at_s : float;  (* completion, in load seconds since [run_load] began *)
  input : int;  (* index into the run's input table *)
  hot : bool;  (* the benchmark's class: a repeat, not the first send *)
  rt_s : float;  (* client round trip: send to decoded response *)
  service_s : float;  (* the response header's dequeue-to-answer time *)
  cached : bool;  (* the server's own flag *)
  body : string;  (* Digest of the outcome body *)
  failure : string option;
}

type load = {
  inputs : (int, input) Hashtbl.t;  (* the run's inputs, by index *)
  hot_ids : int array;
  sent : (int, unit) Hashtbl.t;  (* inputs sent at least once *)
  bodies : (string, string) Hashtbl.t;  (* body digest -> body *)
  mutable fresh : int list;  (* drawn, unsent fresh inputs *)
  mutable paused_s : float;  (* time spent drawing inputs mid-run *)
}

let add_input load inp =
  let i = Hashtbl.length load.inputs in
  Hashtbl.replace load.inputs i inp;
  i

let input load i = Hashtbl.find load.inputs i

let new_load gen =
  let load =
    { inputs = Hashtbl.create 1024; hot_ids = [||]; sent = Hashtbl.create 1024;
      bodies = Hashtbl.create 1024; fresh = []; paused_s = 0. }
  in
  { load with hot_ids = Array.init hot_set (fun _ -> add_input load (draw gen)) }

let refill gen load =
  let t = Spans.now () in
  load.fresh <- load.fresh @ List.init fresh_batch (fun _ -> add_input load (draw gen));
  load.paused_s <- load.paused_s +. (Spans.now () -. t)

(* Run closed-loop load for [budget] seconds of wall time, excluding the
   pauses in which new fresh inputs are drawn. Each connection sends its
   next request only once its previous answer has arrived. A pause
   starts only when no request is in flight, so no round trip contains
   one. *)
let run_load ~spans ~gen ~rng ~load ~first_rid ~budget r =
  let samples = ref [] in
  let rid = ref first_rid in
  let inflight = Array.make connections None in
  let start = Spans.now () in
  let paused0 = load.paused_s in
  let elapsed () = Spans.now () -. start -. (load.paused_s -. paused0) in
  let next_input () =
    if Random.State.float rng 1. < hot_share then
      load.hot_ids.(Random.State.int rng hot_set)
    else
      match load.fresh with
      | i :: rest ->
          load.fresh <- rest;
          i
      | [] -> assert false
  in
  let dispatch k =
    let input_id = next_input () in
    let hot = Hashtbl.mem load.sent input_id in
    Hashtbl.replace load.sent input_id ();
    incr rid;
    Spans.set_op spans !rid;
    let req = optimize_request !rid (input load input_id).bytes in
    let payload =
      Spans.with_span spans "protocol.encode_request" (fun () ->
          Protocol.encode_request req)
    in
    let t0 = Spans.now () in
    send r.conns.(k) payload;
    inflight.(k) <- Some (!rid, input_id, hot, t0)
  in
  let complete k payload =
    match inflight.(k) with
    | None -> ()
    | Some (rid, input, hot, t0) ->
        inflight.(k) <- None;
        Spans.set_op spans rid;
        let resp =
          Spans.with_span spans "protocol.decode_response" (fun () ->
              Protocol.decode_response payload)
        in
        let t1 = Spans.now () in
        let at_s = elapsed () in
        Spans.record spans ~name:"serve.round_trip" ~t0 ~t1;
        let failed why =
          { rid; at_s; input; hot; rt_s = t1 -. t0; service_s = 0.; cached = false;
            body = ""; failure = Some (Printf.sprintf "request %d: %s" rid why) }
        in
        let s =
          match resp with
          | Ok (Protocol.Result { id; cached; service_s; body }) when id = rid ->
              let d = Digest.string body in
              if not (Hashtbl.mem load.bodies d) then Hashtbl.replace load.bodies d body;
              { rid; at_s; input; hot; rt_s = t1 -. t0; service_s; cached; body = d;
                failure = None }
          | Ok other ->
              failed (Printf.sprintf "non-Result answer (id %d)" (Protocol.response_id other))
          | Error e -> failed ("undecodable answer: " ^ e)
        in
        samples := s :: !samples
  in
  let failure = ref None in
  let busy () = Array.exists Option.is_some inflight in
  let continue = ref true in
  while !continue && !failure = None do
    (* every send takes at most one fresh input, so holding
       [connections] of them covers a round of sends *)
    if List.length load.fresh < connections && not (busy ()) then refill gen load;
    if elapsed () < budget && List.length load.fresh >= connections then
      Array.iteri (fun k f -> if f = None then dispatch k) inflight;
    if not (busy ()) then continue := elapsed () < budget
    else
      let fds =
        List.filter_map
          (fun k -> Option.map (fun _ -> r.conns.(k).fd) inflight.(k))
          (List.init connections Fun.id)
      in
      match Unix.select fds [] [] request_timeout_s with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | [], _, _ -> failure := Some "request timed out"
      | ready, _, _ ->
          Array.iteri
            (fun k c ->
              if inflight.(k) <> None && List.mem c.fd ready then
                match Unix.read c.fd c.buf 0 (Bytes.length c.buf) with
                | 0 | (exception Unix.Unix_error _) -> failure := Some "connection lost"
                | n -> (
                    Protocol.Reader.feed c.reader (Bytes.sub_string c.buf 0 n);
                    match Protocol.Reader.next c.reader with
                    | `Frame payload -> complete k payload
                    | `Await -> ()
                    | `Error e -> failure := Some ("protocol: " ^ e)))
            r.conns
  done;
  (List.rev !samples, elapsed (), !failure)
