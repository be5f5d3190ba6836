(* Tests for the serving layer: the content-addressed LRU result cache
   (accounting, eviction, replacement, a concurrent stress run), the wire
   protocol (envelope round-trips, the incremental frame reader under
   arbitrary splits, decode totality), and the in-process server
   end-to-end — cold/warm byte identity, cache-driven Stats, structured
   errors for bad requests and injected faults, and admission-control
   shedding under a tiny queue bound. *)

open Pypm

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)
let f32 shape = Ty.make Dtype.F32 shape

(* ------------------------------------------------------------------ *)
(* Cache                                                               *)
(* ------------------------------------------------------------------ *)

let test_cache_hit_miss () =
  let c = Cache.create ~max_bytes:4096 in
  checkb "cold miss" true (Cache.find c "k1" = None);
  Cache.add c "k1" "v1";
  (match Cache.find c "k1" with
  | Some v -> checks "hit returns the stored value" "v1" v
  | None -> Alcotest.fail "expected a hit");
  let s = Cache.stats c in
  checki "one hit" 1 s.Cache.hits;
  checki "one miss" 1 s.Cache.misses;
  checki "one entry" 1 s.Cache.entries;
  checkb "bytes charged" true (s.Cache.bytes > 0)

let test_cache_eviction_lru () =
  (* three entries of ~equal charge, room for two: adding the third must
     evict the least-recently-used, and a find refreshes recency *)
  let v = String.make 100 'x' in
  let charge = String.length "kN" + String.length v + 64 in
  let c = Cache.create ~max_bytes:(2 * charge) in
  Cache.add c "k1" v;
  Cache.add c "k2" v;
  ignore (Cache.find c "k1");
  (* k1 is now MRU *)
  Cache.add c "k3" v;
  (* k2 was LRU *)
  checkb "refreshed entry survives" true (Cache.find c "k1" <> None);
  checkb "LRU entry evicted" true (Cache.find c "k2" = None);
  checkb "new entry present" true (Cache.find c "k3" <> None);
  let s = Cache.stats c in
  checki "one eviction" 1 s.Cache.evictions;
  checkb "byte bound respected" true (s.Cache.bytes <= s.Cache.max_bytes)

let test_cache_replace_releases_charge () =
  let c = Cache.create ~max_bytes:4096 in
  Cache.add c "k" (String.make 1000 'a');
  let b1 = (Cache.stats c).Cache.bytes in
  Cache.add c "k" "tiny";
  let s = Cache.stats c in
  checki "still one entry" 1 s.Cache.entries;
  checkb "old charge released" true (s.Cache.bytes < b1);
  (match Cache.find c "k" with
  | Some v -> checks "replacement wins" "tiny" v
  | None -> Alcotest.fail "expected a hit")

let test_cache_oversized_skipped () =
  let c = Cache.create ~max_bytes:128 in
  Cache.add c "k" (String.make 4096 'a');
  checkb "oversized value not admitted" true (Cache.find c "k" = None);
  checki "nothing stored" 0 (Cache.stats c).Cache.entries

(* The concurrency invariant: a value read for a key is always exactly
   the value some writer stored for that key — never torn, never
   cross-wired — and the byte bound holds at the end. Values are derived
   from their key so any mixup is detectable. *)
let test_cache_concurrent_stress () =
  let value_of k = k ^ ":" ^ String.make (100 + (Hashtbl.hash k mod 400)) 'v' in
  let c = Cache.create ~max_bytes:8192 in
  let torn = Atomic.make 0 in
  let worker wid =
    Domain.spawn (fun () ->
        for i = 0 to 999 do
          let k = Printf.sprintf "key-%d" ((i + (wid * 7)) mod 40) in
          if i mod 3 = 0 then Cache.add c k (value_of k)
          else
            match Cache.find c k with
            | Some v when not (String.equal v (value_of k)) ->
                Atomic.incr torn
            | Some _ | None -> ()
        done)
  in
  List.iter Domain.join (List.init 4 worker);
  checki "no torn or cross-wired entries" 0 (Atomic.get torn);
  let s = Cache.stats c in
  checkb "byte bound holds after the stress" true
    (s.Cache.bytes <= s.Cache.max_bytes);
  checkb "cache saw traffic" true (s.Cache.hits + s.Cache.misses > 0)

(* ------------------------------------------------------------------ *)
(* Protocol                                                            *)
(* ------------------------------------------------------------------ *)

let sample_options =
  {
    Protocol.default_options with
    Protocol.engine = "index";
    fuel = 1234;
    deadline_s = Some 0.5;
    strict = true;
    fault_seed = 42;
    fault_rate = 0.25;
    fault_points = [ "guard-raise"; "fuel-cut" ];
  }

let test_protocol_request_roundtrip () =
  List.iter
    (fun req ->
      match Protocol.decode_request (Protocol.encode_request req) with
      | Ok req2 -> checkb "request round-trips" true (req = req2)
      | Error m -> Alcotest.fail ("decode_request: " ^ m))
    [
      Protocol.Optimize
        {
          id = 7;
          program = Protocol.Named "both";
          options = sample_options;
          graph = "\x00\xffgraph bytes";
        };
      Protocol.Optimize
        {
          id = 8;
          program = Protocol.Inline "binary\x01bytes";
          options = Protocol.default_options;
          graph = "";
        };
      Protocol.Stats { id = 9 };
      Protocol.Health { id = 10 };
    ]

let test_protocol_response_roundtrip () =
  List.iter
    (fun resp ->
      match Protocol.decode_response (Protocol.encode_response resp) with
      | Ok resp2 -> checkb "response round-trips" true (resp = resp2)
      | Error m -> Alcotest.fail ("decode_response: " ^ m))
    [
      Protocol.Result
        { id = 1; cached = true; service_s = 0.125; body = "outcome\x00bytes" };
      Protocol.Stats_report
        {
          id = 2;
          stats =
            {
              Protocol.served = 10; shed = 1; errors = 2; cache_hits = 5;
              cache_misses = 5; cache_evictions = 1; cache_entries = 4;
              cache_bytes = 4096; workers = 4; uptime_s = 1.5;
            };
        };
      Protocol.Overloaded { id = 3 };
      Protocol.Bad_request { id = 4; reason = "no such engine" };
      Protocol.Server_error { id = 5; reason = "boom" };
      Protocol.Deadline_exceeded { id = 6; elapsed_s = 2.5 };
      Protocol.Draining { id = 7 };
      Protocol.Worker_crashed { id = 8; reason = "Injected_crash" };
      Protocol.Health_report
        {
          id = 9;
          health =
            {
              Protocol.status = "draining"; uptime_s = 12.5; workers_alive = 3;
              workers_total = 4; restarts = 2; poisoned = 1; inflight = 5;
            };
        };
    ]
  [@@ocamlformat "disable"]

let test_protocol_outcome_roundtrip () =
  let outcome =
    {
      Protocol.graph = "encoded graph";
      stats_json = "{\"engine\":\"plan\"}";
      errors =
        [
          Pass.Rule_failed
            { pattern = "p"; rule = "r"; reason = "instantiate failed" };
          Pass.Guard_raised { pattern = "q"; rule = "s"; reason = "Div0" };
        ];
      fatal =
        Some (Pass.Engine_unavailable { engine = "plan"; reason = "poisoned" });
    }
  in
  match Protocol.decode_outcome (Protocol.encode_outcome outcome) with
  | Ok o2 -> checkb "outcome round-trips" true (outcome = o2)
  | Error m -> Alcotest.fail ("decode_outcome: " ^ m)

let test_protocol_decode_total () =
  let bytes =
    Protocol.encode_request
      (Protocol.Optimize
         {
           id = 1;
           program = Protocol.Named "both";
           options = Protocol.default_options;
           graph = "gg";
         })
  in
  let n = String.length bytes in
  for k = 0 to n - 1 do
    match Protocol.decode_request (String.sub bytes 0 k) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "truncation to %d bytes decoded successfully" k
  done;
  for i = 0 to n - 1 do
    let b = Bytes.of_string bytes in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x20));
    match Protocol.decode_request (Bytes.to_string b) with
    | Ok _ | Error _ -> ()
    (* totality is the assertion: no exception escapes *)
  done

(* Protocol v4 dropped [options.domains]. A v3 peer's request must get
   the structured version error, not a misparsed option block. The
   header is the magic then a one-byte varint version. *)
let test_protocol_rejects_v3 () =
  let bytes =
    Protocol.encode_request
      (Protocol.Optimize
         {
           id = 1;
           program = Protocol.Named "both";
           options = Protocol.default_options;
           graph = "gg";
         })
  in
  let v3 = Bytes.of_string bytes in
  Bytes.set v3 4 (Char.chr 3);
  match Protocol.decode_request (Bytes.to_string v3) with
  | Ok _ -> Alcotest.fail "a v3 request decoded"
  | Error m ->
      let needle = "unsupported protocol version 3" in
      let rec has i =
        i + String.length needle <= String.length m
        && (String.sub m i (String.length needle) = needle || has (i + 1))
      in
      if not (has 0) then Alcotest.failf "unexpected error: %s" m

(* Feed two frames split at every possible boundary: the reader must
   produce exactly the same two payloads regardless of the split. *)
let test_reader_any_split () =
  let p1 = "first frame payload" and p2 = String.make 300 'z' in
  let stream = Protocol.frame p1 ^ Protocol.frame p2 in
  let n = String.length stream in
  for cut = 0 to n do
    let r = Protocol.Reader.create () in
    Protocol.Reader.feed r (String.sub stream 0 cut);
    Protocol.Reader.feed r (String.sub stream cut (n - cut));
    let got = ref [] in
    let rec drain () =
      match Protocol.Reader.next r with
      | `Frame f ->
          got := f :: !got;
          drain ()
      | `Await -> ()
      | `Error m -> Alcotest.failf "reader error at cut %d: %s" cut m
    in
    drain ();
    match List.rev !got with
    | [ a; b ] ->
        checkb "first payload intact" true (String.equal a p1);
        checkb "second payload intact" true (String.equal b p2)
    | l -> Alcotest.failf "cut %d: %d frame(s), expected 2" cut (List.length l)
  done

let test_reader_oversize_sticky () =
  let r = Protocol.Reader.create ~max_frame:64 () in
  Protocol.Reader.feed r (Protocol.frame (String.make 100 'a'));
  (match Protocol.Reader.next r with
  | `Error _ -> ()
  | `Frame _ | `Await -> Alcotest.fail "oversize frame not rejected");
  Protocol.Reader.feed r (Protocol.frame "small");
  match Protocol.Reader.next r with
  | `Error _ -> ()
  | `Frame _ | `Await -> Alcotest.fail "reader error is not sticky"

(* Regression: a 9-byte length varint whose last byte lands bits in the
   sign position (8 continuation bytes then 0x40: 0x40 lsl 56 wraps to
   min_int) made the accumulated "length" negative, which sailed under
   the [> max_frame] check and reached [Buffer.sub] as an
   [Invalid_argument] escaping into the accept loop. It must be a
   structured sticky error instead — before any allocation. *)
let test_reader_varint_overflow_rejected () =
  let r = Protocol.Reader.create () in
  Protocol.Reader.feed r (String.make 8 '\x80' ^ "\x40");
  (match Protocol.Reader.next r with
  | `Error _ -> ()
  | `Frame _ -> Alcotest.fail "negative frame length produced a frame"
  | `Await -> Alcotest.fail "negative frame length left the reader awaiting");
  (* a merely-huge positive length is rejected just the same *)
  let r2 = Protocol.Reader.create () in
  Protocol.Reader.feed r2 "\xff\xff\xff\xff\x7f";
  (match Protocol.Reader.next r2 with
  | `Error _ -> ()
  | `Frame _ | `Await -> Alcotest.fail "absurd frame length not rejected");
  (* and a varint that never terminates dies at the shift bound *)
  let r3 = Protocol.Reader.create () in
  Protocol.Reader.feed r3 (String.make 12 '\xff');
  match Protocol.Reader.next r3 with
  | `Error _ -> ()
  | `Frame _ | `Await -> Alcotest.fail "over-long varint not rejected"

(* ------------------------------------------------------------------ *)
(* In-process server                                                   *)
(* ------------------------------------------------------------------ *)

let test_socket name = Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "pypm-test-%s-%d.sock" name (Unix.getpid ()))

let test_config ?(workers = 2) ?(queue_bound = 64) ?(cache_bytes = 1 lsl 20)
    ?(job_deadline_s = Some 300.) ?(drain_timeout_s = 5.)
    ?(restart_budget = 10_000) socket_path =
  {
    Server.socket_path;
    workers;
    queue_bound;
    cache_bytes;
    max_frame_bytes = 1 lsl 20;
    job_deadline_s;
    drain_timeout_s;
    restart_budget;
  }

(* Run [f socket_path] against a live server; shuts the server down and
   joins its domain afterwards even if [f] fails, and asserts the run
   itself ended [Ok]. *)
let with_server_path ?workers ?queue_bound ?cache_bytes ?job_deadline_s
    ?drain_timeout_s ?restart_budget name f =
  let socket_path = test_socket name in
  let stopping = Atomic.make false in
  let ready = Atomic.make false in
  let srv =
    Domain.spawn (fun () ->
        Server.run
          ~on_ready:(fun () -> Atomic.set ready true)
          ~stop:(fun () -> Atomic.get stopping)
          (test_config ?workers ?queue_bound ?cache_bytes ?job_deadline_s
             ?drain_timeout_s ?restart_budget socket_path))
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stopping true;
      match Domain.join srv with
      | Ok () -> ()
      | Error msg -> Alcotest.fail ("server exited with: " ^ msg))
  @@ fun () ->
  let deadline = Unix.gettimeofday () +. 10. in
  while (not (Atomic.get ready)) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.005
  done;
  checkb "server came up" true (Atomic.get ready);
  f socket_path

(* Same, handing [f] one connected client fd. *)
let with_server ?workers ?queue_bound ?cache_bytes ?job_deadline_s
    ?drain_timeout_s ?restart_budget name f =
  with_server_path ?workers ?queue_bound ?cache_bytes ?job_deadline_s
    ?drain_timeout_s ?restart_budget name
  @@ fun socket_path ->
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.connect fd (Unix.ADDR_UNIX socket_path);
  f fd

let write_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then go (off + Unix.write_substring fd s off (n - off))
  in
  go 0

let read_response reader fd =
  let buf = Bytes.create 65536 in
  let rec go () =
    match Protocol.Reader.next reader with
    | `Frame payload -> (
        match Protocol.decode_response payload with
        | Ok r -> r
        | Error m -> Alcotest.fail ("response decode: " ^ m))
    | `Error m -> Alcotest.fail ("reader: " ^ m)
    | `Await -> (
        match Unix.read fd buf 0 (Bytes.length buf) with
        | 0 -> Alcotest.fail "server closed the connection"
        | n ->
            Protocol.Reader.feed reader (Bytes.sub_string buf 0 n);
            go ())
  in
  go ()

let roundtrip reader fd req =
  write_all fd (Protocol.frame (Protocol.encode_request req));
  read_response reader fd

(* A graph the epilog patterns rewrite, so outcomes are non-trivial. *)
let encoded_test_graph ?(name = "x") () =
  let env = Std_ops.make () in
  let g = Graph.create ~sg:env.Std_ops.sg ~infer:env.Std_ops.infer () in
  let x = Graph.input g ~name (f32 [ 8; 8 ]) in
  let y = Graph.input g ~name:(name ^ "b") (f32 [ 8; 8 ]) in
  let r = Graph.add g Std_ops.relu [ Graph.add g Std_ops.add [ x; y ] ] in
  Graph.set_outputs g [ r ];
  Codec.Graphs.encode g

let optimize ?(id = 0) ?(options = Protocol.default_options) graph =
  Protocol.Optimize { id; program = Protocol.Named "both"; options; graph }

let test_server_cold_warm_identical () =
  with_server "warm" @@ fun fd ->
  let reader = Protocol.Reader.create () in
  let graph = encoded_test_graph () in
  let cold =
    match roundtrip reader fd (optimize ~id:1 graph) with
    | Protocol.Result { cached; body; _ } ->
        checkb "first answer is cold" false cached;
        body
    | r -> Alcotest.failf "unexpected response %d" (Protocol.response_id r)
  in
  (match Protocol.decode_outcome cold with
  | Ok o ->
      checkb "outcome carries a graph" true (String.length o.Protocol.graph > 0);
      checkb "outcome carries stats JSON" true
        (String.length o.Protocol.stats_json > 0)
  | Error m -> Alcotest.fail ("cold outcome decode: " ^ m));
  (* same fingerprint from a different client encoding: fresh symbols
     differ but the cache key must not *)
  let graph2 = encoded_test_graph () in
  (match roundtrip reader fd (optimize ~id:2 graph2) with
  | Protocol.Result { cached; body; _ } ->
      checkb "second answer is warm" true cached;
      checkb "warm body byte-identical to cold" true (String.equal body cold)
  | r -> Alcotest.failf "unexpected response %d" (Protocol.response_id r));
  match roundtrip reader fd (Protocol.Stats { id = 3 }) with
  | Protocol.Stats_report { stats; _ } ->
      checki "one cache hit" 1 stats.Protocol.cache_hits;
      checki "one cache miss" 1 stats.Protocol.cache_misses;
      checki "two served" 2 stats.Protocol.served
  | r -> Alcotest.failf "unexpected response %d" (Protocol.response_id r)

let test_server_bad_requests_survive () =
  with_server "bad" @@ fun fd ->
  let reader = Protocol.Reader.create () in
  (* a syntactically valid frame whose payload is not a request *)
  write_all fd (Protocol.frame "not a request at all");
  (match read_response reader fd with
  | Protocol.Bad_request _ -> ()
  | r -> Alcotest.failf "unexpected response %d" (Protocol.response_id r));
  (* unknown engine: structured rejection, not a dropped connection *)
  let opts = { Protocol.default_options with Protocol.engine = "quantum" } in
  (match roundtrip reader fd (optimize ~id:5 ~options:opts (encoded_test_graph ())) with
  | Protocol.Bad_request { id; reason } ->
      checki "rejection echoes the id" 5 id;
      checkb "reason names the engine" true
        (String.length reason > 0)
  | r -> Alcotest.failf "unexpected response %d" (Protocol.response_id r));
  (* undecodable graph bytes *)
  (match roundtrip reader fd (optimize ~id:6 "garbage graph") with
  | Protocol.Bad_request { id; _ } -> checki "rejection echoes the id" 6 id
  | r -> Alcotest.failf "unexpected response %d" (Protocol.response_id r));
  (* the same connection still serves good requests *)
  match roundtrip reader fd (optimize ~id:7 (encoded_test_graph ())) with
  | Protocol.Result { id; _ } -> checki "request after rejects answered" 7 id
  | r -> Alcotest.failf "unexpected response %d" (Protocol.response_id r)

let test_server_fault_injection_contained () =
  with_server "faults" @@ fun fd ->
  let reader = Protocol.Reader.create () in
  (* every instantiation fails: the pass runs, rewrites roll back, and
     the response is a structured Result, not a dropped connection *)
  let opts =
    {
      Protocol.default_options with
      Protocol.fault_seed = 11;
      fault_rate = 1.0;
      fault_points = [ "instantiate-fail" ];
    }
  in
  (match roundtrip reader fd (optimize ~id:1 ~options:opts (encoded_test_graph ())) with
  | Protocol.Result { cached; body; _ } -> (
      checkb "fault run is cold" false cached;
      match Protocol.decode_outcome body with
      | Ok o -> checkb "no fatal under quarantine policy" true (o.Protocol.fatal = None)
      | Error m -> Alcotest.fail ("outcome decode: " ^ m))
  | r -> Alcotest.failf "unexpected response %d" (Protocol.response_id r));
  (* unknown fault point: rejected, connection lives *)
  let bad =
    { opts with Protocol.fault_points = [ "meteor-strike" ] }
  in
  (match roundtrip reader fd (optimize ~id:2 ~options:bad (encoded_test_graph ())) with
  | Protocol.Bad_request { id; _ } -> checki "rejection echoes the id" 2 id
  | r -> Alcotest.failf "unexpected response %d" (Protocol.response_id r));
  (* and a clean request on the same connection still succeeds *)
  match roundtrip reader fd (optimize ~id:3 (encoded_test_graph ())) with
  | Protocol.Result { id; _ } -> checki "clean request answered" 3 id
  | r -> Alcotest.failf "unexpected response %d" (Protocol.response_id r)

let test_server_sheds_past_queue_bound () =
  with_server ~workers:1 ~queue_bound:1 "shed" @@ fun fd ->
  let reader = Protocol.Reader.create () in
  let graph = encoded_test_graph () in
  let n = 32 in
  let burst = Buffer.create 4096 in
  for i = 0 to n - 1 do
    (* distinct leaf names -> distinct fingerprints -> no warm shortcut *)
    let g = if i = 0 then graph else encoded_test_graph ~name:(Printf.sprintf "x%d" i) () in
    Buffer.add_string burst
      (Protocol.frame (Protocol.encode_request (optimize ~id:i g)))
  done;
  write_all fd (Buffer.contents burst);
  let results = ref 0 and sheds = ref 0 in
  for _ = 1 to n do
    match read_response reader fd with
    | Protocol.Result _ -> incr results
    | Protocol.Overloaded _ -> incr sheds
    | r -> Alcotest.failf "unexpected response %d" (Protocol.response_id r)
  done;
  checki "every request answered" n (!results + !sheds);
  checkb "some requests served" true (!results > 0);
  checkb "admission control shed past the bound" true (!sheds > 0);
  (* the connection remains usable after shedding *)
  match roundtrip reader fd (optimize ~id:999 graph) with
  | Protocol.Result _ | Protocol.Overloaded _ -> ()
  | r -> Alcotest.failf "unexpected response %d" (Protocol.response_id r)

let test_server_cache_eviction_bound () =
  (* a cache too small for two outcomes: the second insert evicts the
     first; both still answer, and Stats shows the eviction *)
  with_server ~cache_bytes:2048 "evict" @@ fun fd ->
  let reader = Protocol.Reader.create () in
  let ask id name =
    match roundtrip reader fd (optimize ~id (encoded_test_graph ~name ())) with
    | Protocol.Result _ -> ()
    | r -> Alcotest.failf "unexpected response %d" (Protocol.response_id r)
  in
  for i = 0 to 7 do
    ask i (Printf.sprintf "leaf%d" i)
  done;
  match roundtrip reader fd (Protocol.Stats { id = 100 }) with
  | Protocol.Stats_report { stats; _ } ->
      checkb "evictions happened" true (stats.Protocol.cache_evictions > 0);
      checkb "cache stayed within its bound" true
        (stats.Protocol.cache_bytes <= 2048)
  | r -> Alcotest.failf "unexpected response %d" (Protocol.response_id r)

(* ------------------------------------------------------------------ *)
(* Supervision, watchdog, drain, health                                *)
(* ------------------------------------------------------------------ *)

let test_server_health_probe () =
  with_server "health" @@ fun fd ->
  let reader = Protocol.Reader.create () in
  match roundtrip reader fd (Protocol.Health { id = 42 }) with
  | Protocol.Health_report { id; health } ->
      checki "echoes the id" 42 id;
      checks "status ok" "ok" health.Protocol.status;
      checki "all workers alive" 2 health.Protocol.workers_alive;
      checki "worker total" 2 health.Protocol.workers_total;
      checki "no restarts yet" 0 health.Protocol.restarts;
      checki "nothing poisoned" 0 health.Protocol.poisoned;
      checki "nothing in flight" 0 health.Protocol.inflight;
      checkb "uptime sane" true (health.Protocol.uptime_s >= 0.)
  | r -> Alcotest.failf "unexpected response %d" (Protocol.response_id r)

(* The supervision tentpole end-to-end: a poison-pill request crashes a
   worker, is retried, crashes the replacement's sibling, and comes back
   as a structured [Worker_crashed] — while the supervisor restarts the
   dead workers and the very same connection keeps serving. *)
let test_server_worker_crash_restart () =
  with_server "crash" @@ fun fd ->
  let reader = Protocol.Reader.create () in
  let opts =
    {
      Protocol.default_options with
      Protocol.fault_seed = 3;
      fault_rate = 1.0;
      fault_points = [ "worker-crash" ];
    }
  in
  (match
     roundtrip reader fd (optimize ~id:1 ~options:opts (encoded_test_graph ()))
   with
  | Protocol.Worker_crashed { id; reason } ->
      checki "poison pill echoes the id" 1 id;
      checkb "reason is populated" true (String.length reason > 0)
  | r -> Alcotest.failf "unexpected response %d" (Protocol.response_id r));
  (* same connection, clean request: supervision must have restarted the
     crashed workers *)
  (match roundtrip reader fd (optimize ~id:2 (encoded_test_graph ())) with
  | Protocol.Result { id; _ } -> checki "post-crash request served" 2 id
  | r -> Alcotest.failf "unexpected response %d" (Protocol.response_id r));
  match roundtrip reader fd (Protocol.Health { id = 3 }) with
  | Protocol.Health_report { health; _ } ->
      checkb "restarts recorded" true (health.Protocol.restarts >= 1);
      checki "one poisoned job" 1 health.Protocol.poisoned;
      checki "workers recovered" 2 health.Protocol.workers_alive
  | r -> Alcotest.failf "unexpected response %d" (Protocol.response_id r)

(* Restart budget exhausted: the lone worker dies, cannot come back, the
   stranded job is failed closed and later submissions shed. *)
let test_server_restart_budget_exhausted () =
  with_server ~workers:1 ~restart_budget:0 "budget" @@ fun fd ->
  let reader = Protocol.Reader.create () in
  let opts =
    {
      Protocol.default_options with
      Protocol.fault_seed = 5;
      fault_rate = 1.0;
      fault_points = [ "worker-crash" ];
    }
  in
  (match
     roundtrip reader fd (optimize ~id:1 ~options:opts (encoded_test_graph ()))
   with
  | Protocol.Worker_crashed { id; _ } -> checki "job failed closed" 1 id
  | r -> Alcotest.failf "unexpected response %d" (Protocol.response_id r));
  (* no worker left, no budget: admission refuses rather than accepting
     work that can never run *)
  (match roundtrip reader fd (optimize ~id:2 (encoded_test_graph ())) with
  | Protocol.Overloaded { id } -> checki "submission shed" 2 id
  | r -> Alcotest.failf "unexpected response %d" (Protocol.response_id r));
  match roundtrip reader fd (Protocol.Health { id = 3 }) with
  | Protocol.Health_report { health; _ } ->
      checki "no workers alive" 0 health.Protocol.workers_alive;
      checki "no restarts granted" 0 health.Protocol.restarts
  | r -> Alcotest.failf "unexpected response %d" (Protocol.response_id r)

(* The deadline watchdog: a stalled job is reaped with
   [Deadline_exceeded] near the configured budget, not after the stall
   ends — and the worker's late completion is discarded, not re-sent. *)
let test_server_deadline_watchdog () =
  with_server ~job_deadline_s:(Some 0.2) "watchdog" @@ fun fd ->
  let reader = Protocol.Reader.create () in
  let opts =
    {
      Protocol.default_options with
      Protocol.fault_seed = 7;
      fault_rate = 1.0;
      fault_points = [ "serve-stall" ];
    }
  in
  let t0 = Unix.gettimeofday () in
  (match
     roundtrip reader fd (optimize ~id:1 ~options:opts (encoded_test_graph ()))
   with
  | Protocol.Deadline_exceeded { id; elapsed_s } ->
      checki "reap echoes the id" 1 id;
      checkb "elapsed reflects the deadline" true (elapsed_s >= 0.2);
      (* the stall is 0.75 s; the reap must not have waited it out *)
      checkb "reaped before the stall ended" true
        (Unix.gettimeofday () -. t0 < 0.7)
  | r -> Alcotest.failf "unexpected response %d" (Protocol.response_id r));
  (* the stalled worker eventually finishes its discarded job and the
     connection serves on *)
  match roundtrip reader fd (optimize ~id:2 (encoded_test_graph ())) with
  | Protocol.Result { id; _ } -> checki "post-reap request served" 2 id
  | r -> Alcotest.failf "unexpected response %d" (Protocol.response_id r)

(* Graceful drain: with a job in flight, the drain hook flips; new work
   is answered [Draining], health reports draining, the in-flight job
   still completes, and the server exits on its own — no stop signal. *)
let test_server_graceful_drain () =
  let socket_path = test_socket "drain" in
  let ready = Atomic.make false in
  let drain = Atomic.make false in
  let srv =
    Domain.spawn (fun () ->
        Server.run
          ~on_ready:(fun () -> Atomic.set ready true)
          ~drain:(fun () -> Atomic.get drain)
          (test_config ~drain_timeout_s:5. socket_path))
  in
  let deadline = Unix.gettimeofday () +. 10. in
  while (not (Atomic.get ready)) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.005
  done;
  checkb "server came up" true (Atomic.get ready);
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.connect fd (Unix.ADDR_UNIX socket_path);
  let reader = Protocol.Reader.create () in
  (* hold the server open across the drain with a stalled in-flight job *)
  let stall =
    {
      Protocol.default_options with
      Protocol.fault_seed = 9;
      fault_rate = 1.0;
      fault_points = [ "serve-stall" ];
    }
  in
  write_all fd
    (Protocol.frame
       (Protocol.encode_request
          (optimize ~id:1 ~options:stall (encoded_test_graph ()))));
  Unix.sleepf 0.15;
  (* a worker holds job 1 now *)
  Atomic.set drain true;
  Unix.sleepf 0.3;
  (* the loop has noticed: new optimize work is refused... *)
  write_all fd
    (Protocol.frame
       (Protocol.encode_request (optimize ~id:2 (encoded_test_graph ()))));
  (* ...while health is still answered *)
  write_all fd
    (Protocol.frame (Protocol.encode_request (Protocol.Health { id = 3 })));
  let seen_draining = ref false
  and seen_health = ref false
  and seen_result = ref false in
  for _ = 1 to 3 do
    match read_response reader fd with
    | Protocol.Draining { id } ->
        checki "draining echoes the id" 2 id;
        seen_draining := true
    | Protocol.Health_report { id; health } ->
        checki "health echoes the id" 3 id;
        checks "status draining" "draining" health.Protocol.status;
        seen_health := true
    | Protocol.Result { id; _ } ->
        checki "the in-flight job still completed" 1 id;
        seen_result := true
    | r -> Alcotest.failf "unexpected response %d" (Protocol.response_id r)
  done;
  checkb "optimize during drain answered Draining" true !seen_draining;
  checkb "health during drain answered" true !seen_health;
  checkb "in-flight job served during drain" true !seen_result;
  (* the server exits by itself once in-flight work is gone *)
  match Domain.join srv with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("drain exit: " ^ msg)

(* ------------------------------------------------------------------ *)
(* Startup probe                                                       *)
(* ------------------------------------------------------------------ *)

let test_server_stale_socket_reclaimed () =
  let socket_path = test_socket "stale" in
  (* leave a stale socket file behind, as a crashed server would: bound,
     never unlinked, nobody listening *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX socket_path);
  Unix.close fd;
  checkb "stale socket file exists" true (Sys.file_exists socket_path);
  (* the server must reclaim it and come up *)
  with_server "stale" @@ fun live_fd ->
  let reader = Protocol.Reader.create () in
  match roundtrip reader live_fd (Protocol.Health { id = 1 }) with
  | Protocol.Health_report _ -> ()
  | r -> Alcotest.failf "unexpected response %d" (Protocol.response_id r)

let test_server_live_socket_refused () =
  with_server_path "live" @@ fun socket_path ->
  (* a second server on the same path must refuse with a structured
     error — and must NOT unlink the live server's socket *)
  (match Server.run ~stop:(fun () -> true) (test_config socket_path) with
  | Error msg ->
      checkb "error names the conflict" true
        (String.length msg > 0
        && String.lowercase_ascii msg |> fun m ->
           let has sub =
             let n = String.length m and k = String.length sub in
             let rec go i = i + k <= n && (String.sub m i k = sub || go (i + 1)) in
             go 0
           in
           has "already" || has "in use")
  | Ok () -> Alcotest.fail "second server started on a live socket");
  (* the first server is unharmed *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.connect fd (Unix.ADDR_UNIX socket_path);
  let reader = Protocol.Reader.create () in
  match roundtrip reader fd (Protocol.Health { id = 1 }) with
  | Protocol.Health_report _ -> ()
  | r -> Alcotest.failf "unexpected response %d" (Protocol.response_id r)

let test_server_nonsocket_path_refused () =
  let path = test_socket "notsock" in
  let oc = open_out path in
  output_string oc "precious user data";
  close_out oc;
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  (match Server.run ~stop:(fun () -> true) (test_config path) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "server started over a regular file");
  (* and the file was not unlinked *)
  checkb "non-socket file untouched" true (Sys.file_exists path)

(* ------------------------------------------------------------------ *)
(* Adversarial wire input                                              *)
(* ------------------------------------------------------------------ *)

(* A request frame truncated at every byte boundary, each on its own
   connection that then vanishes: the server must survive every prefix
   and keep serving. *)
let test_server_truncation_every_boundary () =
  with_server "trunc" @@ fun fd ->
  let socket_path = test_socket "trunc" in
  let frame =
    Protocol.frame
      (Protocol.encode_request (optimize ~id:1 (encoded_test_graph ())))
  in
  let n = String.length frame in
  for cut = 0 to n - 1 do
    let c = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (match Unix.connect c (Unix.ADDR_UNIX socket_path) with
    | () ->
        (try write_all c (String.sub frame 0 cut)
         with Unix.Unix_error _ -> ());
        (try Unix.close c with Unix.Unix_error _ -> ())
    | exception Unix.Unix_error (e, _, _) ->
        (try Unix.close c with Unix.Unix_error _ -> ());
        Alcotest.failf "connect refused at cut %d: %s" cut
          (Unix.error_message e))
  done;
  (* the server took no damage from any prefix *)
  let reader = Protocol.Reader.create () in
  match roundtrip reader fd (optimize ~id:2 (encoded_test_graph ())) with
  | Protocol.Result { id; _ } -> checki "server survived every prefix" 2 id
  | r -> Alcotest.failf "unexpected response %d" (Protocol.response_id r)

(* Clients that send a whole request and hang up before the answer: the
   worker's write hits EPIPE on a dead peer. No crash, no fd leak that
   would poison later connections, and stats still count the work. *)
let test_server_client_vanishes_before_answer () =
  with_server "vanish" @@ fun fd ->
  let socket_path = test_socket "vanish" in
  for i = 0 to 7 do
    let c = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect c (Unix.ADDR_UNIX socket_path);
    let g = encoded_test_graph ~name:(Printf.sprintf "gone%d" i) () in
    write_all c (Protocol.frame (Protocol.encode_request (optimize ~id:i g)));
    Unix.close c
  done;
  (* give the workers time to compute into the dead sockets *)
  Unix.sleepf 0.5;
  let reader = Protocol.Reader.create () in
  (match roundtrip reader fd (optimize ~id:100 (encoded_test_graph ())) with
  | Protocol.Result { id; _ } -> checki "server survived EPIPE writes" 100 id
  | r -> Alcotest.failf "unexpected response %d" (Protocol.response_id r));
  match roundtrip reader fd (Protocol.Health { id = 101 }) with
  | Protocol.Health_report { health; _ } ->
      (* every admitted job must have been retired: no leaked pending
         refcounts masquerading as in-flight work *)
      checki "no stuck in-flight jobs" 0 health.Protocol.inflight
  | r -> Alcotest.failf "unexpected response %d" (Protocol.response_id r)

(* ------------------------------------------------------------------ *)
(* Chaos                                                               *)
(* ------------------------------------------------------------------ *)

let test_chaos_property () =
  with_server_path ~workers:2 "chaos" @@ fun socket_path ->
  let r = Chaos.run ~schedules:25 ~seed:11 ~socket:socket_path () in
  (match r.Chaos.violations with
  | [] -> ()
  | v ->
      Alcotest.failf "%d chaos violation(s):\n  %s" (List.length v)
        (String.concat "\n  " v));
  checkb "wire faults were exercised" true (r.Chaos.faults > 0);
  checkb "clean requests were served" true (r.Chaos.ok > 0);
  checkb "crash drills ran" true (r.Chaos.crash_drills > 0);
  checkb "bursts ran" true (r.Chaos.bursts > 0)

(* ------------------------------------------------------------------ *)
(* Load: latency percentiles                                           *)
(* ------------------------------------------------------------------ *)

let checkf msg = Alcotest.(check (float 0.0)) msg

(* Ceiling-based nearest rank: the reported percentile is an observed
   latency that at least p%% of samples do not exceed. The old truncating
   rank under-reported the tail — p99 of 100 samples picked index 98. *)
let test_percentile_known_arrays () =
  let hundred = Array.init 100 (fun i -> float_of_int (i + 1)) in
  checkf "p50 of 1..100" 51. (Load.percentile hundred 50.);
  checkf "p95 of 1..100" 96. (Load.percentile hundred 95.);
  checkf "p99 of 1..100" 100. (Load.percentile hundred 99.);
  checkf "p0 is the min" 1. (Load.percentile hundred 0.);
  checkf "p100 is the max" 100. (Load.percentile hundred 100.);
  let four = [| 10.; 20.; 30.; 40. |] in
  checkf "p25 of four" 20. (Load.percentile four 25.);
  checkf "p50 of four" 30. (Load.percentile four 50.);
  checkf "p95 of four" 40. (Load.percentile four 95.);
  checkf "p99 of four" 40. (Load.percentile four 99.)

let test_percentile_degenerate () =
  checkf "empty" 0. (Load.percentile [||] 99.);
  let one = [| 7.5 |] in
  checkf "singleton p50" 7.5 (Load.percentile one 50.);
  checkf "singleton p99" 7.5 (Load.percentile one 99.);
  (* ranks never escape the array even for out-of-range p *)
  let two = [| 1.; 2. |] in
  checkf "p > 100 clamps to max" 2. (Load.percentile two 250.);
  checkf "p < 0 clamps to min" 1. (Load.percentile two (-10.))

let () =
  Alcotest.run "serve"
    [
      ( "cache",
        [
          Alcotest.test_case "hit and miss accounting" `Quick
            test_cache_hit_miss;
          Alcotest.test_case "LRU eviction respects the byte bound" `Quick
            test_cache_eviction_lru;
          Alcotest.test_case "replacement releases the old charge" `Quick
            test_cache_replace_releases_charge;
          Alcotest.test_case "oversized values are skipped" `Quick
            test_cache_oversized_skipped;
          Alcotest.test_case "concurrent stress: no torn entries" `Quick
            test_cache_concurrent_stress;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "request round-trip" `Quick
            test_protocol_request_roundtrip;
          Alcotest.test_case "response round-trip" `Quick
            test_protocol_response_roundtrip;
          Alcotest.test_case "outcome round-trip" `Quick
            test_protocol_outcome_roundtrip;
          Alcotest.test_case "decode is total on mangled bytes" `Quick
            test_protocol_decode_total;
          Alcotest.test_case "v3 request is an unsupported version" `Quick
            test_protocol_rejects_v3;
          Alcotest.test_case "reader survives any frame split" `Quick
            test_reader_any_split;
          Alcotest.test_case "oversize frames are a sticky error" `Quick
            test_reader_oversize_sticky;
          Alcotest.test_case "length-varint overflow rejected pre-allocation"
            `Quick test_reader_varint_overflow_rejected;
        ] );
      ( "server",
        [
          Alcotest.test_case "warm response byte-identical to cold" `Quick
            test_server_cold_warm_identical;
          Alcotest.test_case "bad requests answered, connection survives"
            `Quick test_server_bad_requests_survive;
          Alcotest.test_case "injected faults are contained" `Quick
            test_server_fault_injection_contained;
          Alcotest.test_case "admission control sheds past the queue bound"
            `Quick test_server_sheds_past_queue_bound;
          Alcotest.test_case "result-cache eviction respects its bound" `Quick
            test_server_cache_eviction_bound;
        ] );
      ( "supervision",
        [
          Alcotest.test_case "health probe" `Quick test_server_health_probe;
          Alcotest.test_case "worker crash, restart, poison pill" `Quick
            test_server_worker_crash_restart;
          Alcotest.test_case "restart budget exhaustion fails closed" `Quick
            test_server_restart_budget_exhausted;
          Alcotest.test_case "deadline watchdog reaps stuck jobs" `Quick
            test_server_deadline_watchdog;
          Alcotest.test_case "graceful drain" `Quick test_server_graceful_drain;
        ] );
      ( "startup",
        [
          Alcotest.test_case "stale socket reclaimed" `Quick
            test_server_stale_socket_reclaimed;
          Alcotest.test_case "live socket refused" `Quick
            test_server_live_socket_refused;
          Alcotest.test_case "non-socket path refused, file untouched" `Quick
            test_server_nonsocket_path_refused;
        ] );
      ( "adversarial",
        [
          Alcotest.test_case "truncation at every byte boundary" `Quick
            test_server_truncation_every_boundary;
          Alcotest.test_case "client vanishes before the answer" `Quick
            test_server_client_vanishes_before_answer;
        ] );
      ( "chaos",
        [ Alcotest.test_case "wire-fault property" `Slow test_chaos_property ] );
      ( "load",
        [
          Alcotest.test_case "percentiles pinned on known arrays" `Quick
            test_percentile_known_arrays;
          Alcotest.test_case "percentile degenerate inputs" `Quick
            test_percentile_degenerate;
        ] );
    ]
