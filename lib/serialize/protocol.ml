module W = Codec.Wire
module Pass = Pypm_engine.Pass

(* v2 added [options.domains] (intra-pass parallelism). v3 added the
   [Health] probe and the self-healing responses ([Deadline_exceeded],
   [Draining], [Worker_crashed], [Health_report]). v4 removed
   [options.domains] again, with intra-pass parallelism. Option blocks
   have no per-field framing and response tags must mean the same thing
   on both sides, so each change is a wire break: old peers get a
   structured "unsupported protocol version" error, not garbage. *)
let version = 4

(* Each message payload leads with a magic+version pair so a client
   talking to the wrong service (or the wrong protocol revision) gets a
   structured decode error, not garbage fields. *)
let magic = "PMRP"

(* ------------------------------------------------------------------ *)
(* Option block                                                        *)
(* ------------------------------------------------------------------ *)

type options = {
  engine : string;  (* "naive" | "index" | "plan" | "egraph" *)
  fuel : int;
  max_rewrites : int;
  deadline_s : float option;
  quarantine_after : int;
  check_types : bool;
  strict : bool;
  fault_seed : int;
  fault_rate : float;
  fault_points : string list;
}

let default_options =
  {
    engine = "plan";
    fuel = 200_000;
    max_rewrites = 10_000;
    deadline_s = None;
    quarantine_after = 5;
    check_types = true;
    strict = false;
    fault_seed = 0;
    fault_rate = 0.;
    fault_points = [];
  }

let put_options buf (o : options) =
  W.put_string buf o.engine;
  W.put_varint buf o.fuel;
  W.put_varint buf o.max_rewrites;
  (match o.deadline_s with
  | None -> W.put_bool buf false
  | Some d ->
      W.put_bool buf true;
      W.put_f64 buf d);
  W.put_varint buf o.quarantine_after;
  W.put_bool buf o.check_types;
  W.put_bool buf o.strict;
  W.put_varint buf o.fault_seed;
  W.put_f64 buf o.fault_rate;
  W.put_list buf W.put_string o.fault_points

let get_options c : options =
  let engine = W.get_string c in
  let fuel = W.get_varint c in
  let max_rewrites = W.get_varint c in
  let deadline_s = if W.get_bool c then Some (W.get_f64 c) else None in
  let quarantine_after = W.get_varint c in
  let check_types = W.get_bool c in
  let strict = W.get_bool c in
  let fault_seed = W.get_varint c in
  let fault_rate = W.get_f64 c in
  let fault_points = W.get_list c W.get_string in
  {
    engine;
    fuel;
    max_rewrites;
    deadline_s;
    quarantine_after;
    check_types;
    strict;
    fault_seed;
    fault_rate;
    fault_points;
  }

(* The cache key's option component: the encoded option block itself.
   Every field above changes what the pass can produce, so every field
   participates; two requests with byte-equal blocks are interchangeable. *)
let options_fingerprint o =
  let buf = Buffer.create 64 in
  put_options buf o;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Structured pass errors on the wire                                  *)
(* ------------------------------------------------------------------ *)

let put_error buf (e : Pass.error) =
  match e with
  | Pass.Rule_failed { pattern; rule; reason } ->
      W.put_u8 buf 0;
      W.put_string buf pattern;
      W.put_string buf rule;
      W.put_string buf reason
  | Pass.Guard_raised { pattern; rule; reason } ->
      W.put_u8 buf 1;
      W.put_string buf pattern;
      W.put_string buf rule;
      W.put_string buf reason
  | Pass.Engine_unavailable { engine; reason } ->
      W.put_u8 buf 2;
      W.put_string buf engine;
      W.put_string buf reason

let get_error c : Pass.error =
  match W.get_u8 c with
  | 0 ->
      let pattern = W.get_string c in
      let rule = W.get_string c in
      let reason = W.get_string c in
      Pass.Rule_failed { pattern; rule; reason }
  | 1 ->
      let pattern = W.get_string c in
      let rule = W.get_string c in
      let reason = W.get_string c in
      Pass.Guard_raised { pattern; rule; reason }
  | 2 ->
      let engine = W.get_string c in
      let reason = W.get_string c in
      Pass.Engine_unavailable { engine; reason }
  | t -> raise (Codec.Corrupt (W.offset c, Printf.sprintf "bad error tag %d" t))

(* ------------------------------------------------------------------ *)
(* Envelopes                                                           *)
(* ------------------------------------------------------------------ *)

type program_spec = Named of string | Inline of string

type request =
  | Optimize of {
      id : int;
      program : program_spec;
      options : options;
      graph : string;
    }
  | Stats of { id : int }
  | Health of { id : int }

type outcome = {
  graph : string;
  stats_json : string;
  errors : Pass.error list;
  fatal : Pass.error option;
}

type server_stats = {
  served : int;
  shed : int;
  errors : int;
  cache_hits : int;
  cache_misses : int;
  cache_evictions : int;
  cache_entries : int;
  cache_bytes : int;
  workers : int;
  uptime_s : float;
}

type health = {
  status : string;  (* "ok" | "draining" *)
  uptime_s : float;
  workers_alive : int;
  workers_total : int;
  restarts : int;
  poisoned : int;
  inflight : int;
}

type response =
  | Result of { id : int; cached : bool; service_s : float; body : string }
  | Stats_report of { id : int; stats : server_stats }
  | Overloaded of { id : int }
  | Bad_request of { id : int; reason : string }
  | Server_error of { id : int; reason : string }
  | Deadline_exceeded of { id : int; elapsed_s : float }
  | Draining of { id : int }
  | Worker_crashed of { id : int; reason : string }
  | Health_report of { id : int; health : health }

let response_id = function
  | Result { id; _ }
  | Stats_report { id; _ }
  | Overloaded { id }
  | Bad_request { id; _ }
  | Server_error { id; _ }
  | Deadline_exceeded { id; _ }
  | Draining { id }
  | Worker_crashed { id; _ }
  | Health_report { id; _ } ->
      id

(* ------------------------------------------------------------------ *)
(* Outcome bodies                                                      *)
(*                                                                     *)
(* The body is encoded separately from the response header so the      *)
(* result cache can store the cold body bytes verbatim: a warm         *)
(* response is byte-identical to the cold one by construction, while   *)
(* per-service fields (cached flag, service time) live in the header   *)
(* outside the cached bytes.                                           *)
(* ------------------------------------------------------------------ *)

let encode_outcome (o : outcome) =
  let buf = Buffer.create (String.length o.graph + 256) in
  W.put_string buf o.graph;
  W.put_string buf o.stats_json;
  W.put_list buf put_error o.errors;
  (match o.fatal with
  | None -> W.put_bool buf false
  | Some e ->
      W.put_bool buf true;
      put_error buf e);
  Buffer.contents buf

let decode_outcome bytes =
  let c = W.cursor bytes in
  match
    let graph = W.get_string c in
    let stats_json = W.get_string c in
    let errors = W.get_list c get_error in
    let fatal = if W.get_bool c then Some (get_error c) else None in
    if W.remaining c <> 0 then
      raise (Codec.Corrupt (W.offset c, "trailing bytes"));
    { graph; stats_json; errors; fatal }
  with
  | o -> Ok o
  | exception Codec.Corrupt (off, msg) ->
      Error (Printf.sprintf "corrupt outcome at byte %d: %s" off msg)

(* ------------------------------------------------------------------ *)
(* Message encoding                                                    *)
(* ------------------------------------------------------------------ *)

let header buf =
  Buffer.add_string buf magic;
  W.put_varint buf version

let check_header c =
  let m = String.init 4 (fun _ -> Char.chr (W.get_u8 c)) in
  if m <> magic then
    raise (Codec.Corrupt (W.offset c, "bad magic (not a PyPM serve message)"));
  let v = W.get_varint c in
  if v <> version then
    raise
      (Codec.Corrupt
         (W.offset c, Printf.sprintf "unsupported protocol version %d" v))

let encode_request (r : request) =
  let buf = Buffer.create 256 in
  header buf;
  (match r with
  | Optimize { id; program; options; graph } ->
      W.put_u8 buf 0;
      W.put_varint buf id;
      (match program with
      | Named n ->
          W.put_u8 buf 0;
          W.put_string buf n
      | Inline bytes ->
          W.put_u8 buf 1;
          W.put_string buf bytes);
      put_options buf options;
      W.put_string buf graph
  | Stats { id } ->
      W.put_u8 buf 1;
      W.put_varint buf id
  | Health { id } ->
      W.put_u8 buf 2;
      W.put_varint buf id);
  Buffer.contents buf

let decode_request bytes =
  let c = W.cursor bytes in
  match
    check_header c;
    let r =
      match W.get_u8 c with
      | 0 ->
          let id = W.get_varint c in
          let program =
            match W.get_u8 c with
            | 0 -> Named (W.get_string c)
            | 1 -> Inline (W.get_string c)
            | t ->
                raise
                  (Codec.Corrupt
                     (W.offset c, Printf.sprintf "bad program-spec tag %d" t))
          in
          let options = get_options c in
          let graph = W.get_string c in
          Optimize { id; program; options; graph }
      | 1 -> Stats { id = W.get_varint c }
      | 2 -> Health { id = W.get_varint c }
      | t ->
          raise
            (Codec.Corrupt (W.offset c, Printf.sprintf "bad request tag %d" t))
    in
    if W.remaining c <> 0 then
      raise (Codec.Corrupt (W.offset c, "trailing bytes"));
    r
  with
  | r -> Ok r
  | exception Codec.Corrupt (off, msg) ->
      Error (Printf.sprintf "corrupt request at byte %d: %s" off msg)

let encode_response (r : response) =
  let buf = Buffer.create 256 in
  header buf;
  (match r with
  | Result { id; cached; service_s; body } ->
      W.put_u8 buf 0;
      W.put_varint buf id;
      W.put_bool buf cached;
      W.put_f64 buf service_s;
      W.put_string buf body
  | Stats_report { id; stats } ->
      W.put_u8 buf 1;
      W.put_varint buf id;
      W.put_varint buf stats.served;
      W.put_varint buf stats.shed;
      W.put_varint buf stats.errors;
      W.put_varint buf stats.cache_hits;
      W.put_varint buf stats.cache_misses;
      W.put_varint buf stats.cache_evictions;
      W.put_varint buf stats.cache_entries;
      W.put_varint buf stats.cache_bytes;
      W.put_varint buf stats.workers;
      W.put_f64 buf stats.uptime_s
  | Overloaded { id } ->
      W.put_u8 buf 2;
      W.put_varint buf id
  | Bad_request { id; reason } ->
      W.put_u8 buf 3;
      W.put_varint buf id;
      W.put_string buf reason
  | Server_error { id; reason } ->
      W.put_u8 buf 4;
      W.put_varint buf id;
      W.put_string buf reason
  | Deadline_exceeded { id; elapsed_s } ->
      W.put_u8 buf 5;
      W.put_varint buf id;
      W.put_f64 buf elapsed_s
  | Draining { id } ->
      W.put_u8 buf 6;
      W.put_varint buf id
  | Worker_crashed { id; reason } ->
      W.put_u8 buf 7;
      W.put_varint buf id;
      W.put_string buf reason
  | Health_report { id; health } ->
      W.put_u8 buf 8;
      W.put_varint buf id;
      W.put_string buf health.status;
      W.put_f64 buf health.uptime_s;
      W.put_varint buf health.workers_alive;
      W.put_varint buf health.workers_total;
      W.put_varint buf health.restarts;
      W.put_varint buf health.poisoned;
      W.put_varint buf health.inflight);
  Buffer.contents buf

let decode_response bytes =
  let c = W.cursor bytes in
  match
    check_header c;
    let r =
      match W.get_u8 c with
      | 0 ->
          let id = W.get_varint c in
          let cached = W.get_bool c in
          let service_s = W.get_f64 c in
          let body = W.get_string c in
          Result { id; cached; service_s; body }
      | 1 ->
          let id = W.get_varint c in
          let served = W.get_varint c in
          let shed = W.get_varint c in
          let errors = W.get_varint c in
          let cache_hits = W.get_varint c in
          let cache_misses = W.get_varint c in
          let cache_evictions = W.get_varint c in
          let cache_entries = W.get_varint c in
          let cache_bytes = W.get_varint c in
          let workers = W.get_varint c in
          let uptime_s = W.get_f64 c in
          Stats_report
            {
              id;
              stats =
                {
                  served;
                  shed;
                  errors;
                  cache_hits;
                  cache_misses;
                  cache_evictions;
                  cache_entries;
                  cache_bytes;
                  workers;
                  uptime_s;
                };
            }
      | 2 -> Overloaded { id = W.get_varint c }
      | 3 ->
          let id = W.get_varint c in
          let reason = W.get_string c in
          Bad_request { id; reason }
      | 4 ->
          let id = W.get_varint c in
          let reason = W.get_string c in
          Server_error { id; reason }
      | 5 ->
          let id = W.get_varint c in
          let elapsed_s = W.get_f64 c in
          Deadline_exceeded { id; elapsed_s }
      | 6 -> Draining { id = W.get_varint c }
      | 7 ->
          let id = W.get_varint c in
          let reason = W.get_string c in
          Worker_crashed { id; reason }
      | 8 ->
          let id = W.get_varint c in
          let status = W.get_string c in
          let uptime_s = W.get_f64 c in
          let workers_alive = W.get_varint c in
          let workers_total = W.get_varint c in
          let restarts = W.get_varint c in
          let poisoned = W.get_varint c in
          let inflight = W.get_varint c in
          Health_report
            {
              id;
              health =
                {
                  status;
                  uptime_s;
                  workers_alive;
                  workers_total;
                  restarts;
                  poisoned;
                  inflight;
                };
            }
      | t ->
          raise
            (Codec.Corrupt (W.offset c, Printf.sprintf "bad response tag %d" t))
    in
    if W.remaining c <> 0 then
      raise (Codec.Corrupt (W.offset c, "trailing bytes"));
    r
  with
  | r -> Ok r
  | exception Codec.Corrupt (off, msg) ->
      Error (Printf.sprintf "corrupt response at byte %d: %s" off msg)

(* ------------------------------------------------------------------ *)
(* Framing                                                             *)
(* ------------------------------------------------------------------ *)

let frame payload =
  let buf = Buffer.create (String.length payload + 5) in
  W.put_varint buf (String.length payload);
  Buffer.add_string buf payload;
  Buffer.contents buf

module Reader = struct
  (* An incremental deframer over a byte stream: feed whatever the socket
     produced, pull zero or more complete frames out. The length prefix is
     parsed byte-by-byte so a frame split anywhere — even inside the
     varint — resumes cleanly. *)
  type t = {
    max_frame : int;
    buf : Buffer.t;
    mutable len : int option;  (* parsed length of the pending frame *)
    mutable vacc : int;  (* varint accumulator *)
    mutable vshift : int;
    mutable dead : string option;  (* sticky protocol error *)
  }

  let default_max_frame = 64 * 1024 * 1024

  let create ?(max_frame = default_max_frame) () =
    {
      max_frame;
      buf = Buffer.create 4096;
      len = None;
      vacc = 0;
      vshift = 0;
      dead = None;
    }

  let feed r s = if r.dead = None then Buffer.add_string r.buf s

  (* Shift the buffer left by [n] consumed bytes. Linear in the residue,
     which is fine: frames are small relative to feeds. *)
  let consume r n =
    let rest = Buffer.sub r.buf n (Buffer.length r.buf - n) in
    Buffer.clear r.buf;
    Buffer.add_string r.buf rest

  let rec next r =
    match r.dead with
    | Some msg -> `Error msg
    | None -> (
        match r.len with
        | None ->
            (* resume the length varint *)
            let n = Buffer.length r.buf in
            let rec parse i =
              if i >= n then begin
                consume r i;
                `Await
              end
              else
                let b = Char.code (Buffer.nth r.buf i) in
                if r.vshift > 62 then begin
                  r.dead <- Some "frame length varint too long";
                  `Error "frame length varint too long"
                end
                else begin
                  r.vacc <- r.vacc lor ((b land 0x7f) lsl r.vshift);
                  r.vshift <- r.vshift + 7;
                  if b land 0x80 = 0 then
                    (* [vacc < 0]: the 9th varint byte can shift bits past
                       the sign (0x40 lsl 56 = 2^62 wraps to min_int), and a
                       negative "length" would sail under the max_frame
                       check into Buffer.sub — reject it as the absurd
                       frame it is. *)
                    if r.vacc < 0 || r.vacc > r.max_frame then begin
                      r.dead <-
                        Some
                          (Printf.sprintf "frame of %d bytes exceeds the %d limit"
                             r.vacc r.max_frame);
                      next r
                    end
                    else begin
                      r.len <- Some r.vacc;
                      r.vacc <- 0;
                      r.vshift <- 0;
                      consume r (i + 1);
                      next r
                    end
                  else parse (i + 1)
                end
            in
            parse 0
        | Some len ->
            if Buffer.length r.buf < len then `Await
            else begin
              let payload = Buffer.sub r.buf 0 len in
              consume r len;
              r.len <- None;
              `Frame payload
            end)
end
