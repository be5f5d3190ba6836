(* In-memory span recorder for traced runs. A span is recorded around
   each call the benchmark makes into a layer: name, start, end, parent
   span and op id. Nothing is written until the run ends. A layer's
   self time is its span's duration minus the time its child spans
   cover (children of one span never overlap: the benchmark is
   single-threaded). *)

type span = {
  id : int;
  parent : int;  (* -1 at the root *)
  op : int;
  name : string;
  t0 : float;
  t1 : float;
}

type t = {
  enabled : bool;
  mutable spans : span list;  (* most recent first *)
  mutable next : int;
  mutable stack : int list;
  mutable op : int;
}

let now = Pypm.Obs.monotonic
let create ~enabled = { enabled; spans = []; next = 0; stack = []; op = 0 }
let set_op t op = t.op <- op

let with_span t name f =
  if not t.enabled then f ()
  else begin
    let id = t.next in
    t.next <- id + 1;
    let parent = match t.stack with p :: _ -> p | [] -> -1 in
    t.stack <- id :: t.stack;
    let t0 = now () in
    let finish () =
      let t1 = now () in
      t.stack <- List.tl t.stack;
      t.spans <- { id; parent; op = t.op; name; t0; t1 } :: t.spans
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

(* A root span with explicit bounds, for intervals that overlap other
   open spans (round trips on concurrent connections). *)
let record t ~name ~t0 ~t1 =
  if t.enabled then begin
    let id = t.next in
    t.next <- id + 1;
    t.spans <- { id; parent = -1; op = t.op; name; t0; t1 } :: t.spans
  end

let spans t = List.rev t.spans

(* Per-name totals: (calls, total seconds, self seconds), sorted by
   self time, largest first. *)
let self_times t =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let prev = try Hashtbl.find child s.parent with Not_found -> 0. in
        Hashtbl.replace child s.parent (prev +. (s.t1 -. s.t0)))
    t.spans;
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let d = s.t1 -. s.t0 in
      let self = d -. (try Hashtbl.find child s.id with Not_found -> 0.) in
      let n, tot, slf =
        try Hashtbl.find by_name s.name with Not_found -> (0, 0., 0.)
      in
      Hashtbl.replace by_name s.name (n + 1, tot +. d, slf +. self))
    t.spans;
  Hashtbl.fold (fun name (n, tot, slf) acc -> (name, n, tot, slf) :: acc) by_name []
  |> List.sort (fun (_, _, _, a) (_, _, _, b) -> compare b a)

(* Durations (seconds) of every span called [name], in call order. *)
let durations t name =
  List.filter_map
    (fun s -> if String.equal s.name name then Some (s.t1 -. s.t0) else None)
    (spans t)

(* Chrome trace-event JSON (one complete event per span), loadable in
   chrome://tracing or Perfetto. *)
let write_chrome t path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  let base = match spans t with s :: _ -> s.t0 | [] -> 0. in
  output_string oc "{\"traceEvents\":[";
  List.iteri
    (fun i s ->
      if i > 0 then output_char oc ',';
      Printf.fprintf oc
        "\n{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%d,\"id\":%d,\"parent\":%d}}"
        s.name
        ((s.t0 -. base) *. 1e6)
        ((s.t1 -. s.t0) *. 1e6)
        s.op s.id s.parent)
    (spans t);
  output_string oc "\n]}\n"
