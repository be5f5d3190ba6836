module Obs = Pypm_obs.Obs

(* A cached body, held outside the OCaml heap. Inside it, the bodies were
   most of the live heap, and the collector lets the heap grow in
   proportion to live data before it finishes a cycle, so the garbage of
   every request grew with the cache: the server's major heap held about
   3x the charged bytes. Off the heap, the bound is the resident size:
   one copy in on [add], one copy out per hit. *)
type body = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

let body_of_string s : body =
  let b = Bigarray.Array1.create Bigarray.char Bigarray.c_layout (String.length s) in
  String.iteri (fun i c -> Bigarray.Array1.unsafe_set b i c) s;
  b

let string_of_body (b : body) =
  String.init (Bigarray.Array1.dim b) (fun i -> Bigarray.Array1.unsafe_get b i)

(* Intrusive doubly-linked LRU list over the entry records themselves:
   find/add/evict are all O(1) under one mutex. The cache is shared by
   every worker domain, so all access is serialized; the critical
   sections are pointer surgery and hash lookups, never pass work. *)
type entry = {
  key : string;
  value : body;
  bytes : int;  (* key + value, the entry's charge against the bound *)
  mutable prev : entry option;  (* toward most-recent *)
  mutable next : entry option;  (* toward least-recent *)
}

type t = {
  max_bytes : int;
  table : (string, entry) Hashtbl.t;
  mutex : Mutex.t;
  mutable mru : entry option;
  mutable lru : entry option;
  mutable cur_bytes : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
  bytes : int;
  max_bytes : int;
}

let create ~max_bytes =
  if max_bytes <= 0 then invalid_arg "Cache.create: max_bytes must be > 0";
  {
    max_bytes;
    table = Hashtbl.create 256;
    mutex = Mutex.create ();
    mru = None;
    lru = None;
    cur_bytes = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let charge key value = String.length key + String.length value + 64

(* unlink [e] from the recency list (table untouched) *)
let unlink t (e : entry) =
  (match e.prev with Some p -> p.next <- e.next | None -> t.mru <- e.next);
  (match e.next with Some n -> n.prev <- e.prev | None -> t.lru <- e.prev);
  e.prev <- None;
  e.next <- None

let push_front t (e : entry) =
  e.next <- t.mru;
  e.prev <- None;
  (match t.mru with Some m -> m.prev <- Some e | None -> t.lru <- Some e);
  t.mru <- Some e

(* Events are emitted outside the lock, from the calling domain — they
   land in that domain's ring, next to the pass events of the same
   request. *)
let find (t : t) key =
  let result =
    Mutex.protect t.mutex (fun () ->
        match Hashtbl.find_opt t.table key with
        | Some e ->
            t.hits <- t.hits + 1;
            unlink t e;
            push_front t e;
            Some e.value
        | None ->
            t.misses <- t.misses + 1;
            None)
  in
  (* entries are immutable once added, so the copy needs no lock *)
  match result with
  | Some body ->
      Obs.emit (Obs.Cache_hit { key });
      Some (string_of_body body)
  | None ->
      Obs.emit (Obs.Cache_miss { key });
      None

let add (t : t) key value =
  let bytes = charge key value in
  if bytes <= t.max_bytes then begin
    let value = body_of_string value in
    let evicted =
      Mutex.protect t.mutex (fun () ->
          (* replace-if-present keeps one entry per key; the stale entry's
             bytes are released first *)
          (match Hashtbl.find_opt t.table key with
          | Some old ->
              unlink t old;
              Hashtbl.remove t.table key;
              t.cur_bytes <- t.cur_bytes - old.bytes
          | None -> ());
          let e = { key; value; bytes; prev = None; next = None } in
          Hashtbl.replace t.table key e;
          push_front t e;
          t.cur_bytes <- t.cur_bytes + bytes;
          let evicted = ref [] in
          while t.cur_bytes > t.max_bytes do
            match t.lru with
            | Some victim ->
                unlink t victim;
                Hashtbl.remove t.table victim.key;
                t.cur_bytes <- t.cur_bytes - victim.bytes;
                t.evictions <- t.evictions + 1;
                evicted := (victim.key, victim.bytes) :: !evicted
            | None -> assert false (* cur_bytes > 0 implies an entry *)
          done;
          !evicted)
    in
    List.iter
      (fun (key, bytes) -> Obs.emit (Obs.Cache_evicted { key; bytes }))
      evicted
  end

let stats (t : t) : stats =
  Mutex.protect t.mutex (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        evictions = t.evictions;
        entries = Hashtbl.length t.table;
        bytes = t.cur_bytes;
        max_bytes = t.max_bytes;
      })
