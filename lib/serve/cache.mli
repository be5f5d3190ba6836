(** The content-addressed result cache.

    Maps a request's content key — digest of (program, pass options,
    graph fingerprint) — to the cold response's encoded outcome bytes.
    Because the cached value {e is} the cold body, a warm response is
    byte-identical to the cold one by construction.

    Bounded by total byte size with LRU eviction; an entry larger than
    the whole bound is silently not cached. Values are stored outside the
    OCaml heap, so the bound is also the resident size of the cached
    bytes; {!find} returns a fresh copy. All operations are
    mutex-serialized and O(1); the cache is shared by every worker
    domain. Hits, misses and evictions are counted and emitted as
    {!Pypm_obs.Obs} events ([Cache_hit] / [Cache_miss] /
    [Cache_evicted]) on the calling domain. *)

type t

(** [create ~max_bytes] — total byte bound across keys and values.
    Raises [Invalid_argument] when [max_bytes <= 0]. *)
val create : max_bytes:int -> t

(** [find t key] returns the cached bytes and refreshes the entry's
    recency, or [None] (counted as a miss). *)
val find : t -> string -> string option

(** [add t key value] inserts (or replaces) and evicts least-recently
    used entries until the byte bound holds again. *)
val add : t -> string -> string -> unit

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
  bytes : int;  (** current charge, <= [max_bytes] *)
  max_bytes : int;
}

val stats : t -> stats
