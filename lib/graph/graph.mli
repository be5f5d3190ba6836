(** The computation-graph IR.

    This is the repository's stand-in for DLCB's operator graphs: a mutable
    DAG of operator nodes over a signature, with tensor types computed by
    shape inference at construction time. Rewriting is {e destructive}
    (paper, section 2): {!replace} rewires every user of the matched root to
    the replacement node and the old subgraph becomes garbage, dropped from
    the node table by {!free} (from one root, by use count) or {!gc} (the
    whole table).

    Every node carries its use-list (the reverse edges) and a liveness
    flag. Both are maintained by each mutation — {!add}, {!set_outputs},
    {!try_replace}, {!free}, {!gc} — and restored by {!Txn.rollback}, so
    finding a node's users or whether it is live costs nothing
    graph-wide.

    Invariants maintained (and checked by {!validate}):
    - inputs of a node were created before it in the same graph (acyclic);
    - arities agree with the signature;
    - every node reachable from an output is in the node table;
    - a live node's use-list holds exactly its live users, one entry per
      input edge;
    - a node's [live] flag is true iff it is reachable from an output. *)

open Pypm_term
open Pypm_tensor

type node = private {
  id : int;
  mutable op : Symbol.t;
  mutable inputs : node list;
  mutable attrs : (string * int) list;
  mutable ty : Ty.t option;  (** [None] = opaque to the type system *)
  mutable users : node list;
      (** One entry per input edge into this node from a node in the
          table, live or dead: a user reading the node twice is listed
          twice. Use {!users} for the distinct live users. *)
  mutable live : bool;  (** reachable from the outputs *)
}

type t

(** [create ~sg ~infer ()] makes an empty graph. The signature and inference
    registry are {e not} copied; several graphs may share them. *)
val create : sg:Signature.t -> infer:Infer.t -> unit -> t

val signature : t -> Signature.t
val inference : t -> Infer.t

(** [input g ~name ty] creates a graph input: an arity-0 leaf with a fresh
    operator symbol derived from [name], declared in the signature with
    class ["input"]. *)
val input : t -> name:string -> Ty.t -> node

(** [opaque g ~name ty] creates a leaf standing for a subgraph DLCB does not
    understand (class ["opaque"]); it has a type but no structure. *)
val opaque : t -> name:string -> Ty.t -> node

(** [add g op ?attrs inputs] creates an operator node. Arity is checked
    against the signature; the type is computed by the inference registry.
    Raises [Invalid_argument] if the operator is declared but its typing
    rule rejects the inputs (a construction bug); an operator with no
    typing rule gets [ty = None]. *)
val add : t -> Symbol.t -> ?attrs:(string * int) list -> node list -> node

(** [add_with_ty g op ~ty inputs] creates a node with an explicitly supplied
    type, bypassing inference. Used for just-in-time fused region operators
    whose type is the type of the subgraph they replace. The operator must
    be declared with the right arity. *)
val add_with_ty :
  t -> Symbol.t -> ?attrs:(string * int) list -> ty:Ty.t -> node list -> node

(** [constant g ?dtype value] is a scalar constant leaf (class ["const"]).
    The float [value] is stored as the attribute ["value_x1000"], rounded to
    the nearest thousandth; PyPM constants like 0.5 and 2 in figure 2 are
    represented this way. Constant leaves with the same dtype and value
    share an {e interned} operator symbol ({!lit_symbol}), so patterns can
    match specific literals structurally. *)
val constant : t -> ?dtype:Dtype.t -> float -> node

(** [constant_value node] recovers the value of a constant node. *)
val constant_value : node -> float option

(** The interned operator symbol of the constant [value] at [dtype]
    (default [F32]); use it to write literal patterns such as
    [Div(x, 2)] as [App (lit_symbol 2.0, [])]. *)
val lit_symbol : ?dtype:Dtype.t -> float -> Symbol.t

(** Declare a literal's symbol in a signature without building a graph, so
    pattern well-formedness checks know it. Idempotent. *)
val declare_lit : Signature.t -> ?dtype:Dtype.t -> float -> Symbol.t

val set_outputs : t -> node list -> unit
val outputs : t -> node list
val find_node : t -> int -> node option

(** All nodes of the node table (including garbage not yet dropped by
    {!free} or {!gc}), sorted by id, i.e. in creation order. O(n log n). *)
val nodes : t -> node list

(** Nodes reachable from the outputs, in topological order (inputs before
    users). *)
val live_nodes : t -> node list

val node_count : t -> int

(** The id the next allocated node will get. Ids increase and are never
    reused (not even after a rollback), so every node with an id at or
    above a value read earlier was allocated since. *)
val next_id : t -> int

val live_count : t -> int

(** [users g n] lists the distinct live nodes that take [n] as an input, by
    increasing id. Read from [n]'s use-list: O(users), not O(graph). *)
val users : t -> node -> node list

(** [replace g ~old_root ~new_root] destructively replaces [old_root]:
    every user of [old_root] now reads [new_root], and outputs are updated.
    Raises [Invalid_argument] if [new_root] would create a cycle (it is a
    strict ancestor of itself through [old_root]'s users). *)
val replace : t -> old_root:node -> new_root:node -> unit

(** Non-raising {!replace}: [Error `Cycle] when rewiring would close a
    loop, with the graph untouched — the rewrite engine counts this as a
    rejected firing and rolls the attempt back instead of dying mid-pass.

    The cycle test is one DFS from [new_root] looking for a live user of
    [old_root]. [settled] (default: none) bounds it: the DFS does not enter
    a node for which [settled] holds. The caller must guarantee that no
    settled node reaches a live user of [old_root]; the rewrite pass passes
    its clean old nodes (see [Pass]). The public {!replace} runs the full
    test.

    Afterwards [new_root] and its cone are live if [old_root] was, and
    [old_root] — with, transitively, every input left without a live user
    — is dead, but stays in the node table until {!free} or {!gc}. *)
val try_replace :
  ?settled:(node -> bool) ->
  t ->
  old_root:node ->
  new_root:node ->
  (unit, [ `Cycle ]) result

(** [free g n] drops [n] from the node table if it is dead, then,
    transitively, every input of a dropped node that is dead too; returns
    how many were dropped and emits one [Gc] event for them. Cost is
    proportional to the dropped nodes' edges. Journaled: inside a
    transaction a rollback puts them back. *)
val free : t -> node -> int

(** Drop every unreachable node from the node table; returns how many
    were collected. Recomputes liveness from the outputs (O(nodes +
    edges)) rather than trusting the flags. Raises [Invalid_argument]
    inside an open transaction: the journal could not undo a collection. *)
val gc : t -> int

(** {2 Transactions}

    A mutation journal over the graph: every node allocation, input
    rewiring, and output update performed while a transaction is open is
    recorded as an undo thunk. {!Txn.rollback} restores the graph to its
    state at {!Txn.begin_} — the mechanism behind all-or-nothing rule
    firing in the rewrite pass. Transactions nest LIFO via savepoints
    (an inner [begin_]/[rollback] undoes only the inner mutations; an
    outer [rollback] undoes committed inner work too). Outside any
    transaction the journal records nothing and costs one integer check
    per mutation.

    Node ids are {e not} reused after a rollback: [next_id] keeps
    advancing, so an id captured by an event during a rolled-back attempt
    can never alias a later node. *)

module Txn : sig
  type savepoint

  (** Open a (possibly nested) transaction; mutations are journaled until
      the matching {!commit} or {!rollback}. *)
  val begin_ : t -> savepoint

  (** Keep the mutations since the savepoint. Raises [Invalid_argument]
      on non-LIFO commit order. *)
  val commit : t -> savepoint -> unit

  (** Undo every mutation since the savepoint, most recent first; returns
      how many were undone. Raises [Invalid_argument] on non-LIFO order. *)
  val rollback : t -> savepoint -> int

  (** Is any transaction open? *)
  val active : t -> bool

  val depth : t -> int
end

(** [count_op g op] counts live nodes with operator [op]. *)
val count_op : t -> Symbol.t -> int

(** [count_class g cls] counts live nodes whose operator class is [cls]. *)
val count_class : t -> string -> int

(** Structural integrity check; returns human-readable violations. *)
val validate : t -> string list

(** [unsafe_set_inputs n inputs] rewires [n]'s inputs with {e no} arity,
    declaration, acyclicity or liveness upkeep (the use-lists are kept) —
    it can corrupt the graph, and is not journaled. Intended for tests that
    manufacture invalid graphs to exercise {!validate}. *)
val unsafe_set_inputs : node -> node list -> unit

val pp_node : Format.formatter -> node -> unit
val pp : Format.formatter -> t -> unit
