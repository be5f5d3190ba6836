(** Term views of computation graphs.

    CorePyPM abstracts operator graphs as syntax trees (paper, section 3);
    the DLCB pass matches "the subtree rooted at the current node". A view
    materializes that abstraction: for every node it builds the term whose
    head is the node's operator and whose arguments are the views of its
    inputs. Sharing in the DAG becomes structural sharing in the term
    (memoized per node, so the view of a whole graph is linear work even
    when the unfolded tree is exponential).

    The view also carries the reverse mapping, term to node, used to
    (a) answer tensor-attribute queries during guard evaluation and
    (b) resolve the nodes that pattern variables bound to when a rewrite
    rule builds its replacement.

    A view is a snapshot: after a destructive rewrite it is stale and a
    fresh view must be built (every engine builds one per iteration, that
    is, per firing). *)

open Pypm_term
open Pypm_tensor

type t

val create : Graph.t -> t
val graph : t -> Graph.t

(** [term_of view n] is the (shared, memoized) term for the subgraph rooted
    at [n]. *)
val term_of : t -> Graph.node -> Term.t

(** [node_of view t] resolves a term produced by this view back to a node.
    Structurally equal subgraphs resolve to the first node encountered;
    all candidates compute the same value, so the choice does not affect
    rewriting semantics. *)
val node_of : t -> Term.t -> Graph.node option

(** [type_of view t] is the tensor type of the resolved node. *)
val type_of : t -> Term.t -> Ty.t option

(** The tensor attribute interpretation for this view: [rank], [eltType],
    [dimN], [nelems], [bytes], plus [value_x1000] on constant nodes, plus
    structural [size]/[depth] and symbol attributes from the signature. *)
val interp : t -> Pypm_pattern.Guard.interp
