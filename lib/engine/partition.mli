(** Directed graph partitioning (paper, section 4.2).

    Rather than hand-writing a replacement for every matched subgraph, a
    match-only pattern can {e carve out} a region that is known to be
    optimizable; the region is then handed to a compiler that can build the
    fused kernel just in time. Here the "JIT compiler" is simulated: a
    region is collapsed into a single fused operator node whose cost
    attributes summarize the interior (the cost model then charges one
    kernel launch and no interior memory traffic).

    Regions are found greedily from outputs down, mirroring the matching
    pass: when a pattern matches at a node, the matched interior (every
    node of the matched subtree that is not part of a variable binding)
    becomes a region, its nodes are claimed, and scanning continues; a node
    can belong to at most one region. *)

open Pypm_term
open Pypm_graph

type region = {
  pattern_name : string;
  root : Graph.node;
  interior : Graph.node list;  (** nodes to be fused, including the root *)
  inputs : Graph.node list;  (** region inputs, in discovery order *)
  theta : Subst.t;
}

(** [find program graph] lists the disjoint regions matched by the
    program's patterns (rules, if any, are ignored). *)
val find : ?fuel:int -> Program.t -> Graph.t -> region list

(** [fuse ?annotate graph region] replaces the region's root with a single
    fused operator node ["fused_<pattern>_<k>"] (class ["fused"]) whose
    inputs are the region's inputs and whose attributes record the number
    of interior nodes ([fused_ops]) plus whatever [annotate] computes from
    the interior (the cost model's [Cost.fused_attrs] records the interior
    flops so the simulated JIT kernel is charged its real compute).
    Returns the new node. *)
val fuse :
  ?annotate:(Graph.node list -> (string * int) list) ->
  Graph.t ->
  region ->
  Graph.node

(** [fuse_all program graph] = find then fuse every region; returns the
    fused nodes. *)
val fuse_all :
  ?fuel:int ->
  ?annotate:(Graph.node list -> (string * int) list) ->
  Program.t ->
  Graph.t ->
  Graph.node list

(** [extract_region graph region] materializes the region as a standalone
    graph: interior nodes are copied (preserving operators and attributes),
    region inputs become fresh graph inputs of the same types, and the
    copied root is the single output. This is the subgraph the paper "hands
    off to an AI compiler that can build the fused kernel" — and
    {!compile_region} is that recursive compile: it runs a rewrite program
    over the extracted graph. Returns the standalone graph and the copy of
    the root. Raises [Invalid_argument] if a region input has no type. *)
val extract_region : Graph.t -> region -> Graph.t * Graph.node

(** [compile_region ~compile graph region] extracts the region, applies
    [compile] to the standalone graph (e.g. a {!Pass.run_cfg} with a kernel
    program), and returns it for costing; used by the JIT-fusion demo. *)
val compile_region :
  compile:(Graph.t -> unit) -> Graph.t -> region -> Graph.t

val pp_region : Format.formatter -> region -> unit
