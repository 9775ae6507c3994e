(** Incremental RPQ evaluation under edge insertions.

    {!Digraph} is append-only, which makes selection {e monotone}: adding
    an edge can only select more nodes, never fewer. This module keeps the
    backward-reachability table of {!Eval} alive and, on each insertion,
    reseeds the BFS from just the product states the new edge enables —
    typically touching a small fraction of the product instead of
    recomputing it (the [--exp incremental] benchmark quantifies this).

    Inverse symbols ([l~]) are followed as {!Eval} follows them, so the
    table agrees with a from-scratch evaluation on two-way queries too.

    Usage: evaluate once with {!create}, then interleave {!add_edge}
    (which must mirror every [Digraph.add_edge] on the underlying graph)
    with O(1) {!selected} queries. *)

type t

val create : Gps_graph.Digraph.t -> Rpq.t -> t
(** Evaluates eagerly. The graph must only grow afterwards, and only
    through {!add_edge} (node additions need no notification until an
    edge touches them: a node no edge has touched is selected iff the
    query accepts the empty word). *)

val add_edge : t -> src:Gps_graph.Digraph.node -> label:string -> dst:Gps_graph.Digraph.node -> unit
(** Record that [src -label-> dst] was just added to the graph (after the
    [Digraph.add_edge] call) and propagate its consequences. Unknown
    labels (no transition in the query) cost O(1). *)

val selected : t -> Gps_graph.Digraph.node -> bool
val select : t -> bool array
val count : t -> int

val agrees_with_scratch : t -> bool
(** Recompute from scratch and compare — the test-suite oracle. *)
