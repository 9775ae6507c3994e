(** Incremental RPQ evaluation under edge insertions.

    {!Digraph} is append-only, which makes selection {e monotone}: adding
    an edge can only select more nodes, never fewer. This module freezes
    the graph once, keeps the membership of one {!Eval} run alive and, on
    each insertion, hands the edges added since the freeze and the new
    edge to the kernel's seeded start ({!Eval.resume}), which continues
    the backward search from just the product states the new edge
    enables — typically touching a small fraction of the product instead
    of recomputing it (the [--exp incremental] benchmark quantifies
    this). There is no second product loop here.

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
    [Digraph.add_edge] call) and propagate its consequences: one seeded
    kernel run, whose fixed cost is the query's plan plus the nodes added
    since the previous call. @raise Invalid_argument when the graph does
    not know [label] (the edge was not added). *)

val selected : t -> Gps_graph.Digraph.node -> bool
val select : t -> bool array
val count : t -> int

val agrees_with_scratch : t -> bool
(** Recompute from scratch and compare — the test-suite oracle. *)
