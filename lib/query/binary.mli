(** Binary regular path queries — the classical two-variable semantics.

    The paper's GPS works with {e monadic} RPQs (select single nodes);
    the textbook RPQ semantics selects {e pairs}: [(x, y)] is an answer
    iff some walk from [x] to [y] spells a word of the language. This
    module provides that semantics as a natural extension — the demo's
    future audience would expect both — built on {!Witness.search}, the
    forward product search (so [l~] steps an edge backwards here too).

    The monadic semantics is recovered as: [x] is selected iff
    [(x, y)] is an answer for some [y]. *)

val targets : Gps_graph.Digraph.t -> Rpq.t -> Gps_graph.Digraph.node -> Gps_graph.Digraph.node list
(** [targets g q x]: all [y] with a walk [x ⇝ y] spelling a word of
    [L(q)], ascending. Includes [x] itself iff ε ∈ L(q). *)

val select_pairs : Gps_graph.Digraph.t -> Rpq.t -> (Gps_graph.Digraph.node * Gps_graph.Digraph.node) list
(** All answer pairs, lexicographically. Size can be quadratic — intended
    for moderate graphs or selective queries. *)

val count_pairs : Gps_graph.Digraph.t -> Rpq.t -> int

val is_answer :
  Gps_graph.Digraph.t -> Rpq.t -> src:Gps_graph.Digraph.node -> dst:Gps_graph.Digraph.node -> bool

val witness :
  Gps_graph.Digraph.t ->
  Rpq.t ->
  src:Gps_graph.Digraph.node ->
  dst:Gps_graph.Digraph.node ->
  Witness.t option
(** A shortest witness walk from [src] ending exactly at [dst]. *)

val agree_with_monadic : Gps_graph.Digraph.t -> Rpq.t -> bool
(** Cross-check used by the test suite: a node is {!Eval}-selected iff it
    has at least one binary target. *)
