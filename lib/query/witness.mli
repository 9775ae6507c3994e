(** Witness paths: concrete evidence of why a query selects a node.

    When GPS proposes a path to the user for validation (Figure 3(c)) or
    explains a result, it needs, for a selected node, a shortest walk
    whose word the query accepts. *)

type t = {
  word : string list;                 (** the query's symbols, by name ([l~] for a backward step) *)
  walk : Gps_graph.Digraph.node list; (** node sequence, starting at the queried node *)
}

val search :
  Gps_graph.Digraph.t ->
  Rpq.t ->
  Gps_graph.Digraph.node ->
  goal:(Gps_graph.Digraph.node -> int -> bool) ->
  t option
(** The one forward product search: a BFS from [(src, q0)] for every
    start state [q0] of the query's automaton that follows out-edges for
    a symbol [l] and in-edges for [l~]. [goal u q] is asked of every
    product state as it is dequeued, in BFS order; the search stops at
    the first one that holds and returns the (shortest) walk to it.
    [None] when no reachable product state satisfies [goal]. {!Binary}
    builds the two-variable semantics on it. *)

val find : Gps_graph.Digraph.t -> Rpq.t -> Gps_graph.Digraph.node -> t option
(** A shortest witness for the node, [None] when the query does not
    select it: {!search} up to the first accepting state. *)

val find_all_selected : Gps_graph.Digraph.t -> Rpq.t -> (Gps_graph.Digraph.node * t) list
(** One shortest witness per selected node. *)

val pp : Gps_graph.Digraph.t -> Format.formatter -> t -> unit
(** [N2 -bus-> N1 -tram-> N4 -cinema-> C1]; a backward step renders as
    [C1 <-cinema- N4]. *)
