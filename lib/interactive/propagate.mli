(** Label propagation — "the system seamlessly propagates to the rest of
    the graph the labels provided by the user, while at the same time
    pruning the nodes that become uninformative".

    Two sound inferences:
    - a validated positive path [w] implies {e positive} for every node
      that has [w] among its paths: any query consistent with the
      validation accepts [w], hence selects those nodes;
    - a node all of whose (bounded) paths are covered by negatives can be
      selected by no consistent query: it is implied {e negative} and
      pruned. *)

val implied_positives :
  Gps_graph.Digraph.t -> word:string list -> Gps_graph.Digraph.node list
(** Nodes having [word] among their paths: one kernel evaluation of the
    word as a query. A label the graph lacks implies nothing. *)

val implied_negatives :
  Informative.t ->
  negatives:Gps_graph.Digraph.node list ->
  among:Gps_graph.Digraph.node list ->
  Gps_graph.Digraph.node list
(** The members of [among] that are uninformative w.r.t. [negatives],
    under the scorer's bound. *)
