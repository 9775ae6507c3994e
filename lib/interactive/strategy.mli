(** Node-proposal strategies Υ.

    A strategy is "a function that takes as input a graph G and a set of
    examples S, and returns a node from G" (paper, Section 2). Only
    candidates that are unlabeled, not implied by propagation, and
    informative w.r.t. the current negatives are ever returned.

    Implemented strategies:
    - {!random}: uniform over candidates — the baseline the companion
      paper compares against;
    - {!max_degree}: highest out-degree first — a cheap structural
      heuristic;
    - {!smart}: maximize the number of short uncovered paths — the
      paper's strategy ("seek the nodes having an important number of
      paths that are shorter than a fixed bound and not covered by any
      negative node"). *)

type context = {
  scorer : Informative.t;
      (** the session's scorer: graph, path-length bound and memo *)
  excluded : Gps_graph.Digraph.node -> bool;
      (** labeled or implied nodes, never proposed *)
  negatives : Gps_graph.Digraph.node list;  (** current effective negatives *)
}

type t = { name : string; choose : context -> Gps_graph.Digraph.node option }
(** [choose] returns [None] when no informative candidate remains — the
    natural halt condition. *)

val random : seed:int -> t
val max_degree : t
val smart : t
(** {!Informative.best}: the highest-scoring candidate, lowest node id
    among ties. *)

val sequential : t
(** Lowest node id first — a deterministic worst-ish baseline
    corresponding to a user paging through the node list. *)

val by_name : seed:int -> string -> (t, string) result
(** ["random"], ["degree"], ["smart"], ["sequential"] — for the CLI. *)

val candidates : context -> Gps_graph.Digraph.node list
(** The informative, unlabeled, un-implied nodes (what all strategies
    choose from), ascending. *)

val best_by : ('a -> int) -> 'a list -> 'a option
(** The first element of highest score; each element is scored once. *)
