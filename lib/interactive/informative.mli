(** Informativeness of nodes — the paper's pruning criterion and the smart
    strategy's score.

    "Intuitively, a node is uninformative if all its paths are covered by
    negative nodes": labeling it positive would be inconsistent, labeling
    it negative adds nothing, so GPS never proposes it and prunes it from
    the candidate pool. Already-labeled nodes and nodes whose label is
    implied by propagation are likewise uninformative.

    All checks are length-bounded ([bound]) as in the paper's practical
    strategies. A scorer [t] belongs to one session (a forked session
    gets a {!copy}): it counts uncovered words with a dynamic program
    over interned node subsets, memoized on (walk frontier, negative
    frontier, remaining length) for the life of the session, and caches
    per node the last witness word and the last
    score together with the negative set it was computed under. Every
    cached fact is either independent of the negatives or tagged with
    them, so answers are exact for any negative set, in any order —
    after an undo or a journal replay too. *)

type t

val create : Gps_graph.Digraph.t -> bound:int -> t
(** A scorer for words of length at most [bound] (0..63). Its tables are
    built on first use. The graph must not change while it is in use. *)

val graph : t -> Gps_graph.Digraph.t

val copy : t -> t
(** A scorer in the same state that shares nothing mutable with [t]:
    each answers afterwards exactly as [t] alone would, and using one
    never changes the other. Reading [t] is all it does, so several
    threads may copy one scorer that none of them uses. *)

val release : t -> unit
(** Drop the tables (a finished session calls this). A later call
    rebuilds them, so this never changes an answer. *)

val is_informative : t -> negatives:Gps_graph.Digraph.node list -> Gps_graph.Digraph.node -> bool
(** Some path of the node of length ≤ [bound] is uncovered. With no
    negatives every node with ε uncovered — i.e. every node — is
    informative. A node whose count hits the work cap (100 000 new memo
    entries) is uninformative, as a [Witness_search] timeout is. *)

val score :
  t -> negatives:Gps_graph.Digraph.node list -> Gps_graph.Digraph.node -> int option
(** Number of distinct uncovered non-empty words of length ≤ [bound] —
    what the smart strategy maximizes ("nodes having an important number
    of paths that are shorter than a fixed bound and not covered by any
    negative"). [None] when counting hit the work cap. *)

val best :
  t ->
  negatives:Gps_graph.Digraph.node list ->
  excluded:(Gps_graph.Digraph.node -> bool) ->
  Gps_graph.Digraph.node option
(** The informative, non-excluded node of highest {!score}, the lowest
    node id among ties; [None] if there is none. Lazy greedy: only nodes
    whose cached upper bound could still beat the best exact score are
    re-scored. *)
