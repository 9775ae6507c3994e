(** Step (i) of the paper's learning algorithm: for a positive node, find a
    path {e not covered by any negative node}.

    A word [w] is covered by a negative [n] iff [w ∈ paths(n)]; a
    consistent query must avoid all covered words, so the witness chosen
    for a positive node must be uncovered. The search runs a BFS over
    pairs [(S_v, S_N)] of subset-simulation frontiers — nodes reachable
    from the positive node, and from the set of negatives, by the current
    word — looking for a reachable pair with [S_v ≠ ∅] and [S_N = ∅].
    Exact (no length bound needed: the pair space is finite), but
    worst-case exponential, which is why the paper bounds consistency
    checking; [fuel] caps the number of expanded pairs and makes the
    search effectively polynomial, returning [`Timeout] when exceeded.
    Frontiers are {!Subset}-interned, so each distinct pair is expanded
    at most once. *)

type outcome =
  | Found of string list   (** a shortest uncovered path, as label names *)
  | Uninformative          (** every path of the node is covered — no consistent
                               query can select it (the paper's pruning criterion) *)
  | Timeout                (** fuel exhausted before deciding *)

val search :
  Gps_graph.Digraph.t ->
  ?fuel:int ->
  ?max_len:int ->
  Gps_graph.Digraph.node ->
  negatives:Gps_graph.Digraph.node list ->
  outcome
(** [fuel] defaults to 100_000 expanded pairs; [max_len] (default
    unbounded) additionally caps the word length, after which the node is
    reported [Uninformative] — this is the bounded variant the
    interactive strategies use. *)
