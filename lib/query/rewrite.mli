(** Graph-aware query rewriting.

    A query often mentions labels a particular graph simply does not have
    (a learned query moved to another dataset, a user typo, a shared query
    library). Any symbol absent from the graph's alphabet can never match
    an edge, so replacing it with ∅ — and letting the smart constructors
    collapse the expression — yields a smaller query with the same answer
    {e on that graph}. [(tram+monorail)*.cinema] specializes to
    [tram*.cinema] on a graph without monorails. *)

val specialize : Gps_graph.Digraph.t -> Rpq.t -> Rpq.t
(** Replace out-of-alphabet symbols by ∅ and renormalize. The selected
    node set is unchanged; the language generally shrinks. Inverse
    symbols ([l~], see {!Rpq.is_inverse}) are judged by their base label. *)

val dead_symbols : Gps_graph.Digraph.t -> Rpq.t -> string list
(** The symbols the specialization would remove, sorted. *)

val specialize_known : known:(string -> bool) -> Rpq.t -> Rpq.t
(** {!specialize} against an abstract alphabet: [known] is asked about
    each symbol's base label ([l~] is judged by [l]). This is the entry
    point for graph backings that are not a {!Gps_graph.Digraph} — the
    server uses it for mmap-backed catalog entries. *)

val base_alphabet : Rpq.t -> string list
(** The distinct base labels the query mentions, sorted — the label set
    the result cache intersects against ingest deltas to decide which
    entries a batch of new edges can possibly affect. *)
