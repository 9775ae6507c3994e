(** RPQ evaluation: which nodes does a query select?

    A node [v] is selected iff in the product of the graph with the query
    NFA some accepting product state is reachable from [(v, q0)] for a
    start state [q0]. Evaluation runs one {e backward} BFS from all
    accepting product states over reversed product edges, which answers
    the question for {e every} node simultaneously in
    O(|E| · |Δ| + |V| · |Q|) — this is the engine behind every
    interaction of the system, so it must stay graph-linear.

    Queries may step edges backwards: a symbol [l~] (see
    {!Rpq.is_inverse}) traverses an [l]-edge from its destination to its
    source, so [cinema~.tram~] selects the cinemas whose district some
    tram line enters (two-way RPQs).

    {2 The kernel}

    {!run} is the general entry point; {!select} is the same evaluation
    on a fresh snapshot, and the helpers below build on it. Every one
    routes through one sequential kernel function that scans a
    {!Gps_graph.Csr}'s packed cells inline (heap-frozen, or the base of
    a mapped file), plus any edges beyond them through two iterators
    ({!edges}: a mapped view's overlay, an {!Incremental} table's
    insertions).
    Per edge it tests one bit of the popped state's label mask and, only
    when some transition on that label enters the state, indexes a flat
    reverse transition index keyed by [(label, state)]. Product state
    [(v, q)] is the int [(v lsl sh) lor q] with [sh = ⌈log2 m⌉]; the
    queue (one flat int array) and the {!Gps_graph.Bitset} membership
    table are pooled across runs, so a run allocates little beyond its
    answer. The BFS is level-synchronous, so every report narrates its
    frontier level by level. Out-edges are walked only when the query
    has an inverse symbol.

    {2 Seeded starts}

    The kernel starts either fresh, from every accepting product state,
    or seeded: from a membership closed over an older graph, plus the
    product states that the edges added since enable. A new edge
    [s -l-> t] enables [(s, qs)] for each transition [qs -l-> qd] with
    [(t, qd)] a member, and [(t, qs)] for each [qs -l~-> qd] with
    [(s, qd)] a member; nodes the membership does not cover seed their
    accepting states. The BFS then continues as usual, so its result
    equals a fresh run on the grown graph. {!run} on a [Mapped] view
    that has taken writes starts this way from the live entry that
    {!Gps_graph.Disk_csr} keeps for its automaton, and {!Incremental}
    does through {!live} and {!resume}: [lib/query] has one backward
    product loop. *)

val select : ?domains:int -> Gps_graph.Digraph.t -> Rpq.t -> bool array
(** [select g q].(v) iff [q] selects node [v]: {!run} on a fresh
    snapshot of [g], traced as [eval.select].

    [?domains] is accepted and ignored: a compatibility shim for
    [perfbench/_ocaml/inputs.ml], which passes [~domains:1]. Remove it
    in the next benchmark change, together with that argument. *)

(** {2 EXPLAIN reports}

    Each evaluation can narrate itself: how big the product was, how the
    BFS frontier evolved level by level, and why the search stopped. The
    server's [explain] field and [gps query --explain] are both rendered
    from this record. *)

type stop_reason =
  | Empty_automaton  (** the query automaton has no states — nothing to run *)
  | Saturated  (** every product state was discovered *)
  | Frontier_exhausted  (** the frontier drained before saturation — the common case *)
  | Timed_out  (** the evaluation's {!Gps_obs.Deadline} expired mid-search *)
  | Cancelled  (** the evaluation's cancel token fired mid-search *)

type report = {
  automaton_states : int;
  graph_nodes : int;
  product_states : int;  (** [graph_nodes * automaton_states] *)
  frontier_visits : int;  (** product states expanded (queue pops) *)
  early_exit_hits : int;  (** re-discoveries skipped by the membership bitset *)
  par_levels : int;
  seq_fallbacks : int;
      (** [par_levels] and [seq_fallbacks] are always 0 and are not
          encoded: a compatibility shim for [perfbench/_ocaml/traced.ml],
          which sums them. Remove both in the next benchmark change,
          together with its [eval.par_levels]/[eval.seq_fallbacks]
          metrics. *)
  report_levels : int list;
      (** frontier size per BFS level, in BFS order; level 1 is the
          accepting-state seed frontier *)
  stop : stop_reason;
  selected : int;  (** how many nodes the query selects *)
  resumed : bool;
      (** the run continued a live entry, so the counts and levels are
          this run's own work only (level 1 is its seed); encoded as
          ["resumed": true], and absent from a fresh run's JSON *)
}

val stop_reason_to_string : stop_reason -> string
(** ["empty-automaton"], ["saturated"], ["frontier-exhausted"],
    ["timed-out"], ["cancelled"]. *)

val stop_reason_of_string : string -> (stop_reason, string) result

(** {2 Deadlines and cancellation}

    {!run} takes a {!Gps_obs.Deadline} token and polls it cooperatively
    — once per BFS level and every few hundred frontier visits inside a
    level. When it fires the kernel stops promptly and [run] returns
    [Error] carrying the reason and the {e partial} EXPLAIN report of the
    work done so far (its [stop] field is [Timed_out]/[Cancelled], its
    [selected] count is the under-approximation discovered before the
    stop). Without a deadline ([Gps_obs.Deadline.none], the default) the
    result is always [Ok] and the kernel's hot path is unchanged up to
    one branch per visit. *)

type interrupted = { reason : Gps_obs.Deadline.reason; partial : report }

(** {2 Evaluation sources}

    Both sources are read through one {!Gps_graph.Csr} layout: a
    [Frozen] snapshot, or the mapped base of a [Mapped] view, so a
    mapped file costs the same per edge as a heap graph. A [Mapped]
    view with a non-empty delta overlay also walks each popped node's
    overlay edges. *)

type source =
  | Frozen of Gps_graph.Digraph.t * Gps_graph.Csr.t
      (** A heap graph with its frozen snapshot (the snapshot must be
          [Csr.freeze] of exactly that graph). Reusing one snapshot skips
          the per-call freeze: the server's cold path and the learner's
          consistency oracle evaluate this way. *)
  | Mapped of Gps_graph.Disk_csr.view
      (** An mmap-backed packed graph, delta overlay included; index [v]
          of a selection is the node with id [v] (overlay nodes included,
          past the base count). *)

(** {2 Live entries}

    {!run} on a [Mapped] view with a non-empty overlay and no
    [?targets] goes through the graph's live table, keyed by the
    automaton itself (states, starts, finals, transitions — not the
    query text):
    + it takes the automaton's entry, if the entry is not newer than
      the view, and holds it exclusively while in use;
    + it seeds from the edges logged since the entry's position and
      from the nodes added since, continues over the view, and puts
      the membership back at the view's position.

    Without an entry it runs fresh and records its membership. A view
    older than the entry runs fresh and leaves the entry alone; an
    interrupted or raising run puts nothing back, so the next run
    starts fresh. A graph that is never written never records one. *)

val run :
  ?deadline:Gps_obs.Deadline.t ->
  ?targets:bool array ->
  source ->
  Rpq.t ->
  (bool array * report, interrupted) result
(** [run source q]: the selection of [q] on [source] and the report of
    the evaluation that produced it. With [?targets], the accepting
    seeds are restricted to the marked nodes, so [v] is selected iff
    some walk from [v] spelling a word of [L(q)] ends at a target
    (default: every node; raises [Invalid_argument] when the array's
    length is not the node count). Traced as [eval.select_frozen] or
    [eval.select_mapped]. A [Mapped] view that has taken writes may
    resume from its automaton's live entry (above): the selection is the
    same, the report counts only the resumed work and says so. *)

val select_source_report_result :
  ?deadline:Gps_obs.Deadline.t ->
  ?targets:bool array ->
  source ->
  Rpq.t ->
  (bool array * report, interrupted) result
(** {!run} under its former name: a compatibility shim for
    [perfbench/_ocaml/traced.ml], which times it as [eval.kernel_ns].
    Nothing else may call it. Remove it in the next benchmark change,
    together with that call. *)

val report_to_json : report -> Gps_graph.Json.value
val report_of_json : Gps_graph.Json.value -> (report, string) result
(** Total codec: [report_of_json (report_to_json r) = Ok r] for every
    report the kernel produces. *)

val pp_report : Format.formatter -> report -> unit
(** An aligned key/value block for terminals; levels render as
    ["1:12 2:40"] (index:frontier). *)

val select_nodes : Gps_graph.Digraph.t -> Rpq.t -> Gps_graph.Digraph.node list
(** Selected nodes in ascending id order. *)

val consistent :
  Gps_graph.Digraph.t ->
  Rpq.t ->
  pos:Gps_graph.Digraph.node list ->
  neg:Gps_graph.Digraph.node list ->
  bool
(** The query selects every positive node and no negative one — the
    paper's consistency criterion (a negative node "covers" a word iff the
    word is one of its paths, so "no negative covered" is exactly "no
    negative selected"). *)

val count : Gps_graph.Digraph.t -> Rpq.t -> int

val witness_lengths : Gps_graph.Digraph.t -> Rpq.t -> int option array
(** Per node, the length of its shortest witness word ([None] when not
    selected) — all nodes in one backward BFS (the same kernel, with
    per-level distances), used to rank answers by how direct they are.
    Agrees with the length of {!Witness.find}'s result. *)

val product_states : Gps_graph.Digraph.t -> Rpq.t -> int
(** |V| · |Q| — reported by the benchmark harness. *)

(** {2 Live memberships}

    The seeded start for a caller that keeps its own membership across
    insertions into a heap graph ({!Incremental}). *)

type edges = {
  iter_in : int -> (int -> int -> unit) -> unit;
      (** a node's edges beyond the snapshot, as [(label, source)] *)
  iter_out : int -> (int -> int -> unit) -> unit;
      (** the same edges seen from their source, as [(label, destination)] *)
}

type live
(** A finished run's product membership and the node count it covers. *)

val live : Gps_graph.Digraph.t -> Gps_graph.Csr.t -> edges -> Rpq.t -> live
(** [live g csr edges q]: a fresh run of [q] over [g]'s nodes, whose
    edges are [csr]'s (a freeze of an earlier [g]) plus those [edges]
    yields. Traced as [eval.live]. *)

val resume :
  live ->
  Gps_graph.Digraph.t ->
  Gps_graph.Csr.t ->
  edges ->
  since:((int -> int -> int -> unit) -> unit) ->
  live
(** Continue a membership over [g] grown since its run: [since] calls
    its argument on [(src, label, dst)] for every edge the earlier run
    did not see, and nodes past its count seed their accepting states.
    The result equals {!live} on the grown graph; the argument's bits
    are reused, so it must not be used again. *)

val live_selects : live -> Gps_graph.Digraph.node -> bool
(** Whether the membership's run selects the node. A node past its node
    count has no edges, so it is selected iff the query accepts the
    empty word. *)
