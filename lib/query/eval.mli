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
    routes through one shared, cache-tight, sequential kernel: an adjacency snapshot (a frozen
    {!Gps_graph.Csr} or a mapped {!Gps_graph.Disk_csr} view), a flat
    CSR-style reverse transition index keyed by [(label, state)] (no
    per-edge transition-list filtering), a {!Gps_graph.Bitset}
    membership table (one bit per product state), and int-encoded
    product states in a flat array queue. The BFS is level-synchronous,
    so every report narrates its frontier level by level. Out-edges are
    walked only when the query has an inverse symbol. *)

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

    The kernel is compiled once per adjacency backing (a functor over a
    minimal in/out-edge iteration interface), so evaluating against an
    mmap-backed {!Gps_graph.Disk_csr} view costs the same per edge as
    the heap CSR: an offset probe and a packed-cell read. A view whose
    delta overlay is empty takes the pure flat-array path; with an
    overlay, each node's base range is walked first and the overlay
    adjacency appended. *)

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
    [eval.select_mapped]. *)

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
