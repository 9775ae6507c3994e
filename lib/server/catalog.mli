(** The named-graph registry.

    The service owns a set of graph databases addressed by name, each
    under a monotonically increasing per-name version. Two backings
    coexist behind one entry type:

    - {e heap} entries ([put]): an immutable {!Gps_graph.Digraph.t}
      snapshot plus its {!Gps_graph.Csr} freeze for the evaluation hot
      path and its node ids in name order, so an answer lists its
      names without sorting them;
    - {e file} entries ([put_file]): an mmap-backed
      {!Gps_graph.Disk_csr} packed graph plus its mutable delta overlay.
      No [Digraph] is retained — a million-node file costs one [mmap],
      and endpoints that genuinely need full [Digraph] access (sessions,
      learning) force one lazily through {!graph}, memoized until the
      overlay grows.

    Reloading a name bumps its version, which is what keys the query
    cache and lets already-running sessions keep working against the
    snapshot they started from. Overlay ingest ({!add_edges}) does {e
    not} bump the version — the graph only grows, and the query cache
    handles deltas with label-aware invalidation instead of the blanket
    version cliff.

    All operations are thread-safe (one internal mutex; entries are
    immutable once published — the [File] overlay and memo mutate behind
    their own locks, and a template slot is filled once, by
    compare-and-set). *)

type template = Gps_interactive.Session.t option Atomic.t
(** The slot for one graph's template session: [None] until the first
    smart session start on that graph computes it, then that session,
    never replaced (see {!Server}). *)

type backing =
  | Heap of {
      graph : Gps_graph.Digraph.t;
      csr : Gps_graph.Csr.t;
      order : int array;  (** every node id, sorted by name under [String.compare] *)
      template : template;  (** [graph]'s *)
    }
  | File of {
      disk : Gps_graph.Disk_csr.t;
      file : string;  (** the packed file's path *)
      lock : Mutex.t;  (** guards [heap] *)
      mutable heap : (Gps_graph.Digraph.t * int * template) option;
          (** memoized materialization, stamped with the overlay edge
              count it reflects, and its template slot *)
    }

type entry = {
  name : string;
  version : int;  (** 1 on first load, +1 per reload *)
  backing : backing;
}

type t

val create : unit -> t

val put : t -> name:string -> Gps_graph.Digraph.t -> entry
(** Install (or replace) the graph under [name]. Freezes the CSR
    snapshot and sorts the name order eagerly. *)

val put_file : t -> name:string -> string -> (entry, Gps_graph.Disk_csr.open_error) result
(** Map the packed file at the path and install it under [name]; the
    file is validated before the entry is published. Versioning is the
    same as {!put}. *)

val find : t -> string -> entry option

val list : t -> entry list
(** Sorted by name. *)

val count : t -> int

(** {1 Backing-generic accessors}

    These answer without materializing a heap graph for file entries. *)

val eval_source : entry -> Gps_query.Eval.source
(** What the evaluation kernel should run against: the frozen heap CSR,
    or a fresh overlay-inclusive snapshot of the mapped file. *)

val iter_selected :
  entry -> Gps_query.Eval.source -> bool array -> (string -> unit) -> unit
(** [iter_selected e source sel] iterates the names of the nodes [sel]
    marks in [String.compare] order, where [source] is the {!eval_source}
    snapshot [sel] was computed on. A heap entry walks its name order; a
    file entry collects {!Gps_graph.Disk_csr.selected_names} once, when
    given [sel], so the resulting iterator can run twice (as
    {!Protocol.Names.of_iter} does) for one walk or sort. *)

val n_nodes : entry -> int
val n_edges : entry -> int
val n_labels : entry -> int
(** Overlay included for file entries. *)

val labels : entry -> string list
(** All label names, sorted. *)

val known_label : entry -> string -> bool
(** Is the base label in this graph's alphabet (overlay included)? The
    argument feeds {!Gps_query.Rewrite.specialize_known}. *)

val file_backed : entry -> bool
val backing_file : entry -> string option
val overlay_edges : entry -> int
(** 0 for heap entries. *)

val graph : entry -> Gps_graph.Digraph.t
(** The full heap graph. Free for heap entries; file entries materialize
    (base + overlay) on first use and memoize until the overlay grows.
    Sessions and learning go through this — the query path never does. *)

val template : entry -> Gps_graph.Digraph.t * template
(** {!graph} together with the template slot of that very graph. A heap
    entry has one slot, as it has one graph that is never mutated; a
    reload installs a new entry and so a new slot. A file entry's slot
    belongs to its memoized materialization, so the first call after
    the overlay grew returns a fresh, empty one. *)

val add_edges :
  entry -> (string * string * string) list -> (Gps_graph.Disk_csr.delta, string) result
(** Append [(src, label, dst)] triples to a file entry's overlay.
    [Error] for heap entries (reload is their only mutation). *)
