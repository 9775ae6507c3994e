(** The query-result cache.

    RPQ evaluation is the service's unit of work, and non-expert users
    overwhelmingly re-run the same handful of queries on the same shared
    graphs — exactly the shape an LRU cache amortizes. Entries are keyed
    by the {e normalized} query string (parse → graph-specialize →
    re-print, so [(tram+bus)*.cinema] and [(bus+tram)*.cinema] share one
    entry; see {!Gps_query.Rewrite.specialize}) crossed with the graph
    name {e and version}: a reload bumps the catalog version, so stale
    results can never be served even before {!invalidate} reclaims them.

    {2 Label-aware delta invalidation}

    Overlay ingest on a file-backed graph does not bump the version —
    it would evict the whole graph's working set on every small batch.
    Instead each entry remembers the query's base-label alphabet
    ({!Gps_query.Rewrite.base_alphabet}) and whether its language is
    nullable. A batch of new edges can only change an answer if the
    query mentions one of the batch's labels — or, when the batch
    interns {e new nodes}, if the query matches ε (every node selects
    itself, so new nodes join the answer of any nullable query).
    {!invalidate_delta} drops exactly those entries; disjoint-label
    results stay warm. This is sound because graphs only grow (no edge
    deletion anywhere in the system) and the query algebra has no
    negation: adding edges of labels a query never mentions cannot
    create or destroy any path the query can read.

    A result computed on an overlay snapshot must not be inserted after
    a delta that postdates the snapshot has already run its
    invalidation: nothing would ever drop it. Each graph therefore has
    a delta {!generation}, bumped by every {!invalidate_delta}, and
    remembers the last generation that touched each label and the last
    that added nodes. An evaluation reads the generation before taking
    its snapshot and inserts through {!add_at}, which refuses exactly
    the entries that a later delta would have dropped.

    The cache is polymorphic in what it stores. The server stores each
    answer as its encoded JSON node array
    ({!Protocol.Names.t}), so a hit hands back bytes that go into the
    response as they are.

    Thread-safe (one internal mutex). Lookups and insertions are O(1)
    amortized except eviction, which scans for the least recently used
    entry — capacities are small (hundreds), and the scan keeps the
    structure simple enough to hold no lock during evaluation. A
    [capacity] of 0 disables caching (every lookup misses, nothing is
    stored), which the benchmark harness uses as its cold-cache
    baseline. *)

type key = { graph : string; version : int; query : string }

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  invalidations : int;  (** entries dropped by {!invalidate} *)
  delta_invalidations : int;  (** entries dropped by {!invalidate_delta} *)
  size : int;
  capacity : int;
}

type 'v t

val create : ?capacity:int -> unit -> 'v t
(** Default capacity 256. *)

val find : 'v t -> key -> 'v option
(** Counts a hit or a miss, and refreshes the entry's recency. *)

val add : 'v t -> ?labels:string list -> ?nullable:bool -> key -> 'v -> unit
(** Insert, evicting the least recently used entry when full. Replaces
    any existing value under the same key. [labels] is the query's
    sorted base alphabet and [nullable] whether it matches ε — the
    facts {!invalidate_delta} filters on. Omitted (the conservative
    default), the entry is treated as touched by {e every} delta. *)

val generation : 'v t -> graph:string -> int
(** The graph's delta generation: how many {!invalidate_delta} calls
    have run on it. Read it before snapshotting the graph. *)

val add_at :
  'v t -> generation:int -> ?labels:string list -> ?nullable:bool -> key -> 'v -> bool
(** {!add} for a value computed on a snapshot taken after {!generation}
    returned [generation]. Refuses, storing nothing and returning
    [false], when an {!invalidate_delta} on [key.graph] has run since
    that would have dropped the entry: its labels meet the delta's, or
    the delta added nodes and the entry is nullable, or the entry's
    labels are unknown. The value may predate that delta; an entry no
    later delta touches is stored. *)

val invalidate : 'v t -> graph:string -> int
(** Drop every entry of the named graph (any version); returns how many
    were dropped. Called on reload so superseded snapshots release their
    memory promptly. *)

val invalidate_delta : 'v t -> graph:string -> labels:string list -> new_nodes:int -> int
(** Drop the named graph's entries that a delta with these (sorted)
    labels can affect: label sets intersect, or [new_nodes > 0] and the
    entry's query is nullable. Returns how many were dropped. *)

val stats : 'v t -> stats
