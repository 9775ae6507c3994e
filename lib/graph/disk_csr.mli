(** Out-of-core graphs: an mmap-backed binary CSR store with an in-heap
    delta overlay.

    {!Csr} is the one read-only adjacency layout; this module takes it
    to disk. A packed graph is a single binary file (magic
    ["GPSCSR01"], fixed word-cell header, {!Csr}'s offset and
    packed-edge cell sections, then name/label string blobs) that the
    server maps read-only with [Unix.map_file] — loading a million-node
    graph costs one [mmap], not a parse, and the kernel pages only the
    adjacency it actually touches. The file's base {e is} a {!Csr.t}
    over the mapping ({!base}), so query evaluation reads mapped and
    heap-frozen graphs through the same code.

    {2 File format (version 1)}

    All word cells are 8-byte native ints written on a little-endian
    host. Layout, in order:

    - cells 0–7: header — magic ["GPSCSR01"] (as one word), format
      version, n_nodes, n_edges, n_labels, label-blob bytes, name-blob
      bytes, reserved 0;
    - [out_off]: n_nodes+1 word cells of out-edge offsets;
    - [in_off]: n_nodes+1 word cells of in-edge offsets;
    - [out_cells]: n_edges packed cells [(label lsl 40) lor target];
    - [in_cells]: n_edges packed cells [(label lsl 40) lor source];
    - [label_off]: n_labels+1 byte offsets into the label blob;
    - [name_off]: n_nodes+1 byte offsets into the name blob;
    - label blob, then name blob (raw UTF-8 bytes), zero-padded to a
      word boundary.

    The packed-cell split ({!Csr.max_nodes}, {!Csr.max_labels}) caps
    graphs at 2{^40}-1 nodes and 2{^22} labels — far above anything the
    rest of the system handles. The magic word doubles as an endianness
    probe: if the bytes spell the magic but the word read differs, the
    file was written on a foreign byte order.

    {2 Delta overlay}

    A mapped file is immutable; streamed ingest ([{"op":"add_edges"}])
    lands in an immutable in-heap overlay swapped atomically, so readers
    take a lock-free {!snapshot} while one writer at a time extends it.
    The overlay holds each node's extra edges as {!Csr}-style packed
    cells, plus an append-only log of every overlay edge in insertion
    order (two ints per edge), shared by all snapshots: a log position
    is an overlay edge count, and a view at position [p] holds the first
    [p] logged edges. New node and label names intern past the base ids.
    Edge set semantics match {!Digraph}: re-adding a triple (base or
    overlay) is a no-op, found by scanning the source's base and overlay
    cells.

    The first write sorts the base node ids by their mapped name bytes
    (in place, no per-name string) into one permutation that every later
    snapshot carries: writers look names up by binary search in it, and
    {!selected_names} walks it instead of sorting. A file that is never
    written never builds it.

    {2 Live evaluations}

    Each mapped graph also keeps a small table of live evaluations —
    product-membership bits keyed by an automaton, with the node count
    and log position they are closed over — so that an evaluation can
    continue from the edges logged since instead of starting over.
    This module only stores the bits; {!Gps_query.Eval} owns what they
    mean. *)

(** {1 Opening} *)

type open_error =
  | No_such_file of string
  | Not_regular of string
  | Bad_magic
  | Bad_endianness
  | Bad_version of int  (** the version the file declares *)
  | Truncated of { expected : int; actual : int }  (** byte sizes *)
  | Corrupted of string  (** header/offset invariant broken *)

val pp_open_error : Format.formatter -> open_error -> unit
val open_error_to_string : open_error -> string

type t
(** A mapped base file plus its mutable overlay. Thread-safe: any number
    of readers via {!snapshot}, writers serialized internally. *)

val open_map : string -> (t, open_error) result
(** Map the packed file at the path read-only ([MAP_PRIVATE]); the base
    is validated (magic, version, size, offset endpoints) before any
    adjacency is trusted. The overlay starts empty. *)

val path : t -> string

(** {1 Base-file facts (overlay excluded)} *)

val base_nodes : t -> int
val base_edges : t -> int
val base_labels : t -> int
val file_bytes : t -> int

(** {1 Integrity}

    Files written since the durability work carry a 24-byte trailer past
    the payload: magic ["GPSCKSUM"], u64 LE payload length, u64 LE CRC32
    of the payload. {!open_map} records the trailer but does not sum a
    possibly-multi-GB mapping on every open; {!verify} does the full
    pass on demand. Pre-trailer files open fine and report
    {!No_trailer}. *)

type verify_result =
  | Verified of { crc : int; bytes : int }
  | No_trailer  (** packed before checksum trailers existed *)
  | Crc_mismatch of { stored : int; computed : int }

val verify : t -> verify_result
(** Recompute the payload CRC32 and compare with the trailer. Reads
    every payload byte — O(file size). *)

val has_trailer : t -> bool

(** {1 Overlay mutation} *)

type delta = {
  added : int;  (** edges actually added (duplicates skipped) *)
  new_nodes : int;  (** node names interned by this batch *)
  labels : string list;  (** distinct labels of the added edges, sorted *)
}

val add_edges : t -> (string * string * string) list -> delta
(** [(src, label, dst)] triples by name; unknown names intern as new
    overlay nodes/labels. Returns the summary the cache needs for
    label-aware invalidation. *)

val overlay_edges : t -> int

(** {1 Snapshots} *)

type view
(** An immutable instant: the mapped base plus the overlay as of
    {!snapshot} time. Safe to evaluate against while writers proceed. *)

val snapshot : t -> view

val n_nodes : view -> int
val n_edges : view -> int
val n_labels : view -> int
val view_overlay_edges : view -> int
val overlay_is_empty : view -> bool

val node_name : view -> int -> string
val label_name : view -> int -> string
val label_of_name : view -> string -> int option

val overlay_iter_in : view -> int -> (int -> int -> unit) -> unit
val overlay_iter_out : view -> int -> (int -> int -> unit) -> unit
(** Iterate [(label, source)] over a node's overlay in-edges, or
    [(label, destination)] over its overlay out-edges. A node's whole
    adjacency is its {!base} cells (ids below the base's node count),
    then these. *)

val base : view -> Csr.t
(** The mapped base file's adjacency (overlay excluded), read in place.
    Equal, cell for cell, to [Csr.freeze] of the graph that was packed. *)

val iter_log : view -> from:int -> (int -> int -> int -> unit) -> unit
(** [iter_log v ~from f] calls [f src label dst] on the overlay edges at
    log positions [from] to [view_overlay_edges v - 1], in the order
    they were added. @raise Invalid_argument unless
    [0 <= from <= view_overlay_edges v]. *)

val selected_names : view -> bool array -> string list
(** The names of the nodes the selection marks, in [String.compare]
    order. A written graph walks its name permutation and merges in the
    overlay's names; a never-written one sorts the selected names.
    @raise Invalid_argument when the array's length is not {!n_nodes}. *)

(** {1 Live evaluations} *)

type live = {
  bits : Bitset.t;
  nodes : int;  (** the node count the bits are closed over *)
  at : int;  (** the log position they are closed over *)
  set : int;  (** how many bits are set *)
}

val take_live : view -> string -> live option
(** Remove and return the entry under the key, if it exists and is not
    newer than the view ([at <= view_overlay_edges v]). The caller holds
    it exclusively: a concurrent [take_live] on the key finds nothing.
    An entry newer than the view stays in the table. *)

val put_live : view -> string -> live -> unit
(** Record the entry under the key, most recently used first. Nothing is
    recorded from a view whose overlay is empty, over an entry newer
    than this one, or past the caps; the least recently put entries are
    evicted to keep the table within both. *)

val live_max_entries : int
val live_max_bytes : int
(** The table's fixed caps per mapped graph: 64 entries, 16 MiB of bits. *)

(** {1 Packing} *)

val pack_stream :
  path:string ->
  n_nodes:int ->
  n_edges:int ->
  node_name:(int -> string) ->
  labels:string array ->
  iter_edges:((src:int -> label:int -> dst:int -> unit) -> unit) ->
  unit
(** Write a packed file without materializing the graph in the heap:
    [iter_edges] is invoked exactly twice (degree count, then fill) and
    must replay the identical stream of exactly [n_edges] edges both
    times — recreate any PRNG from its seed per pass. {!Csr.fill} lays
    the edges out in the file through a shared write mapping; the only
    O(n) state is the file's own mapped pages. [label] is an index into
    [labels]; duplicate triples are kept as-is (packing a {!Digraph} never
    produces them, streamed generators may — selection semantics are
    unaffected).
    @raise Invalid_argument on out-of-range ids or a stream
    {!Csr.fill} rejects. *)

val pack_digraph : Digraph.t -> path:string -> unit
(** Pack a heap graph; node/label ids and adjacency are preserved
    exactly, so a reopened file evaluates identically to
    [Csr.freeze g]. *)

val to_digraph : view -> Digraph.t
(** Materialize (base + overlay) as a heap graph with identical node and
    label ids — the lazy path for endpoints that need full [Digraph]
    access (sessions, learning). *)
