(** Frozen compressed-sparse-row graph snapshots: the one read-only
    adjacency layout, for heap and mapped graphs alike.

    {!Digraph} optimizes for incremental construction (hash-interned
    names, per-node edge lists). Query evaluation, which dominates the
    learner's inner loop, only needs fast iteration over out/in edges —
    this module freezes a graph into CSR form: per direction, [n+1]
    offsets and [m] packed cells [(label lsl 40) lor endpoint], one word
    per edge, all in int {!Bigarray}s. {!Disk_csr} files store exactly
    these four arrays, so a mapped file's base is a [t] over its
    mapping and the evaluation kernel scans both inline, through
    {!in_off}/{!in_cells} (and the out-arrays) and {!check_range}.

    A snapshot shares the original graph's node/label ids; it reflects the
    graph at freeze time and is immutable. It carries no names. *)

type int_arr = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type t

val freeze : Digraph.t -> t
(** {!fill} into fresh arrays from the graph's edges. *)

val fill :
  n_labels:int ->
  out_off:int_arr ->
  in_off:int_arr ->
  out_cells:int_arr ->
  in_cells:int_arr ->
  ((src:int -> label:int -> dst:int -> unit) -> unit) ->
  t
(** [fill ~n_labels ~out_off ~in_off ~out_cells ~in_cells iter_edges]
    lays out the edge stream in the given arrays (offsets of length
    [n+1], cells of length [m]) and returns the snapshot over them. The
    stream is invoked exactly twice (degree count, then placement with
    the offsets as cursors) and must replay the identical [m] edges both
    times; edges keep their stream order within each node.
    @raise Invalid_argument on out-of-range ids, a pass that is not [m]
    edges long, a second pass whose edges differ from the first's (an
    order-independent hash of each pass's [(src, label, dst)] triples
    must agree), or sizes past the cell split's
    {!max_nodes}/{!max_labels}. *)

val of_arrays :
  n_labels:int -> out_off:int_arr -> in_off:int_arr -> out_cells:int_arr -> in_cells:int_arr -> t
(** A snapshot over arrays already in this layout (a validated mapped
    file). @raise Invalid_argument when the array lengths disagree. *)

val max_nodes : int
val max_labels : int
(** The packed-cell split's capacity: 2{^40}-1 nodes, 2{^22} labels. *)

val n_nodes : t -> int
val n_edges : t -> int
val n_labels : t -> int

val iter_out : t -> Digraph.node -> (Digraph.label -> Digraph.node -> unit) -> unit
(** Iterate [(label, destination)] over the node's out-edges.
    @raise Invalid_argument on an out-of-range node. *)

val iter_in : t -> Digraph.node -> (Digraph.label -> Digraph.node -> unit) -> unit
(** Iterate [(label, source)] over the node's in-edges.
    @raise Invalid_argument on an out-of-range node. *)

(** {2 The raw layout}, for a loop that scans cells inline: node [v]'s
    cells are [off.{v}] to [off.{v+1} - 1]. Callers must not write. *)
val out_off : t -> int_arr
val in_off : t -> int_arr
val out_cells : t -> int_arr
val in_cells : t -> int_arr
val cell : Digraph.label -> Digraph.node -> int
(** The packed cell [(label lsl 40) lor node]. *)

val cell_label : int -> Digraph.label
val cell_node : int -> Digraph.node

val check_range : int_arr -> int -> int -> unit
(** [check_range cells lo hi] guards reads of [cells.{lo .. hi-1}].
    @raise Invalid_argument unless [0 <= lo] and [hi <= dim cells]. *)
