(** Conjunctive path queries — tree-shaped CRPQ patterns.

    Single RPQs express one requirement ("can reach a cinema by
    transport"); real questions often conjoin several ("… {e and} a park,
    {e and} sits one bus hop from a museum"). This module evaluates
    {e tree-shaped} conjunctive patterns over RPQ atoms: a pattern has a
    root variable and atoms [root -L(q)-> child-pattern]; a node matches
    iff for every atom some q-walk leads from it to a node matching the
    child. Tree shape keeps evaluation polynomial — one bottom-up pass,
    each step one {!Eval.run} seeded at the child's matches — while
    covering the acyclic CRPQs users actually write.

    The root is the selected variable, as in the paper's monadic
    semantics. *)

type t = {
  var : string;          (** display name for the variable, e.g. "x" *)
  atoms : (Rpq.t * t) list;
}

val leaf : ?var:string -> unit -> t
(** A pattern matched by every node (no constraints). *)

val pattern : ?var:string -> (Rpq.t * t) list -> t

val all_of : ?var:string -> Rpq.t list -> t
(** Conjunction of plain reachability atoms: the node must satisfy every
    query (each atom's target is unconstrained). *)

val select : Gps_graph.Digraph.t -> t -> bool array
(** [select g p].(v) iff [v] matches the pattern. *)

val select_nodes : Gps_graph.Digraph.t -> t -> Gps_graph.Digraph.node list
val count : Gps_graph.Digraph.t -> t -> int

val select_into : Gps_graph.Digraph.t -> Rpq.t -> targets:bool array -> bool array
(** One step of the pass, exposed for reuse: nodes with a q-walk ending
    at a node marked in [targets] ({!Eval.run} with [~targets]).
    [Eval.select] is the special case [targets = all true]. Raises
    [Invalid_argument] unless [targets] has one entry per node. *)

val pp : Format.formatter -> t -> unit
(** [x(q1 -> y(...), q2 -> z)]. *)
