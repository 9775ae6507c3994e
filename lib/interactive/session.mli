(** The GPS interactive scenario (the paper's Figure 2), as a pure state
    machine.

    The session repeatedly: picks an informative node with the strategy Υ,
    shows its neighborhood (zoomable), collects a +/− label, for positives
    collects the validated path of interest from the prefix tree, then
    propagates labels, prunes uninformative nodes, re-learns a hypothesis
    and proposes it. The loop ends when the user is satisfied, when no
    informative node remains, when the interaction budget runs out, or
    when the labeling turned out inconsistent.

    The machine is immutable and driven by typed answers, so front ends
    (terminal, simulated users, tests) all share it. *)

type config = {
  initial_radius : int;  (** neighborhood radius first shown; paper uses 2 *)
  bound : int;           (** path-length bound for informativeness/pruning *)
  learn_fuel : int;      (** witness-search fuel per learner run *)
  max_questions : int option;
      (** budget on user answers (labels + zooms + validations); a hard
          cap — the session finishes the moment it is reached, even
          mid-round *)
  prefer_suggestion : [ `Longest | `Shortest ];
      (** which candidate path the system highlights (the paper argues
          for [`Longest]; [`Shortest] is the benchmark ablation) *)
}

val default_config : config
(** radius 2, bound 4, fuel 100_000, no budget, longest-path
    suggestions. *)

type halt_reason =
  | Satisfied            (** the user accepted the proposed query *)
  | No_informative_nodes (** nothing left to ask — the hypothesis is final *)
  | Budget_exhausted
  | Inconsistent of Gps_learning.Learner.failure
  | Interrupted of Gps_obs.Deadline.reason
      (** the caller's deadline/cancel token fired during a re-learn; the
          outcome carries the last complete hypothesis *)

type outcome = { query : Gps_query.Rpq.t; reason : halt_reason }

type request =
  | Ask_label of View.neighborhood
      (** answer with {!answer_label} *)
  | Ask_path of View.path_tree
      (** answer with {!answer_path} *)
  | Propose of Gps_query.Rpq.t
      (** the current hypothesis; answer with {!accept} or {!refine} *)
  | Finished of outcome

type t

val start : ?config:config -> strategy:Strategy.t -> Gps_graph.Digraph.t -> t
(** Every state derived from this one shares one {!Informative.t} scorer
    (a {!fork} gets a copy), whose caches never change an answer (undo
    and replay stay exact); its tables are dropped when the session
    finishes. *)

val fork : t -> t
(** A copy of [t] with a copy of its scorer ({!Informative.copy}); every
    other part of a session is immutable. The fork and [t] then answer
    exactly as [t] alone would, and stepping one never changes the
    other. The strategy is shared: a strategy with state of its own
    ({!Strategy.random}'s generator) advances for every fork that picks
    a node, so fork such a session at most once. *)

val with_budget : t -> int option -> t
(** [with_budget t b] puts [t] under the budget [b] ([max_questions])
    and finishes it with [Budget_exhausted] if [b] is already spent.
    On a fork of [start ~config ~strategy g] (with no budget in
    [config]) it gives exactly [start ~config:{ config with max_questions
    = b } ~strategy g]: the first question does not depend on the
    budget, which only stops a session before it asks. *)

val request : t -> request

val answer_label : ?deadline:Gps_obs.Deadline.t -> t -> [ `Pos | `Neg | `Zoom ] -> t
(** @raise Invalid_argument if the pending request is not [Ask_label].
    [`Zoom] on an already-complete fragment is a no-op (re-issues the same
    view). [deadline] bounds the re-learn this answer may trigger; when it
    fires the session finishes with [Interrupted]. *)

val answer_path : ?deadline:Gps_obs.Deadline.t -> t -> string list -> t
(** @raise Invalid_argument if the pending request is not [Ask_path] or
    the word is not among the tree's candidates. [deadline] as in
    {!answer_label}. *)

val accept : t -> t
(** The user is satisfied with the proposed query; finishes the session.
    @raise Invalid_argument outside [Propose]. *)

val refine : t -> t
(** Keep going after a proposal. @raise Invalid_argument outside
    [Propose]. *)

(** {1 Introspection} *)

val graph : t -> Gps_graph.Digraph.t
val sample : t -> Gps_learning.Sample.t
val hypothesis : t -> Gps_query.Rpq.t option
val implied_pos : t -> Gps_graph.Digraph.node list
val implied_neg : t -> Gps_graph.Digraph.node list
(** The pruned set. *)

type counters = {
  labels : int;       (** +/− answers given *)
  zooms : int;
  validations : int;
  proposals : int;    (** hypotheses shown *)
  learner_runs : int;
}

val counters : t -> counters

val questions : t -> int
(** [labels + zooms + validations] — the paper's "number of interactions"
    measure. *)
