(** GPS — interactive path query specification on graph databases.

    One-stop API over the full system. The sub-libraries remain available
    for fine-grained use:

    - {!Graph} ([gps.graph]) — the graph-database substrate;
    - {!Regex} / {!Automata} — expressions and automata;
    - {!Query} — RPQ evaluation;
    - {!Learning} — the witness-search + state-merging learner;
    - {!Interactive} — the session engine, strategies, simulated users;
    - {!Viz} — terminal/DOT renderings of the interaction views;
    - {!Server} — the multi-session query/specification service (JSON
      protocol, graph catalog, result cache, session manager, metrics,
      stdio/TCP frontends);
    - {!Obs} — cross-cutting observability: the monotonic clock, work
      counters/gauges, structured trace spans and their sinks, and
      trace summaries;
    - {!Workload} — PathForge-style workload generation (the AQ1–AQ28
      abstract taxonomy, seeded label/anchor instantiation, named JSONL
      mixes) and the open-loop load-storm driver that replays a mix
      against a live server at a target RPS.

    Typical use, mirroring the paper's running example:
    {[
      let g = Gps.Graph.Datasets.figure1 () in
      let goal = Gps.parse_query_exn "(tram+bus)*.cinema" in
      let trace = Gps.specify_interactively g ~goal in
      assert (Gps.Query.Rpq.equal_lang trace.Gps.learned goal)
    ]} *)

module Graph = Gps_graph
module Regex = Gps_regex
module Automata = Gps_automata
module Query = Gps_query
module Learning = Gps_learning
module Interactive = Gps_interactive
module Viz = Gps_viz
module Server = Gps_server
module Obs = Gps_obs
module Workload = Gps_workload

(** {1 Queries} *)

val parse_query : string -> (Query.Rpq.t, string) result
val parse_query_exn : string -> Query.Rpq.t

val evaluate : Graph.Digraph.t -> Query.Rpq.t -> string list
(** Names of the selected nodes, sorted. Symbols with a trailing [~]
    traverse edges backwards (two-way RPQs): on Figure 1, [cinema~]
    selects C1 and C2. *)

val evaluate_str : Graph.Digraph.t -> string -> (string list, string) result
(** Parse-and-evaluate convenience. *)

val evaluate_all_of : Graph.Digraph.t -> Query.Rpq.t list -> string list
(** Conjunction: the nodes selected by {e every} query of the list. *)

(** {1 Learning from a fixed sample (static scenario)} *)

val learn :
  Graph.Digraph.t ->
  pos:string list ->
  neg:string list ->
  (Query.Rpq.t, string) result
(** Learn a query consistent with the named examples, or explain why none
    exists. *)

(** {1 Interactive specification (the paper's core scenario)} *)

type outcome = {
  learned : Query.Rpq.t;
  questions : int;      (** user answers: labels + zooms + validations *)
  labels : int;
  zooms : int;
  validations : int;
  pruned : int;         (** nodes pruned as uninformative *)
  reached_goal : bool;  (** learned query selects exactly the goal's nodes *)
}

val specify_interactively :
  ?strategy:Interactive.Strategy.t ->
  ?config:Interactive.Session.config ->
  Graph.Digraph.t ->
  goal:Query.Rpq.t ->
  outcome
(** Simulate a full GPS session against a perfect user whose intended
    query is [goal]. Defaults: the paper's smart strategy and default
    session configuration. *)

val version : string
