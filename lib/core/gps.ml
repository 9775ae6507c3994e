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

let parse_query = Query.Rpq.of_string
let parse_query_exn = Query.Rpq.of_string_exn

let evaluate g q =
  List.sort compare (List.map (Graph.Digraph.node_name g) (Query.Eval.select_nodes g q))

let evaluate_str g s = Result.map (evaluate g) (parse_query s)

let evaluate_all_of g queries =
  List.sort compare
    (List.map (Graph.Digraph.node_name g)
       (Query.Conjunctive.select_nodes g (Query.Conjunctive.all_of queries)))

let learn g ~pos ~neg =
  match Learning.Sample.of_names g ~pos ~neg with
  | exception Invalid_argument msg -> Error msg
  | sample -> (
      match Learning.Learner.learn g sample with
      | Learning.Learner.Learned q -> Ok q
      | Learning.Learner.Failed f ->
          Error (Format.asprintf "%a" (Learning.Learner.pp_failure g) f))

type outcome = {
  learned : Query.Rpq.t;
  questions : int;
  labels : int;
  zooms : int;
  validations : int;
  pruned : int;
  reached_goal : bool;
}

let specify_interactively ?(strategy = Interactive.Strategy.smart) ?config g ~goal =
  let user = Interactive.Oracle.perfect ~goal in
  let trace = Interactive.Simulate.run ?config g ~strategy ~user in
  let learned = trace.Interactive.Simulate.outcome.Interactive.Session.query in
  let counters = trace.Interactive.Simulate.counters in
  {
    learned;
    questions = trace.Interactive.Simulate.questions;
    labels = counters.Interactive.Session.labels;
    zooms = counters.Interactive.Session.zooms;
    validations = counters.Interactive.Session.validations;
    pruned = trace.Interactive.Simulate.pruned;
    reached_goal = Query.Eval.select g learned = Query.Eval.select g goal;
  }

let version = "1.0.0"
