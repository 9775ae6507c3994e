module Digraph = Gps_graph.Digraph
module Counter = Gps_obs.Counter
module Trace = Gps_obs.Trace

let c_pos = Counter.make "propagate.implied_pos"
let c_neg = Counter.make "propagate.implied_neg"

let implied_positives g ~word =
  Trace.with_span "propagate.positives" @@ fun sp ->
  let q = Gps_query.Rpq.of_regex (Gps_regex.Regex.word word) in
  let sel = Gps_query.Eval.select g q in
  let implied = List.filter (fun v -> sel.(v)) (Digraph.nodes g) in
  Counter.add c_pos (List.length implied);
  Trace.set_int sp "implied" (List.length implied);
  implied

let implied_negatives scorer ~negatives ~among =
  Trace.with_span "propagate.negatives" @@ fun sp ->
  let implied =
    List.filter (fun v -> not (Informative.is_informative scorer ~negatives v)) among
  in
  Counter.add c_neg (List.length implied);
  Trace.set_int sp "implied" (List.length implied);
  Trace.set_int sp "among" (List.length among);
  implied
