module Digraph = Gps_graph.Digraph
module Nfa = Gps_automata.Nfa

let targets g q src =
  let nfa = Rpq.nfa q in
  let hit = Array.make (Digraph.n_nodes g) false in
  (* a goal that never holds: the search runs to exhaustion, marking
     every node it reaches in an accepting state *)
  ignore
    (Witness.search g q src ~goal:(fun y qs ->
         if Nfa.is_final nfa qs then hit.(y) <- true;
         false));
  List.filter (fun y -> hit.(y)) (Digraph.nodes g)

let select_pairs g q =
  List.concat_map (fun x -> List.map (fun y -> (x, y)) (targets g q x)) (Digraph.nodes g)

let count_pairs g q = List.length (select_pairs g q)

let witness g q ~src ~dst =
  let nfa = Rpq.nfa q in
  Witness.search g q src ~goal:(fun y qs -> y = dst && Nfa.is_final nfa qs)

let is_answer g q ~src ~dst = witness g q ~src ~dst <> None

let agree_with_monadic g q =
  let monadic = Eval.select g q in
  Digraph.fold_nodes (fun acc v -> acc && monadic.(v) = (targets g q v <> [])) true g
