module Digraph = Gps_graph.Digraph
module Nfa = Gps_automata.Nfa

let graph_transitions g =
  List.rev
    (Digraph.fold_edges
       (fun acc e -> (e.Digraph.src, Digraph.label_name g e.Digraph.lbl, e.Digraph.dst) :: acc)
       [] g)

let of_nodes g nodes =
  let n = Digraph.n_nodes g in
  Nfa.trim
    (Nfa.make ~n_states:n ~starts:nodes ~finals:(List.init n Fun.id)
       ~trans:(graph_transitions g))

let of_node g v = of_nodes g [ v ]

let covers g nodes w =
  match nodes with
  | [] -> false
  | _ -> (
      match Gps_graph.Walks.word_of_names g w with
      | None -> false (* a label the graph does not even have *)
      | Some word ->
          let module Iset = Set.Make (Int) in
          let step frontier lbl =
            Iset.fold
              (fun u acc ->
                List.fold_left (fun acc d -> Iset.add d acc) acc (Digraph.succ_by_label g u lbl))
              frontier Iset.empty
          in
          not (Iset.is_empty (List.fold_left step (Iset.of_list nodes) word)))

let disjoint_from g v q = not (Eval.select g q).(v)
