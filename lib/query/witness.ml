module Digraph = Gps_graph.Digraph
module Nfa = Gps_automata.Nfa

type t = { word : string list; walk : Digraph.node list }

(* The one forward product search. Out-edges are expanded in insertion
   order, then (only for queries with an inverse symbol) in-edges under
   [l~]; parent.(u*m+q) = (previous state, symbol) for the walk back. *)
let search g q src ~goal =
  let nfa = Rpq.nfa q in
  let m = Nfa.n_states nfa in
  if m = 0 then None
  else begin
    let n = Digraph.n_nodes g in
    let inverse_names =
      if List.exists (fun (_, sym, _) -> Rpq.is_inverse sym) (Nfa.transitions nfa) then
        Some (Array.init (Digraph.n_labels g) (fun lbl -> Rpq.inverse (Digraph.label_name g lbl)))
      else None
    in
    let visited = Array.make (n * m) false in
    let parent = Array.make (n * m) None in
    let queue = Queue.create () in
    let push idx parent_info =
      if not visited.(idx) then begin
        visited.(idx) <- true;
        parent.(idx) <- parent_info;
        Queue.add idx queue
      end
    in
    List.iter (fun q0 -> push ((src * m) + q0) None) (Nfa.starts nfa);
    let goal_idx = ref None in
    while !goal_idx = None && not (Queue.is_empty queue) do
      let idx = Queue.pop queue in
      let u = idx / m and qs = idx mod m in
      let step sym u' =
        List.iter (fun qd -> push ((u' * m) + qd) (Some (idx, sym))) (Nfa.delta_sym nfa qs sym)
      in
      if goal u qs then goal_idx := Some idx
      else begin
        List.iter (fun (lbl, u') -> step (Digraph.label_name g lbl) u') (Digraph.out_edges g u);
        Option.iter
          (fun names -> List.iter (fun (lbl, u') -> step names.(lbl) u') (Digraph.in_edges g u))
          inverse_names
      end
    done;
    let rec unroll idx word walk =
      let u = idx / m in
      match parent.(idx) with
      | None -> { word; walk = u :: walk }
      | Some (prev, sym) -> unroll prev (sym :: word) (u :: walk)
    in
    Option.map (fun idx -> unroll idx [] []) !goal_idx
  end

let find g q v =
  let nfa = Rpq.nfa q in
  search g q v ~goal:(fun _ qs -> Nfa.is_final nfa qs)

let find_all_selected g q =
  List.filter_map
    (fun v -> Option.map (fun w -> (v, w)) (find g q v))
    (Eval.select_nodes g q)

let pp g ppf t =
  match t.walk with
  | [] -> ()
  | first :: rest ->
      Format.pp_print_string ppf (Digraph.node_name g first);
      List.iter2
        (fun sym next ->
          let next = Digraph.node_name g next in
          if Rpq.is_inverse sym then Format.fprintf ppf " <-%s- %s" (Rpq.base_label sym) next
          else Format.fprintf ppf " -%s-> %s" sym next)
        t.word rest
