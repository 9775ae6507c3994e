module Digraph = Gps_graph.Digraph
module Nfa = Gps_automata.Nfa

type t = {
  graph : Digraph.t;
  query : Rpq.t;
  m : int;                          (* automaton states *)
  mutable capacity : int;           (* nodes covered by [can_accept] *)
  mutable can_accept : bool array;  (* (v * m + q) -> accepting reachable *)
  fwd : (string, (int * int) list) Hashtbl.t;
      (* label -> automaton transitions on [label], fixed at creation *)
  bwd : (string, (int * int) list) Hashtbl.t;
      (* label -> automaton transitions on [label~] *)
}

let index_transitions nfa =
  let fwd = Hashtbl.create 16 and bwd = Hashtbl.create 16 in
  List.iter
    (fun (qs, sym, qd) ->
      let tbl = if Rpq.is_inverse sym then bwd else fwd in
      let label = Rpq.base_label sym in
      Hashtbl.replace tbl label ((qs, qd) :: Option.value ~default:[] (Hashtbl.find_opt tbl label)))
    (Nfa.transitions nfa);
  (fwd, bwd)

let transitions tbl label = Option.value ~default:[] (Hashtbl.find_opt tbl label)

(* Backward propagation from a set of freshly-true product states:
   (v, qs) precedes (v', q') through an in-edge v -l-> v' under [l], and
   through an out-edge v' -l-> v under [l~]. *)
let propagate t seeds =
  let queue = Queue.create () in
  List.iter (fun idx -> Queue.add idx queue) seeds;
  let two_way = Hashtbl.length t.bwd > 0 in
  while not (Queue.is_empty queue) do
    let idx = Queue.pop queue in
    let v' = idx / t.m and q' = idx mod t.m in
    let step tbl (lbl, v) =
      List.iter
        (fun (qs, qd) ->
          if qd = q' then begin
            let pidx = (v * t.m) + qs in
            if not t.can_accept.(pidx) then begin
              t.can_accept.(pidx) <- true;
              Queue.add pidx queue
            end
          end)
        (transitions tbl (Digraph.label_name t.graph lbl))
    in
    List.iter (step t.fwd) (Digraph.in_edges t.graph v');
    if two_way then List.iter (step t.bwd) (Digraph.out_edges t.graph v')
  done

(* Cover nodes up to [n]: every newly covered node starts with its
   accepting states marked, so a node is answered correctly from the
   moment it exists, not from the first edge that touches it. *)
let ensure_capacity t n =
  if n > t.capacity then begin
    let grown = Array.make (n * t.m) false in
    Array.blit t.can_accept 0 grown 0 (t.capacity * t.m);
    let seeds = ref [] in
    for v = t.capacity to n - 1 do
      List.iter
        (fun qf ->
          let idx = (v * t.m) + qf in
          grown.(idx) <- true;
          seeds := idx :: !seeds)
        (Nfa.finals (Rpq.nfa t.query))
    done;
    t.can_accept <- grown;
    t.capacity <- n;
    propagate t !seeds
  end

let create g q =
  let nfa = Rpq.nfa q in
  let fwd, bwd = index_transitions nfa in
  let t = { graph = g; query = q; m = Nfa.n_states nfa; capacity = 0; can_accept = [||]; fwd; bwd } in
  if t.m > 0 then ensure_capacity t (Digraph.n_nodes g);
  t

let add_edge t ~src ~label ~dst =
  if t.m > 0 then begin
    ensure_capacity t (Digraph.n_nodes t.graph);
    (* a new graph edge src -label-> dst enables, for every automaton
       transition qs -label-> qd, the product edge (src,qs) -> (dst,qd),
       and for every qs -label~-> qd, the product edge (dst,qs) ->
       (src,qd); the tail becomes accepting-reachable if the head
       already is. *)
    let enable tbl ~tail ~head =
      List.filter_map
        (fun (qs, qd) ->
          let idx = (tail * t.m) + qs in
          if t.can_accept.((head * t.m) + qd) && not t.can_accept.(idx) then begin
            t.can_accept.(idx) <- true;
            Some idx
          end
          else None)
        (transitions tbl label)
    in
    let seeds = enable t.fwd ~tail:src ~head:dst @ enable t.bwd ~tail:dst ~head:src in
    if seeds <> [] then propagate t seeds
  end

let selected t v =
  let nfa = Rpq.nfa t.query in
  if v < t.capacity then List.exists (fun q0 -> t.can_accept.((v * t.m) + q0)) (Nfa.starts nfa)
  else
    (* no edge has touched the node yet: only the empty word can select it *)
    List.exists (Nfa.is_final nfa) (Nfa.starts nfa)

let select t = Array.init (Digraph.n_nodes t.graph) (fun v -> selected t v)

let count t =
  let c = ref 0 in
  for v = 0 to Digraph.n_nodes t.graph - 1 do
    if selected t v then incr c
  done;
  !c

let agrees_with_scratch t = select t = Eval.select t.graph t.query
