module Digraph = Gps_graph.Digraph
module Csr = Gps_graph.Csr

type t = {
  graph : Digraph.t;
  csr : Csr.t;  (* the graph as [create] found it *)
  added_in : (int, (int * int) list) Hashtbl.t;  (* node -> (label, source), edges added since *)
  added_out : (int, (int * int) list) Hashtbl.t;  (* node -> (label, destination) *)
  edges : Eval.edges;  (* the two tables, as the kernel reads them *)
  query : Rpq.t;
  mutable live : Eval.live;
}

let iter tbl v f =
  match Hashtbl.find_opt tbl v with None -> () | Some l -> List.iter (fun (lbl, w) -> f lbl w) l

let create g q =
  let csr = Csr.freeze g in
  let added_in = Hashtbl.create 16 and added_out = Hashtbl.create 16 in
  let edges = { Eval.iter_in = iter added_in; iter_out = iter added_out } in
  { graph = g; csr; added_in; added_out; edges; query = q; live = Eval.live g csr edges q }

let add_edge t ~src ~label ~dst =
  match Digraph.label_of_name t.graph label with
  | None -> invalid_arg "Incremental.add_edge: the graph has no such label"
  | Some lbl ->
      let add tbl v cell = Hashtbl.replace tbl v (cell :: Option.value (Hashtbl.find_opt tbl v) ~default:[]) in
      add t.added_in dst (lbl, src);
      add t.added_out src (lbl, dst);
      t.live <- Eval.resume t.live t.graph t.csr t.edges ~since:(fun f -> f src lbl dst)

let selected t v = Eval.live_selects t.live v
let select t = Array.init (Digraph.n_nodes t.graph) (fun v -> selected t v)

let count t =
  let c = ref 0 in
  for v = 0 to Digraph.n_nodes t.graph - 1 do
    if selected t v then incr c
  done;
  !c

let agrees_with_scratch t = select t = Eval.select t.graph t.query
