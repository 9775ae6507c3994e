module Digraph = Gps_graph.Digraph
module Csr = Gps_graph.Csr

type t = { var : string; atoms : (Rpq.t * t) list }

let leaf ?(var = "_") () = { var; atoms = [] }
let pattern ?(var = "x") atoms = { var; atoms }
let all_of ?var queries = pattern ?var (List.map (fun q -> (q, leaf ())) queries)

(* The kernel, seeded only at accepting states located on [targets]
   nodes. *)
let select_into g q ~targets =
  if Array.length targets <> Digraph.n_nodes g then
    invalid_arg "Conjunctive.select_into: targets size mismatch";
  fst (Result.get_ok (Eval.run ~targets (Eval.Frozen (g, Csr.freeze g)) q))

let rec select g p =
  let n = Digraph.n_nodes g in
  let result = Array.make n true in
  List.iter
    (fun (q, child) ->
      let child_match = select g child in
      let satisfied = select_into g q ~targets:child_match in
      for v = 0 to n - 1 do
        result.(v) <- result.(v) && satisfied.(v)
      done)
    p.atoms;
  result

let select_nodes g p =
  let sel = select g p in
  List.filter (fun v -> sel.(v)) (List.init (Array.length sel) Fun.id)

let count g p = List.length (select_nodes g p)

let rec pp ppf p =
  Format.fprintf ppf "%s" p.var;
  match p.atoms with
  | [] -> ()
  | atoms ->
      Format.fprintf ppf "(";
      List.iteri
        (fun i (q, child) ->
          if i > 0 then Format.fprintf ppf ", ";
          Format.fprintf ppf "%s -> %a" (Rpq.to_string q) pp child)
        atoms;
      Format.fprintf ppf ")"
