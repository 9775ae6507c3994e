module Digraph = Gps_graph.Digraph
module Walks = Gps_graph.Walks
module Sample = Gps_learning.Sample

type reason =
  | User_positive of string list option
  | User_negative
  | Implied_positive of string list
  | Pruned of string list * Digraph.node
  | Selected_by_hypothesis of string list
  | Unconstrained

let shared_validated_word g sample v =
  List.find_map
    (fun p ->
      match Sample.validated sample p with
      | Some w when Gps_query.Pathlang.covers g [ v ] w -> Some w
      | Some _ | None -> None)
    (Sample.pos sample)

let covering_example g negatives v =
  (* shortest path of v (bounded) plus one negative covering it *)
  let words = List.map (Walks.word_names g) (Walks.words g v ~max_len:4) in
  (* prefer a non-empty example; fall back to ε, which is a path of every
     node and is covered whenever a negative exists *)
  let candidates = words @ [ [] ] in
  List.find_map
    (fun w ->
      List.find_map
        (fun n -> if Gps_query.Pathlang.covers g [ n ] w then Some (w, n) else None)
        negatives)
    candidates

let explain session v =
  let g = Session.graph session in
  let sample = Session.sample session in
  if Sample.is_pos sample v then User_positive (Sample.validated sample v)
  else if Sample.is_neg sample v then User_negative
  else if List.mem v (Session.implied_pos session) then
    match shared_validated_word g sample v with
    | Some w -> Implied_positive w
    | None -> Unconstrained (* should not happen: implication came from a word *)
  else if List.mem v (Session.implied_neg session) then
    match covering_example g (Sample.neg sample) v with
    | Some (w, n) -> Pruned (w, n)
    | None -> Unconstrained
  else
    match Session.hypothesis session with
    | Some q when (Gps_query.Eval.select g q).(v) -> (
        match Gps_query.Witness.find g q v with
        | Some w -> Selected_by_hypothesis w.Gps_query.Witness.word
        | None -> Unconstrained)
    | Some _ | None -> Unconstrained

let pp_word ppf = function
  | [] -> Format.pp_print_string ppf "the empty path"
  | w -> Format.pp_print_string ppf (String.concat "." w)

let render g ppf = function
  | User_positive (Some w) ->
      Format.fprintf ppf "labeled positive; path of interest: %a" pp_word w
  | User_positive None -> Format.fprintf ppf "labeled positive"
  | User_negative -> Format.fprintf ppf "labeled negative"
  | Implied_positive w ->
      Format.fprintf ppf "implied positive: it also has the validated path %a" pp_word w
  | Pruned (w, n) ->
      Format.fprintf ppf
        "pruned as uninformative: e.g. its path %a is also a path of the negative node %s"
        pp_word w (Digraph.node_name g n)
  | Selected_by_hypothesis w ->
      Format.fprintf ppf "selected by the current query via %a" pp_word w
  | Unconstrained -> Format.fprintf ppf "no information yet"
