module Digraph = Gps_graph.Digraph
module Regex = Gps_regex.Regex

let known g sym = Digraph.label_of_name g (Rpq.base_label sym) <> None

let dead_symbols g q =
  List.filter (fun sym -> not (known g sym)) (Regex.alphabet (Rpq.regex q))

let specialize_known ~known q =
  let have sym = known (Rpq.base_label sym) in
  let rec go (r : Regex.t) =
    match r with
    | Empty | Epsilon -> r
    | Sym s -> if have s then r else Regex.empty
    | Alt rs -> Regex.alt (List.map go rs)
    | Seq rs -> Regex.seq (List.map go rs)
    | Star body -> Regex.star (go body)
  in
  let specialized = go (Rpq.regex q) in
  if Regex.equal specialized (Rpq.regex q) then q else Rpq.of_regex specialized

let specialize g q =
  specialize_known ~known:(fun base -> Digraph.label_of_name g base <> None) q

let base_alphabet q =
  List.sort_uniq String.compare (List.map Rpq.base_label (Regex.alphabet (Rpq.regex q)))
