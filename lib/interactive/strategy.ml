module Digraph = Gps_graph.Digraph
module Prng = Gps_graph.Prng

type context = {
  scorer : Informative.t;
  excluded : Digraph.node -> bool;
  negatives : Digraph.node list;
}

type t = { name : string; choose : context -> Digraph.node option }

let candidates ctx =
  List.filter
    (fun v ->
      (not (ctx.excluded v)) && Informative.is_informative ctx.scorer ~negatives:ctx.negatives v)
    (Digraph.nodes (Informative.graph ctx.scorer))

let random ~seed =
  let rng = Prng.create ~seed in
  {
    name = "random";
    choose =
      (fun ctx ->
        match candidates ctx with [] -> None | cs -> Some (Prng.pick rng cs));
  }

let best_by score = function
  | [] -> None
  | c :: cs ->
      let better (best, s) v =
        let sv = score v in
        if sv > s then (v, sv) else (best, s)
      in
      Some (fst (List.fold_left better (c, score c) cs))

let max_degree =
  {
    name = "degree";
    choose =
      (fun ctx ->
        best_by (fun v -> Digraph.out_degree (Informative.graph ctx.scorer) v) (candidates ctx));
  }

let smart =
  {
    name = "smart";
    choose =
      (fun ctx ->
        Informative.best ctx.scorer ~negatives:ctx.negatives ~excluded:ctx.excluded);
  }

let sequential =
  {
    name = "sequential";
    choose = (fun ctx -> match candidates ctx with [] -> None | c :: _ -> Some c);
  }

let by_name ~seed = function
  | "random" -> Ok (random ~seed)
  | "degree" -> Ok max_degree
  | "smart" -> Ok smart
  | "sequential" -> Ok sequential
  | other ->
      Error
        (Printf.sprintf "unknown strategy %S (expected random, degree, smart or sequential)"
           other)
