(* Heavy cross-validation properties: each pits an optimized implementation
   against an independent brute-force oracle written here, in the dumbest
   possible style, so a shared bug is implausible. *)

open Gps_graph
module Rpq = Gps_query.Rpq
module Eval = Gps_query.Eval
module Incremental = Gps_query.Incremental
module Deriv = Gps_regex.Deriv

(* ------------------------------------------------------------------ *)
(* brute-force one-way selection: enumerate all walks up to a bound and
   test each word with derivatives *)

let brute_select g regex ~bound =
  let matches w = Deriv.matches regex w in
  Array.init (Digraph.n_nodes g) (fun v ->
      matches []
      || List.exists
           (fun word -> matches (Walks.word_names g word))
           (Walks.words g v ~max_len:bound))

(* brute-force two-way selection: BFS over (node, word) pairs where steps
   may follow out-edges (plain symbol) or in-edges (inverse symbol) *)
let brute_two_way g regex ~bound =
  let matches w = Deriv.matches regex w in
  let select v =
    (* enumerate two-way words breadth-first from v, dedup on (endpoint
       set is wrong for two-way; use plain (node, word) states, bounded) *)
    let seen = Hashtbl.create 64 in
    let q = Queue.create () in
    Queue.add (v, []) q;
    let found = ref false in
    while (not !found) && not (Queue.is_empty q) do
      let u, rev_word = Queue.pop q in
      let word = List.rev rev_word in
      if matches word then found := true
      else if List.length word < bound then begin
        List.iter
          (fun (lbl, d) ->
            let key = (d, Digraph.label_name g lbl :: rev_word) in
            if not (Hashtbl.mem seen key) then begin
              Hashtbl.add seen key ();
              Queue.add key q
            end)
          (Digraph.out_edges g u);
        List.iter
          (fun (lbl, s) ->
            let key = (s, (Digraph.label_name g lbl ^ "~") :: rev_word) in
            if not (Hashtbl.mem seen key) then begin
              Hashtbl.add seen key ();
              Queue.add key q
            end)
          (Digraph.in_edges g u)
      end
    done;
    !found
  in
  Array.init (Digraph.n_nodes g) select

(* star-free regexes over {a,b,a~,b~}: bounded enumeration is complete *)
let gen_starfree_twoway =
  QCheck.Gen.(
    let sym = oneofl [ "a"; "b"; "a~"; "b~" ] in
    fix
      (fun self n ->
        if n <= 1 then map Gps_regex.Regex.sym sym
        else
          frequency
            [
              (3, map Gps_regex.Regex.sym sym);
              (2, map2 (fun a b -> Gps_regex.Regex.alt [ a; b ]) (self (n / 2)) (self (n / 2)));
              (3, map2 (fun a b -> Gps_regex.Regex.seq [ a; b ]) (self (n / 2)) (self (n / 2)));
            ])
      5)

let gen_starfree_oneway =
  QCheck.Gen.(
    let sym = oneofl [ "a"; "b" ] in
    fix
      (fun self n ->
        if n <= 1 then map Gps_regex.Regex.sym sym
        else
          frequency
            [
              (3, map Gps_regex.Regex.sym sym);
              (2, map2 (fun a b -> Gps_regex.Regex.alt [ a; b ]) (self (n / 2)) (self (n / 2)));
              (3, map2 (fun a b -> Gps_regex.Regex.seq [ a; b ]) (self (n / 2)) (self (n / 2)));
            ])
      6)

let arb_graph =
  QCheck.make
    QCheck.Gen.(
      let* n = int_range 2 8 in
      let* m = int_range 1 18 in
      let* seed = int_range 0 20_000 in
      return (Generators.uniform ~nodes:n ~edges:m ~labels:[ "a"; "b" ] ~seed))

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"two-way product agrees with brute-force two-way walker" ~count:250
      (pair arb_graph (make ~print:Gps_regex.Regex.to_string gen_starfree_twoway))
      (fun (g, r) ->
        let bound = Gps_regex.Regex.size r in
        Eval.select g (Rpq.of_regex r) = brute_two_way g r ~bound);
    Test.make ~name:"all four one-way evaluators agree with brute force" ~count:250
      (pair arb_graph (make ~print:Gps_regex.Regex.to_string gen_starfree_oneway))
      (fun (g, r) ->
        let q = Rpq.of_regex r in
        let bound = Gps_regex.Regex.size r in
        let reference = brute_select g r ~bound in
        let module Dfa = Gps_automata.Dfa in
        let via_dfa = Rpq.of_nfa (Dfa.to_nfa (Dfa.minimize (Dfa.determinize (Rpq.nfa q)))) in
        Eval.select g q = reference
        && Eval.select g via_dfa = reference
        && Result.map fst (Eval.run (Eval.Frozen (g, Csr.freeze g)) q) = Ok reference
        && Incremental.select (Incremental.create g q) = reference);
    Test.make ~name:"witness_lengths lower-bounds every accepted walk" ~count:200
      (pair arb_graph (make ~print:Gps_regex.Regex.to_string gen_starfree_oneway))
      (fun (g, r) ->
        let q = Rpq.of_regex r in
        let lens = Eval.witness_lengths g q in
        Digraph.fold_nodes
          (fun acc v ->
            acc
            &&
            match lens.(v) with
            | None -> true
            | Some l ->
                (* no accepted word among this node's walks is shorter *)
                List.for_all
                  (fun word ->
                    let w = Walks.word_names g word in
                    (not (Rpq.matches_word q w)) || List.length w >= l)
                  (Walks.words g v ~max_len:(max 0 (l - 1))))
          true g);
  ]

let suite = [ ("oracle.properties", List.map QCheck_alcotest.to_alcotest qcheck_tests) ]
