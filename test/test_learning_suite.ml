(* Tests for gps_learning: witness search, RPNI generalization with the
   semantic oracle, the end-to-end learner on the paper's running example,
   and the static-labeling consistency checker. *)

open Gps_graph
open Gps_learning
module Rpq = Gps_query.Rpq
module Eval = Gps_query.Eval

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let node g n = Option.get (Digraph.node_of_name g n)
let fig1 = Datasets.figure1

(* -------------------------------------------------------------------- *)
(* Sample *)

let test_sample_basic () =
  let g = fig1 () in
  let s = Sample.of_names g ~pos:[ "N2"; "N6" ] ~neg:[ "N5" ] in
  check "is_pos" true (Sample.is_pos s (node g "N2"));
  check "is_neg" true (Sample.is_neg s (node g "N5"));
  check "is_labeled" true (Sample.is_labeled s (node g "N6"));
  check "unlabeled" false (Sample.is_labeled s (node g "N3"));
  check_int "size" 3 (Sample.size s);
  check_int "pos count" 2 (List.length (Sample.pos s))

let test_sample_contradiction () =
  let g = fig1 () in
  let s = Sample.add_pos Sample.empty (node g "N2") in
  Alcotest.check_raises "relabeling positive as negative"
    (Invalid_argument (Printf.sprintf "Sample.add_neg: node %d is already positive" (node g "N2")))
    (fun () -> ignore (Sample.add_neg s (node g "N2")))

let test_sample_validate () =
  let g = fig1 () in
  let s = Sample.of_names g ~pos:[ "N2" ] ~neg:[] in
  let s = Sample.validate s (node g "N2") [ "bus"; "bus"; "cinema" ] in
  check "validated stored" true
    (Sample.validated s (node g "N2") = Some [ "bus"; "bus"; "cinema" ]);
  check "missing" true (Sample.validated s (node g "N6") = None);
  Alcotest.check_raises "validate non-positive"
    (Invalid_argument (Printf.sprintf "Sample.validate: node %d is not positive" (node g "N5")))
    (fun () -> ignore (Sample.validate s (node g "N5") [ "tram" ]))

let test_sample_idempotent_relabel () =
  let g = fig1 () in
  let s = Sample.of_names g ~pos:[ "N2" ] ~neg:[] in
  let s = Sample.add_pos s (node g "N2") in
  check_int "no duplicates" 1 (Sample.size s)

(* -------------------------------------------------------------------- *)
(* Witness_search *)

let test_witness_search_found () =
  let g = fig1 () in
  match Witness_search.search g (node g "N6") ~negatives:[ node g "N5" ] with
  | Witness_search.Found w ->
      (* shortest path of N6 not covered by N5: N5 has {eps, tram, restaurant,
         tram.restaurant}; N6's words of length 1 are bus, cinema; both
         uncovered, bfs order -> first by label-name enumeration *)
      check_int "length 1" 1 (List.length w);
      check "uncovered" false (Gps_query.Pathlang.covers g [ node g "N5" ] w)
  | _ -> Alcotest.fail "expected Found"

let test_witness_search_shortest () =
  let g = fig1 () in
  (* N2 vs negative N1: N1 covers tram, bus (via N1->N4? no: N1's paths are
     tram, bus, tram.cinema, bus.cinema...). Sanity: search returns some
     uncovered word, and no shorter uncovered word exists. *)
  let negatives = [ node g "N1" ] in
  match Witness_search.search g (node g "N2") ~negatives with
  | Witness_search.Found w ->
      let len = List.length w in
      check "uncovered" false (Gps_query.Pathlang.covers g negatives w);
      let module W = Gps_graph.Walks in
      let shorter =
        W.words g (node g "N2") ~max_len:(len - 1)
        |> List.map (W.word_names g)
        |> List.filter (fun w' -> not (Gps_query.Pathlang.covers g negatives w'))
      in
      check "no shorter uncovered word" true (shorter = [])
  | _ -> Alcotest.fail "expected Found"

let test_witness_search_uninformative () =
  let g = fig1 () in
  (* C1 has no outgoing edges: only path is eps, covered by any negative *)
  (match Witness_search.search g (node g "C1") ~negatives:[ node g "N5" ] with
  | Witness_search.Uninformative -> ()
  | _ -> Alcotest.fail "sink node must be uninformative");
  (* R2 likewise *)
  match Witness_search.search g (node g "R2") ~negatives:[ node g "N3" ] with
  | Witness_search.Uninformative -> ()
  | _ -> Alcotest.fail "R2 vs N3"

let test_witness_search_no_negatives () =
  let g = fig1 () in
  match Witness_search.search g (node g "N2") ~negatives:[] with
  | Witness_search.Found [] -> ()
  | _ -> Alcotest.fail "epsilon is uncovered when there are no negatives"

let test_witness_search_subsumed_node () =
  (* v's path language strictly inside the negative's: uninformative *)
  let g = Codec.of_edges [ ("n", "a", "x"); ("n", "b", "y"); ("v", "a", "z") ] in
  match Witness_search.search g (node g "v") ~negatives:[ node g "n" ] with
  | Witness_search.Uninformative -> ()
  | _ -> Alcotest.fail "subsumed node must be uninformative"

let test_witness_search_cycles_terminate () =
  (* both v and the negative sit on cycles: the pair space is finite and
     the search must terminate (here: uninformative, languages equal) *)
  let g = Codec.of_edges [ ("v", "a", "v"); ("n", "a", "n") ] in
  match Witness_search.search g (node g "v") ~negatives:[ node g "n" ] with
  | Witness_search.Uninformative -> ()
  | _ -> Alcotest.fail "equal cyclic languages: uninformative"

let test_witness_search_cycle_found () =
  (* v loops on a, negative has only a finite 'a' chain: a.a.a escapes *)
  let g = Codec.of_edges [ ("v", "a", "v"); ("n", "a", "m"); ("m", "a", "o") ] in
  match Witness_search.search g (node g "v") ~negatives:[ node g "n" ] with
  | Witness_search.Found w -> check_int "needs length 3" 3 (List.length w)
  | _ -> Alcotest.fail "expected Found"

let test_witness_search_fuel () =
  let g = Generators.uniform ~nodes:30 ~edges:120 ~labels:[ "a"; "b" ] ~seed:1 in
  match Witness_search.search g ~fuel:1 0 ~negatives:[ 1 ] with
  | Witness_search.Timeout -> ()
  | Witness_search.Found _ -> () (* found before fuel ran out (start pair may already qualify) *)
  | Witness_search.Uninformative -> Alcotest.fail "cannot decide uninformative with fuel 1"

let test_witness_search_dedup () =
  (* a and b lead from v to the same three nodes, listed in different
     orders, so the two frontiers are built by different insertion
     sequences; with v its own negative, both words reach the same pair
     (X, X). The pair is expanded once: the initial pair plus (X, X). *)
  let g =
    Codec.of_edges
      [
        ("v", "a", "x1"); ("v", "a", "x2"); ("v", "a", "x3");
        ("v", "b", "x2"); ("v", "b", "x1"); ("v", "b", "x3");
      ]
  in
  let expansions = Gps_obs.Counter.make "witness.expansions" in
  let before = Gps_obs.Counter.value expansions in
  (match Witness_search.search g (node g "v") ~negatives:[ node g "v" ] with
  | Witness_search.Uninformative -> ()
  | _ -> Alcotest.fail "a node is uninformative against itself");
  check_int "each distinct pair expanded once" 2 (Gps_obs.Counter.value expansions - before)

let test_witness_search_max_len () =
  (* with max_len shorter than the only escape, bounded search reports
     uninformative — the paper's bounded-strategy behaviour *)
  let g = Codec.of_edges [ ("v", "a", "v"); ("n", "a", "m"); ("m", "a", "o") ] in
  match Witness_search.search g ~max_len:2 (node g "v") ~negatives:[ node g "n" ] with
  | Witness_search.Uninformative -> ()
  | _ -> Alcotest.fail "bounded search should give up"

(* The number of distinct non-empty words of length at most [max_len]
   spelled by walks from [v] and by no walk from a negative, by listing
   the words one at a time: the reference the interactive scorer's
   memoized count is checked against. Pair states are keyed by the word,
   not the pair: distinct words with equal pairs count separately. *)
let count_uncovered g v ~negatives ~max_len =
  let module Iset = Set.Make (Int) in
  let step frontier lbl =
    Iset.fold
      (fun u acc ->
        List.fold_left (fun acc d -> Iset.add d acc) acc (Digraph.succ_by_label g u lbl))
      frontier Iset.empty
  in
  let out_labels frontier =
    Iset.fold
      (fun u acc -> List.fold_left (fun acc (l, _) -> Iset.add l acc) acc (Digraph.out_edges g u))
      frontier Iset.empty
  in
  let q = Queue.create () in
  Queue.add (Iset.singleton v, Iset.of_list negatives, 0) q;
  let count = ref 0 in
  while not (Queue.is_empty q) do
    let sv, sn, len = Queue.pop q in
    if len > 0 && Iset.is_empty sn then incr count;
    if len < max_len then
      Iset.iter
        (fun lbl ->
          let sv' = step sv lbl in
          if not (Iset.is_empty sv') then Queue.add (sv', step sn lbl, len + 1) q)
        (out_labels sv)
  done;
  !count

let test_count_uncovered () =
  let g = fig1 () in
  (* N5's uncovered path count vs negative N3: N3 covers {restaurant};
     N5's words: tram, restaurant, tram.restaurant -> uncovered: tram,
     tram.restaurant *)
  check_int "count" 2 (count_uncovered g (node g "N5") ~negatives:[ node g "N3" ] ~max_len:3);
  (* all covered for a sink node *)
  check_int "sink" 0 (count_uncovered g (node g "C1") ~negatives:[ node g "N5" ] ~max_len:3)

(* -------------------------------------------------------------------- *)
(* Rpni *)

let accepts_all nfa words = List.for_all (fun w -> Gps_automata.Nfa.accepts nfa w) words

let test_rpni_no_negatives_collapses () =
  (* with a trivially true oracle everything merges into one state:
     the universal-ish language over seen symbols *)
  let pta = Gps_automata.Pta.build [ [ "a"; "b" ]; [ "b" ] ] in
  let nfa = Rpni.generalize pta ~consistent:(fun _ -> true) in
  check "accepts samples" true (accepts_all nfa [ [ "a"; "b" ]; [ "b" ] ]);
  check_int "collapsed to one state" 1 (Gps_automata.Nfa.n_states nfa)

let test_rpni_oracle_blocks () =
  (* oracle: must not accept the word [a] — keeps hypothesis away from
     full collapse *)
  let pta = Gps_automata.Pta.build [ [ "a"; "a" ] ] in
  let ok nfa = not (Gps_automata.Nfa.accepts nfa [ "a" ]) in
  let nfa = Rpni.generalize pta ~consistent:ok in
  check "still accepts a.a" true (Gps_automata.Nfa.accepts nfa [ "a"; "a" ]);
  check "never accepts a" false (Gps_automata.Nfa.accepts nfa [ "a" ]);
  check "merge attempts counted" true (Rpni.merge_count () > 0)

let test_rpni_inconsistent_pta () =
  let pta = Gps_automata.Pta.build [ [ "a" ] ] in
  Alcotest.check_raises "oracle rejects PTA"
    (Invalid_argument "Rpni.generalize: the sample itself is inconsistent (a witness word is covered)")
    (fun () -> ignore (Rpni.generalize pta ~consistent:(fun _ -> false)))

let test_rpni_star_generalization () =
  (* the classic: {a, aa, aaa} with "no b" oracle collapses to a+ or a* *)
  let pta = Gps_automata.Pta.build [ [ "a" ]; [ "a"; "a" ]; [ "a"; "a"; "a" ] ] in
  let ok nfa = not (Gps_automata.Nfa.accepts nfa [ "b" ]) in
  let nfa = Rpni.generalize pta ~consistent:ok in
  check "generalizes to unbounded repetition" true
    (Gps_automata.Nfa.accepts nfa [ "a"; "a"; "a"; "a"; "a" ])

(* -------------------------------------------------------------------- *)
(* Learner: the paper's running example *)

let paper_sample ?(validate = true) g =
  let s = Sample.of_names g ~pos:[ "N2"; "N6" ] ~neg:[ "N5" ] in
  if validate then
    let s = Sample.validate s (node g "N2") [ "bus"; "tram"; "cinema" ] in
    Sample.validate s (node g "N6") [ "cinema" ]
  else s

let test_learner_paper_example () =
  (* Section 2: from +N2 +N6 -N5 with validated paths bus.tram.cinema and
     cinema, the learner constructs a query equivalent to
     (tram+bus)*.cinema *)
  let g = fig1 () in
  let q = Learner.learn_exn g (paper_sample g) in
  let goal = Rpq.of_string_exn "(tram+bus)*.cinema" in
  check "learned the goal query" true (Rpq.equal_lang q goal);
  Alcotest.(check (list string))
    "selects the paper's nodes" Datasets.figure1_expected
    (List.sort compare (List.map (Digraph.node_name g) (Eval.select_nodes g q)))

let test_learner_without_validation_is_weaker () =
  (* Section 3: without path validation the learner still returns a
     consistent query, but it is `bus`, not the goal *)
  let g = fig1 () in
  let q = Learner.learn_exn g (paper_sample ~validate:false g) in
  check "consistent with the labels" true
    (Eval.consistent g q ~pos:[ node g "N2"; node g "N6" ] ~neg:[ node g "N5" ]);
  check "but not the goal query" false
    (Rpq.equal_lang q (Rpq.of_string_exn "(tram+bus)*.cinema"))

let test_learner_empty_sample () =
  let g = fig1 () in
  let q = Learner.learn_exn g Sample.empty in
  check_int "empty query selects nothing" 0 (Eval.count g q)

let test_learner_only_negatives () =
  let g = fig1 () in
  let s = Sample.of_names g ~pos:[] ~neg:[ "N5"; "N3" ] in
  let q = Learner.learn_exn g s in
  check "selects no negative" true
    (Eval.consistent g q ~pos:[] ~neg:[ node g "N5"; node g "N3" ])

let test_learner_conflict () =
  (* C1 (a sink) positive + any negative: every path of C1 (just ε) is
     covered -> no consistent query *)
  let g = fig1 () in
  let s = Sample.of_names g ~pos:[ "C1" ] ~neg:[ "N5" ] in
  match Learner.learn g s with
  | Learner.Failed (Learner.Conflicting_node v) ->
      Alcotest.(check string) "conflicting node" "C1" (Digraph.node_name g v)
  | _ -> Alcotest.fail "expected Conflicting_node"

let test_learner_covered_witness () =
  let g = fig1 () in
  let s = Sample.of_names g ~pos:[ "N2" ] ~neg:[ "N5" ] in
  (* user validates `bus.restaurant`? that is a path of N2 (bus to N3,
     restaurant to R2) — but suppose she picked a path that N5 covers:
     N5 covers tram.restaurant; N2 has no tram, so use a negative that
     covers bus: N6 covers bus (N6 -bus-> N3). *)
  let s = Sample.add_neg s (node g "N6") in
  let s = Sample.validate s (node g "N2") [ "bus" ] in
  match Learner.learn g s with
  | Learner.Failed (Learner.Covered_witness (v, w)) ->
      Alcotest.(check string) "node" "N2" (Digraph.node_name g v);
      Alcotest.(check (list string)) "word" [ "bus" ] w
  | _ -> Alcotest.fail "expected Covered_witness"

let test_learner_consistency_always () =
  (* whatever it learns is consistent with the sample, across datasets *)
  let g = Generators.city (Generators.default_city ~districts:16) ~seed:3 in
  let goal = Rpq.of_string_exn "(tram+bus)*.cinema" in
  let sel = Eval.select g goal in
  (* label three positives and three negatives according to the goal *)
  let nodes = Digraph.nodes g in
  let pos = List.filteri (fun i _ -> i < 3) (List.filter (fun v -> sel.(v)) nodes) in
  let neg = List.filteri (fun i _ -> i < 3) (List.filter (fun v -> not sel.(v)) nodes) in
  let s = List.fold_left Sample.add_pos Sample.empty pos in
  let s = List.fold_left Sample.add_neg s neg in
  let q = Learner.learn_exn g s in
  check "consistent" true (Eval.consistent g q ~pos ~neg)

(* -------------------------------------------------------------------- *)
(* Static *)

let test_static_consistent () =
  let g = fig1 () in
  let s = Sample.of_names g ~pos:[ "N2"; "N6" ] ~neg:[ "N5" ] in
  check "paper labels consistent" true (Static.check g s = Static.Consistent)

let test_static_conflict () =
  let g = fig1 () in
  let s = Sample.of_names g ~pos:[ "C1"; "N2" ] ~neg:[ "N5" ] in
  (match Static.check g s with
  | Static.Conflict v -> Alcotest.(check string) "conflict node" "C1" (Digraph.node_name g v)
  | _ -> Alcotest.fail "expected conflict");
  Alcotest.(check (list string))
    "conflicts lists all" [ "C1" ]
    (List.map (Digraph.node_name g) (Static.conflicts g s))

(* -------------------------------------------------------------------- *)
(* Properties *)

let qcheck_tests =
  let open QCheck in
  let arb_setup =
    make
      Gen.(
        let* seed = int_range 0 5_000 in
        let* n = int_range 8 20 in
        let* m = int_range 10 40 in
        return (Generators.uniform ~nodes:n ~edges:m ~labels:[ "a"; "b"; "c" ] ~seed, seed))
  in
  [
    Test.make ~name:"learned query is always consistent with its sample" ~count:100 arb_setup
      (fun (g, seed) ->
        let rng = Prng.create ~seed in
        (* random labeling derived from a random goal query *)
        let goals = [ "a"; "a.b"; "(a+b)*.c"; "b*.a"; "c" ] in
        let goal = Rpq.of_string_exn (Prng.pick rng goals) in
        let sel = Gps_query.Eval.select g goal in
        let nodes = Prng.shuffle rng (Digraph.nodes g) in
        let pos = List.filteri (fun i _ -> i < 2) (List.filter (fun v -> sel.(v)) nodes) in
        let neg = List.filteri (fun i _ -> i < 2) (List.filter (fun v -> not sel.(v)) nodes) in
        let s = List.fold_left Sample.add_pos Sample.empty pos in
        let s = List.fold_left Sample.add_neg s neg in
        match Learner.learn g s with
        | Learner.Learned q -> Gps_query.Eval.consistent g q ~pos ~neg
        | Learner.Failed _ ->
            (* goal-derived labels are consistent by construction, so the
               only acceptable failure is a search timeout *)
            false);
    Test.make ~name:"witness search result is genuinely uncovered and a real path" ~count:100
      arb_setup (fun (g, seed) ->
        let rng = Prng.create ~seed in
        let v = Prng.int rng (Digraph.n_nodes g) in
        let negs =
          List.filter (fun u -> u <> v)
            [ Prng.int rng (Digraph.n_nodes g); Prng.int rng (Digraph.n_nodes g) ]
        in
        match Witness_search.search g v ~negatives:negs with
        | Witness_search.Found w ->
            (not (Gps_query.Pathlang.covers g negs w))
            && (w = [] || Gps_query.Pathlang.covers g [ v ] w)
        | Witness_search.Uninformative ->
            (* verify on bounded enumeration: no uncovered word up to 4 *)
            let module W = Gps_graph.Walks in
            List.for_all
              (fun word -> Gps_query.Pathlang.covers g negs (W.word_names g word))
              (W.words g v ~max_len:4)
        | Witness_search.Timeout -> true);
    Test.make ~name:"rpni result accepts all its words" ~count:100
      (make Gen.(list_size (int_range 1 5) (list_size (int_bound 4) (oneofl [ "a"; "b" ]))))
      (fun words ->
        let pta = Gps_automata.Pta.build words in
        (* oracle: reject automata accepting the fresh symbol z *)
        let ok nfa = not (Gps_automata.Nfa.accepts nfa [ "z" ]) in
        let nfa = Rpni.generalize pta ~consistent:ok in
        accepts_all nfa words);
  ]

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  [
    ( "learning.sample",
      [
        t "basic" test_sample_basic;
        t "contradiction" test_sample_contradiction;
        t "validate" test_sample_validate;
        t "idempotent" test_sample_idempotent_relabel;
      ] );
    ( "learning.witness_search",
      [
        t "found" test_witness_search_found;
        t "shortest" test_witness_search_shortest;
        t "uninformative" test_witness_search_uninformative;
        t "no negatives" test_witness_search_no_negatives;
        t "subsumed" test_witness_search_subsumed_node;
        t "cycles terminate" test_witness_search_cycles_terminate;
        t "cycle found" test_witness_search_cycle_found;
        t "fuel" test_witness_search_fuel;
        t "max_len" test_witness_search_max_len;
        t "dedup" test_witness_search_dedup;
        t "count_uncovered" test_count_uncovered;
      ] );
    ( "learning.rpni",
      [
        t "collapse without oracle" test_rpni_no_negatives_collapses;
        t "oracle blocks merges" test_rpni_oracle_blocks;
        t "inconsistent pta" test_rpni_inconsistent_pta;
        t "star generalization" test_rpni_star_generalization;
      ] );
    ( "learning.learner",
      [
        t "paper example (Section 2)" test_learner_paper_example;
        t "without validation (Section 3)" test_learner_without_validation_is_weaker;
        t "empty sample" test_learner_empty_sample;
        t "only negatives" test_learner_only_negatives;
        t "conflict" test_learner_conflict;
        t "covered witness" test_learner_covered_witness;
        t "consistency on city graph" test_learner_consistency_always;
      ] );
    ("learning.static", [ t "consistent" test_static_consistent; t "conflict" test_static_conflict ]);
    ("learning.properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
  ]
