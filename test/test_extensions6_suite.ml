(* Tests for the sixth wave: witness lengths and incremental evaluation. *)

open Gps_graph
module Rpq = Gps_query.Rpq
module Eval = Gps_query.Eval
module Witness = Gps_query.Witness
module Incremental = Gps_query.Incremental

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let node g n = Option.get (Digraph.node_of_name g n)

(* -------------------------------------------------------------------- *)
(* witness_lengths *)

let test_witness_lengths_figure1 () =
  let g = Datasets.figure1 () in
  let q = Rpq.of_string_exn "(tram+bus)*.cinema" in
  let lens = Eval.witness_lengths g q in
  check "N4 has length 1" true (lens.(node g "N4") = Some 1);
  check "N1 has length 2" true (lens.(node g "N1") = Some 2);
  check "N2 has length 3" true (lens.(node g "N2") = Some 3);
  check "N5 unselected" true (lens.(node g "N5") = None)

let test_witness_lengths_epsilon () =
  let g = Datasets.figure1 () in
  let lens = Eval.witness_lengths g (Rpq.of_string_exn "bus*") in
  Digraph.iter_nodes (fun v -> check "all zero" true (lens.(v) = Some 0)) g

(* -------------------------------------------------------------------- *)
(* Incremental *)

let test_incremental_matches_initial () =
  let g = Datasets.figure1 () in
  let q = Rpq.of_string_exn "(tram+bus)*.cinema" in
  let inc = Incremental.create g q in
  check "initial agreement" true (Incremental.agrees_with_scratch inc);
  check_int "count" 4 (Incremental.count inc)

let test_incremental_edge_extends_selection () =
  let g = Datasets.figure1 () in
  let q = Rpq.of_string_exn "(tram+bus)*.cinema" in
  let inc = Incremental.create g q in
  check "N5 not selected yet" false (Incremental.selected inc (node g "N5"));
  (* give N5 a bus line to N4: now N5 -bus-> N4 -cinema-> C1 *)
  Digraph.add_edge g ~src:(node g "N5") ~label:"bus" ~dst:(node g "N4");
  Incremental.add_edge inc ~src:(node g "N5") ~label:"bus" ~dst:(node g "N4");
  check "N5 now selected" true (Incremental.selected inc (node g "N5"));
  check "still agrees with scratch" true (Incremental.agrees_with_scratch inc)

let test_incremental_irrelevant_label () =
  let g = Datasets.figure1 () in
  let q = Rpq.of_string_exn "cinema" in
  let inc = Incremental.create g q in
  let before = Incremental.select inc in
  Digraph.add_edge g ~src:(node g "N5") ~label:"restaurant" ~dst:(node g "R2");
  Incremental.add_edge inc ~src:(node g "N5") ~label:"restaurant" ~dst:(node g "R2");
  check "unchanged" true (Incremental.select inc = before);
  check "agrees" true (Incremental.agrees_with_scratch inc)

let test_incremental_new_nodes () =
  let g = Datasets.figure1 () in
  let q = Rpq.of_string_exn "(tram+bus)*.cinema" in
  let inc = Incremental.create g q in
  (* a brand-new district with a tram to N4 *)
  let n7 = Digraph.add_node g "N7" in
  Digraph.add_edge g ~src:n7 ~label:"tram" ~dst:(node g "N4");
  Incremental.add_edge inc ~src:n7 ~label:"tram" ~dst:(node g "N4");
  check "fresh node selected" true (Incremental.selected inc n7);
  check "agrees" true (Incremental.agrees_with_scratch inc)

let test_incremental_isolated_node () =
  (* a node no edge touches yet is selected by a nullable query, before
     and after an unrelated insertion *)
  let g = Datasets.figure1 () in
  let q = Rpq.of_string_exn "bus*" in
  let inc = Incremental.create g q in
  let x = Digraph.add_node g "X" in
  check "isolated node selected" true (Incremental.selected inc x);
  check "agrees" true (Incremental.agrees_with_scratch inc);
  Digraph.add_edge g ~src:(node g "N5") ~label:"restaurant" ~dst:(node g "R2");
  Incremental.add_edge inc ~src:(node g "N5") ~label:"restaurant" ~dst:(node g "R2");
  check "still selected" true (Incremental.selected inc x);
  check "still agrees" true (Incremental.agrees_with_scratch inc)

let test_incremental_two_way () =
  (* C2 <-cinema- N6 <-tram- N5 once the tram edge exists *)
  let g = Datasets.figure1 () in
  let q = Rpq.of_string_exn "cinema~.tram~" in
  let inc = Incremental.create g q in
  check_int "only C1" 1 (Incremental.count inc);
  check "C1" true (Incremental.selected inc (node g "C1"));
  Digraph.add_edge g ~src:(node g "N5") ~label:"tram" ~dst:(node g "N6");
  Incremental.add_edge inc ~src:(node g "N5") ~label:"tram" ~dst:(node g "N6");
  check "C2 now selected" true (Incremental.selected inc (node g "C2"));
  check "agrees" true (Incremental.agrees_with_scratch inc)

let test_incremental_chain_propagation () =
  (* adding one edge at the far end must flip a whole chain *)
  let g = Generators.chain ~length:5 ~label:"a" in
  let q = Rpq.of_string_exn "a*.win" in
  let inc = Incremental.create g q in
  check_int "nobody yet" 0 (Incremental.count inc);
  let tail = node g "c5" in
  let prize = Digraph.add_node g "prize" in
  Digraph.add_edge g ~src:tail ~label:"win" ~dst:prize;
  Incremental.add_edge inc ~src:tail ~label:"win" ~dst:prize;
  check_int "whole chain selected" 6 (Incremental.count inc);
  check "agrees" true (Incremental.agrees_with_scratch inc)

(* -------------------------------------------------------------------- *)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"witness_lengths agree with Witness.find" ~count:200
      (make
         Gen.(
           let* n = int_range 2 10 in
           let* m = int_range 1 25 in
           let* seed = int_range 0 9_999 in
           return (Generators.uniform ~nodes:n ~edges:m ~labels:[ "a"; "b" ] ~seed)))
      (fun g ->
        let q = Rpq.of_string_exn "a.(a+b)*.b" in
        let lens = Eval.witness_lengths g q in
        Digraph.fold_nodes
          (fun acc v ->
            acc
            &&
            match (lens.(v), Witness.find g q v) with
            | Some l, Some w -> l = List.length w.Witness.word
            | None, None -> true
            | Some _, None | None, Some _ -> false)
          true g);
    Test.make ~name:"incremental stays correct through random insertions" ~count:100
      (make
         Gen.(
           let* seed = int_range 0 9_999 in
           let* extra = int_range 1 15 in
           return (seed, extra)))
      (fun (seed, extra) ->
        let g = Generators.uniform ~nodes:8 ~edges:10 ~labels:[ "a"; "b" ] ~seed in
        let q = Rpq.of_string_exn "(a+b)*.a.a" in
        let inc = Incremental.create g q in
        let rng = Prng.create ~seed in
        let ok = ref (Incremental.agrees_with_scratch inc) in
        for _ = 1 to extra do
          let src = Prng.int rng (Digraph.n_nodes g) in
          let dst = Prng.int rng (Digraph.n_nodes g) in
          let label = Prng.pick rng [ "a"; "b" ] in
          Digraph.add_edge g ~src ~label ~dst;
          Incremental.add_edge inc ~src ~label ~dst;
          ok := !ok && Incremental.agrees_with_scratch inc
        done;
        !ok);
  ]

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  [
    ( "ext6.witness_lengths",
      [ t "figure1" test_witness_lengths_figure1; t "epsilon" test_witness_lengths_epsilon ] );
    ( "ext6.incremental",
      [
        t "initial" test_incremental_matches_initial;
        t "edge extends selection" test_incremental_edge_extends_selection;
        t "irrelevant label" test_incremental_irrelevant_label;
        t "new nodes" test_incremental_new_nodes;
        t "chain propagation" test_incremental_chain_propagation;
        t "isolated node, nullable query" test_incremental_isolated_node;
        t "two-way query" test_incremental_two_way;
      ] );
    ("ext6.properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
  ]
