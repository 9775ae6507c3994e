(* Tests for the seventh wave: conjunctive patterns and label repair. *)

open Gps_graph
module Rpq = Gps_query.Rpq
module Eval = Gps_query.Eval
module Conjunctive = Gps_query.Conjunctive
module Repair = Gps_learning.Repair
module Sample = Gps_learning.Sample
module Static = Gps_learning.Static

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let node g n = Option.get (Digraph.node_of_name g n)
let q = Rpq.of_string_exn

let names g sel = List.sort compare (List.map (Digraph.node_name g) sel)

(* -------------------------------------------------------------------- *)
(* Conjunctive *)

let test_conjunctive_leaf_matches_all () =
  let g = Datasets.figure1 () in
  check_int "leaf matches everything" (Digraph.n_nodes g)
    (Conjunctive.count g (Conjunctive.leaf ()))

let test_conjunctive_single_atom_is_eval () =
  let g = Datasets.figure1 () in
  let query = q "(tram+bus)*.cinema" in
  check "one atom = plain evaluation" true
    (Conjunctive.select g (Conjunctive.all_of [ query ]) = Eval.select g query)

let test_conjunctive_intersection () =
  (* transpole stops that reach BOTH a cinema and a park by transport *)
  let g = Datasets.transpole () in
  let transport = "(metro+tram+bus)*" in
  let p = Conjunctive.all_of [ q (transport ^ ".cinema"); q (transport ^ ".park") ] in
  let both = Conjunctive.select g p in
  let cinema_only = Eval.select g (q (transport ^ ".cinema")) in
  let park_only = Eval.select g (q (transport ^ ".park")) in
  Digraph.iter_nodes
    (fun v -> check "conjunction = intersection" true (both.(v) = (cinema_only.(v) && park_only.(v))))
    g

let test_conjunctive_nested_target () =
  (* figure1: nodes with a bus edge to somewhere that has a restaurant *)
  let g = Datasets.figure1 () in
  let p = Conjunctive.pattern [ (q "bus", Conjunctive.pattern [ (q "restaurant", Conjunctive.leaf ()) ]) ] in
  (* N2 -bus-> N3 -restaurant-> R2 and N6 -bus-> N3 *)
  Alcotest.(check (list string)) "nested" [ "N2"; "N6" ] (names g (Conjunctive.select_nodes g p))

let test_conjunctive_unsatisfiable () =
  let g = Datasets.figure1 () in
  let p = Conjunctive.all_of [ q "cinema"; q "restaurant" ] in
  (* no node has both a cinema and a restaurant edge *)
  check_int "empty" 0 (Conjunctive.count g p)

let test_conjunctive_select_into () =
  let g = Datasets.figure1 () in
  (* nodes with a (tram+bus)* walk ending exactly at N4 *)
  let targets = Array.make (Digraph.n_nodes g) false in
  targets.(node g "N4") <- true;
  let sel = Conjunctive.select_into g (q "(tram+bus)*") ~targets in
  check "N1 reaches N4" true sel.(node g "N1");
  check "N2 reaches N4" true sel.(node g "N2");
  check "N4 trivially (eps)" true sel.(node g "N4");
  check "N3 cannot" false sel.(node g "N3");
  Alcotest.check_raises "size mismatch"
    (Invalid_argument "Conjunctive.select_into: targets size mismatch") (fun () ->
      ignore (Conjunctive.select_into g (q "bus") ~targets:[| true |]))

let test_conjunctive_pp () =
  let p =
    Conjunctive.pattern ~var:"x"
      [ (q "bus", Conjunctive.leaf ~var:"y" ()); (q "tram", Conjunctive.leaf ~var:"z" ()) ]
  in
  Alcotest.(check string) "render" "x(bus -> y, tram -> z)"
    (Format.asprintf "%a" Conjunctive.pp p)

(* -------------------------------------------------------------------- *)
(* Repair *)

let test_repair_consistent_sample () =
  let g = Datasets.figure1 () in
  let s = Sample.of_names g ~pos:[ "N2"; "N6" ] ~neg:[ "N5" ] in
  check "no suggestions" true (Repair.suggest g s = [])

let test_repair_drop_positive () =
  (* +C1 (a sink) conflicts with any negative. Two repairs exist: drop the
     positive, or drop every negative (with none left, C1's ε path is
     uncovered). Both must be suggested and both must work. *)
  let g = Datasets.figure1 () in
  let s = Sample.of_names g ~pos:[ "C1"; "N2" ] ~neg:[ "N5" ] in
  match Repair.suggest g s with
  | [ Repair.Drop_positive v; Repair.Drop_negatives (v', negs) ] ->
      Alcotest.(check string) "the sink" "C1" (Digraph.node_name g v);
      Alcotest.(check string) "same node" "C1" (Digraph.node_name g v');
      Alcotest.(check (list string)) "withdraw N5" [ "N5" ]
        (List.map (Digraph.node_name g) negs);
      let repaired = Repair.apply s (Repair.Drop_positive v) in
      check "repaired is consistent" true (Static.check g repaired = Static.Consistent);
      check "other labels kept" true
        (Sample.is_pos repaired (node g "N2") && Sample.is_neg repaired (node g "N5"));
      let alt = Repair.apply s (Repair.Drop_negatives (v', negs)) in
      check "alternative also consistent" true (Static.check g alt = Static.Consistent)
  | other -> Alcotest.failf "unexpected suggestions (%d)" (List.length other)

let test_repair_drop_negative_alternative () =
  (* +R2's only path is eps... use a conflict where negatives are the
     culprit: v=N5 positive, negatives N3 and R1 cover all of N5's bounded
     paths? N5's paths: tram, restaurant, tram.restaurant. N3 covers
     restaurant (N3 -restaurant-> R2)?? N3's paths = {restaurant}; N5's
     word "tram" is covered by nobody unless a negative has tram. Use
     negative N1 (paths tram, bus, tram.cinema, bus.cinema...) and
     negative N3 (restaurant): together they cover tram, restaurant,
     and tram.restaurant? N1 has no tram.restaurant — but coverage is
     per-word: tram.restaurant must be a path of SOME negative. N1 covers
     tram.cinema not tram.restaurant. So craft a graph instead. *)
  let g =
    Codec.of_edges
      [ ("v", "a", "x"); ("n1", "a", "y"); ("n2", "b", "z") ]
  in
  let s = Sample.of_names g ~pos:[ "v" ] ~neg:[ "n1"; "n2" ] in
  (* v's only path "a" is covered by n1; dropping n1's label fixes it *)
  let suggestions = Repair.suggest g s in
  check "two suggestions" true (List.length suggestions = 2);
  let has_drop_neg =
    List.exists
      (function
        | Repair.Drop_negatives (v, negs) ->
            Digraph.node_name g v = "v"
            && List.map (Digraph.node_name g) negs = [ "n1" ]
        | Repair.Drop_positive _ -> false)
      suggestions
  in
  check "suggests dropping exactly n1" true has_drop_neg;
  let fix =
    List.find
      (function Repair.Drop_negatives _ -> true | Repair.Drop_positive _ -> false)
      suggestions
  in
  let repaired = Repair.apply s fix in
  check "consistent after repair" true (Static.check g repaired = Static.Consistent);
  check "n2 still negative" true (Sample.is_neg repaired (node g "n2"))

let test_repair_apply_preserves_validation () =
  let g = Datasets.figure1 () in
  let s = Sample.of_names g ~pos:[ "N2"; "C1" ] ~neg:[ "N5" ] in
  let s = Sample.validate s (node g "N2") [ "bus"; "bus"; "cinema" ] in
  let repaired = Repair.apply s (Repair.Drop_positive (node g "C1")) in
  check "validated path survives" true
    (Sample.validated repaired (node g "N2") = Some [ "bus"; "bus"; "cinema" ])

let test_repair_pp () =
  let g = Datasets.figure1 () in
  let out =
    Format.asprintf "%a" (Repair.pp_suggestion g) (Repair.Drop_positive (node g "C1"))
  in
  check "mentions node" true (String.length out > 0)

(* -------------------------------------------------------------------- *)

let qcheck_tests =
  let open QCheck in
  let arb_graph =
    make
      Gen.(
        let* n = int_range 3 10 in
        let* m = int_range 2 25 in
        let* seed = int_range 0 9_999 in
        return (Generators.uniform ~nodes:n ~edges:m ~labels:[ "a"; "b" ] ~seed))
  in
  [
    Test.make ~name:"conjunction of two atoms = intersection of selections" ~count:200 arb_graph
      (fun g ->
        let q1 = q "a.(a+b)*" and q2 = q "(a+b)*.b" in
        let conj = Conjunctive.select g (Conjunctive.all_of [ q1; q2 ]) in
        let s1 = Eval.select g q1 and s2 = Eval.select g q2 in
        Array.for_all Fun.id (Array.mapi (fun i c -> c = (s1.(i) && s2.(i))) conj));
    Test.make ~name:"repair suggestions restore consistency" ~count:100 arb_graph (fun g ->
        (* force conflicts: positives = two random nodes, negatives = two
           others; suggestions (if any) must each repair the sample *)
        let nodes = Digraph.nodes g in
        match nodes with
        | p1 :: p2 :: n1 :: n2 :: _ ->
            let s = Sample.add_pos (Sample.add_pos Sample.empty p1) p2 in
            let s = Sample.add_neg (Sample.add_neg s n1) n2 in
            List.for_all
              (fun sug ->
                (* a single suggestion fixes the node it targets; applying
                   all Drop_positive suggestions fixes everything *)
                match sug with
                | Repair.Drop_positive _ ->
                    let s' = Repair.apply s sug in
                    List.length (Static.conflicts g s') < List.length (Static.conflicts g s)
                | Repair.Drop_negatives (v, _) ->
                    let s' = Repair.apply s sug in
                    not (List.mem v (Static.conflicts g s')))
              (Repair.suggest g s)
        | _ -> true);
  ]

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  [
    ( "ext7.conjunctive",
      [
        t "leaf" test_conjunctive_leaf_matches_all;
        t "single atom" test_conjunctive_single_atom_is_eval;
        t "intersection" test_conjunctive_intersection;
        t "nested target" test_conjunctive_nested_target;
        t "unsatisfiable" test_conjunctive_unsatisfiable;
        t "select_into" test_conjunctive_select_into;
        t "pp" test_conjunctive_pp;
      ] );
    ( "ext7.repair",
      [
        t "consistent sample" test_repair_consistent_sample;
        t "drop positive" test_repair_drop_positive;
        t "drop negative alternative" test_repair_drop_negative_alternative;
        t "validation preserved" test_repair_apply_preserves_validation;
        t "pp" test_repair_pp;
      ] );
    ("ext7.properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
  ]
