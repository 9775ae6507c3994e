(* Tests for the fourth wave: query rewriting, the batch runner, the
   hesitant oracle. *)

open Gps_graph
module Rpq = Gps_query.Rpq
module Eval = Gps_query.Eval
module Rewrite = Gps_query.Rewrite
module Strategy = Gps_interactive.Strategy
module Batch = Gps_interactive.Batch
module Oracle = Gps_interactive.Oracle
module Simulate = Gps_interactive.Simulate
module Session = Gps_interactive.Session

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let node g n = Option.get (Digraph.node_of_name g n)

(* -------------------------------------------------------------------- *)
(* Rewrite *)

let test_rewrite_dead_symbols () =
  let g = Datasets.figure1 () in
  let q = Rpq.of_string_exn "(tram+monorail)*.cinema" in
  Alcotest.(check (list string)) "monorail is dead" [ "monorail" ] (Rewrite.dead_symbols g q);
  let q' = Rewrite.specialize g q in
  Alcotest.(check string) "specialized" "tram*.cinema" (Rpq.to_string q');
  check "same selection" true (Eval.select g q = Eval.select g q')

let test_rewrite_noop () =
  let g = Datasets.figure1 () in
  let q = Rpq.of_string_exn "(tram+bus)*.cinema" in
  check "no dead symbols" true (Rewrite.dead_symbols g q = []);
  check "same query value" true (Rewrite.specialize g q == q)

let test_rewrite_collapses_to_empty () =
  let g = Datasets.figure1 () in
  let q = Rpq.of_string_exn "monorail.cablecar" in
  let q' = Rewrite.specialize g q in
  check "empty language" true (Gps_regex.Regex.is_empty_lang (Rpq.regex q'));
  check_int "selects nothing" 0 (Eval.count g q')

let test_rewrite_inverse_symbols () =
  let g = Datasets.figure1 () in
  let q = Rpq.of_string_exn "cinema~.tram" in
  check "inverse of known label is alive" true (Rewrite.dead_symbols g q = []);
  let q2 = Rpq.of_string_exn "monorail~.tram" in
  check "inverse of unknown label is dead" true (Rewrite.dead_symbols g q2 = [ "monorail~" ])

(* -------------------------------------------------------------------- *)
(* Batch *)

let test_batch_summarize () =
  let s = Batch.summarize [ 1.0; 2.0; 3.0; 4.0 ] in
  check_int "runs" 4 s.Batch.runs;
  check "mean" true (abs_float (s.Batch.mean -. 2.5) < 1e-9);
  check "min/max" true (s.Batch.min = 1.0 && s.Batch.max = 4.0);
  check "median" true (s.Batch.median = 3.0);
  check "stddev" true (abs_float (s.Batch.stddev -. sqrt 1.25) < 1e-9);
  Alcotest.check_raises "empty" (Invalid_argument "Batch.summarize: empty sample") (fun () ->
      ignore (Batch.summarize []))

let test_batch_run_once () =
  let g = Datasets.figure1 () in
  let goal = Rpq.of_string_exn "(tram+bus)*.cinema" in
  let r = Batch.run_once g ~strategy:Strategy.smart ~goal in
  check "reached" true r.Batch.reached_goal;
  check_int "questions decompose" r.Batch.questions
    (r.Batch.labels + r.Batch.zooms + r.Batch.validations)

let test_batch_over_seeds () =
  let g = Datasets.figure1 () in
  let goal = Rpq.of_string_exn "tram*.restaurant" in
  let s =
    Batch.over_seeds g
      ~strategy:(fun ~seed -> Strategy.random ~seed)
      ~goal ~seeds:[ 1; 2; 3; 4 ]
      ~metric:(fun r -> float_of_int r.Batch.questions)
  in
  check_int "four runs" 4 s.Batch.runs;
  check "positive mean" true (s.Batch.mean > 0.0);
  check "min <= median <= max" true (s.Batch.min <= s.Batch.median && s.Batch.median <= s.Batch.max)

(* -------------------------------------------------------------------- *)
(* hesitant oracle *)

let test_hesitant_zooms_more () =
  let g = Generators.city (Generators.default_city ~districts:16) ~seed:2 in
  let goal = Rpq.of_string_exn "(tram+bus)*.cinema" in
  let run user = Simulate.run g ~strategy:Strategy.smart ~user in
  let normal = run (Oracle.perfect ~goal) in
  let cautious = run (Oracle.hesitant ~goal ~extra_zooms:2) in
  check "more zooms" true
    (cautious.Simulate.counters.Session.zooms > normal.Simulate.counters.Session.zooms);
  check_int "same labels" normal.Simulate.counters.Session.labels
    cautious.Simulate.counters.Session.labels;
  check "still reaches the goal" true
    (Eval.select g cautious.Simulate.outcome.Session.query = Eval.select g goal)

(* -------------------------------------------------------------------- *)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"specialize preserves the selected node set" ~count:200
      (make
         Gen.(
           let* n = int_range 2 10 in
           let* m = int_range 1 25 in
           let* seed = int_range 0 9_999 in
           return (Generators.uniform ~nodes:n ~edges:m ~labels:[ "a"; "b" ] ~seed)))
      (fun g ->
        (* query over a wider alphabet than the graph's *)
        let q = Rpq.of_string_exn "(a+zz)*.(b+yy)" in
        Eval.select g q = Eval.select g (Rewrite.specialize g q));
  ]

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  [
    ( "ext4.rewrite",
      [
        t "dead symbols" test_rewrite_dead_symbols;
        t "noop" test_rewrite_noop;
        t "collapse to empty" test_rewrite_collapses_to_empty;
        t "inverse symbols" test_rewrite_inverse_symbols;
      ] );
    ( "ext4.batch",
      [
        t "summarize" test_batch_summarize;
        t "run_once" test_batch_run_once;
        t "over_seeds" test_batch_over_seeds;
      ] );
    ("ext4.oracle", [ t "hesitant" test_hesitant_zooms_more ]);
    ("ext4.properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
  ]
