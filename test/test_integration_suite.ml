(* Cross-library integration tests: whole workflows that chain the store,
   codecs, sessions, journals, learners and evaluators together the way a
   downstream application would. *)

open Gps_graph
module Rpq = Gps_query.Rpq
module Eval = Gps_query.Eval
module Strategy = Gps_interactive.Strategy
module Oracle = Gps_interactive.Oracle
module Simulate = Gps_interactive.Simulate
module Session = Gps_interactive.Session
module Journal = Gps_interactive.Journal

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let with_temp_file f =
  let path = Filename.temp_file "gps_it" ".tmp" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

(* -------------------------------------------------------------------- *)

let test_store_session_journal_pipeline () =
  (* build a city through the durable store, crash-free reopen, run a
     recorded session, replay it on the reloaded graph: same learned
     query *)
  with_temp_file (fun store_path ->
      Sys.remove store_path;
      let s = Store.openfile store_path in
      let city = Generators.city (Generators.default_city ~districts:16) ~seed:12 in
      Digraph.iter_edges
        (fun e ->
          Store.link s
            (Digraph.node_name city e.Digraph.src)
            (Digraph.label_name city e.Digraph.lbl)
            (Digraph.node_name city e.Digraph.dst))
        city;
      Store.close s;
      let s2 = Store.openfile store_path in
      let g = Store.graph s2 in
      check_int "graph reloaded" (Digraph.n_edges city) (Digraph.n_edges g);
      let goal = Rpq.of_string_exn "(tram+bus)*.cinema" in
      let user, journal_of = Journal.recording (Oracle.perfect ~goal) in
      let t1 = Simulate.run g ~strategy:Strategy.smart ~user in
      let journal = journal_of () in
      let t2 = Simulate.run g ~strategy:Strategy.smart ~user:(Journal.replayer journal) in
      check "replay matches" true
        (Rpq.to_string t1.Simulate.outcome.Session.query
        = Rpq.to_string t2.Simulate.outcome.Session.query);
      Store.close s2)

let test_codec_conversion_chain () =
  (* edge-list -> graph -> JSON -> graph -> edge-list preserves the edge
     set (node ids are renumbered by first appearance, so compare the
     canonical sorted form, not raw text) *)
  let canonical g = List.sort compare (String.split_on_char '\n' (Codec.to_string g)) in
  let g0 = Generators.bio ~nodes:60 ~seed:21 in
  let g1 = Json.of_string (Json.to_string (Codec.of_string (Codec.to_string g0))) in
  Alcotest.(check (list string)) "same canonical edge set" (canonical g0) (canonical g1)

let test_learned_query_portability () =
  (* learn on one city, carry the query to another graph: specialize
     drops alien labels, evaluation answers without error *)
  let g1 = Generators.city (Generators.default_city ~districts:20) ~seed:31 in
  let goal = Rpq.of_string_exn "(tram+bus+metro)*.cinema" in
  let trace = Simulate.run g1 ~strategy:Strategy.smart ~user:(Oracle.perfect ~goal) in
  let learned = trace.Simulate.outcome.Session.query in
  let g2 = Datasets.transpole () in
  let ported = Gps_query.Rewrite.specialize g2 learned in
  check "evaluates on the new graph" true (Array.length (Eval.select g2 ported) > 0);
  check "selection identical to unspecialized" true
    (Eval.select g2 ported = Eval.select g2 learned)

let test_incremental_store_mirror () =
  (* stream edges into a store and an incremental evaluator in lockstep;
     after every few inserts the incremental answer matches scratch *)
  with_temp_file (fun store_path ->
      Sys.remove store_path;
      let s = Store.openfile store_path in
      let g = Store.graph s in
      let query = Rpq.of_string_exn "(a+b)*.c" in
      (* seed nodes so ids exist before incremental evaluation starts *)
      for i = 0 to 9 do
        ignore (Store.add_node s (Printf.sprintf "n%d" i))
      done;
      let inc = Gps_query.Incremental.create g query in
      let rng = Prng.create ~seed:5 in
      let ok = ref true in
      for step = 1 to 40 do
        let src = Printf.sprintf "n%d" (Prng.int rng 10) in
        let dst = Printf.sprintf "n%d" (Prng.int rng 10) in
        let label = Prng.pick rng [ "a"; "b"; "c" ] in
        let before = Digraph.n_edges g in
        Store.link s src label dst;
        if Digraph.n_edges g > before then begin
          let sv = Option.get (Digraph.node_of_name g src) in
          let dv = Option.get (Digraph.node_of_name g dst) in
          Gps_query.Incremental.add_edge inc ~src:sv ~label ~dst:dv
        end;
        if step mod 5 = 0 then ok := !ok && Gps_query.Incremental.agrees_with_scratch inc
      done;
      check "incremental tracked the store" true !ok;
      Store.close s)

let test_learned_displays_parse_back () =
  (* the printed form of every learned query re-parses to the same
     language — display, parser and simplifier agree end to end *)
  let g = Generators.city (Generators.default_city ~districts:16) ~seed:41 in
  List.iter
    (fun qs ->
      let goal = Rpq.of_string_exn qs in
      if Eval.count g goal > 0 then begin
        let trace = Simulate.run g ~strategy:Strategy.smart ~user:(Oracle.perfect ~goal) in
        let learned = trace.Simulate.outcome.Session.query in
        let printed = Rpq.to_string learned in
        match Rpq.of_string printed with
        | Ok reparsed -> check ("reparse " ^ printed) true (Rpq.equal_lang learned reparsed)
        | Error e -> Alcotest.failf "learned query %S does not parse: %s" printed e
      end)
    [ "cinema"; "bus.cinema"; "(tram+bus)*.cinema"; "metro*.park" ]

let test_full_pipeline_everywhere () =
  (* the headline scenario works on every dataset family *)
  let cases =
    [
      ("figure1", Datasets.figure1 (), "(tram+bus)*.cinema");
      ("transpole", Datasets.transpole (), "(metro+tram+bus)*.museum");
      ("city", Generators.city (Generators.default_city ~districts:24) ~seed:51, "tram*.restaurant");
      ("bio", Generators.bio ~nodes:90 ~seed:52, "interacts*.treats");
      ("grid", Generators.grid ~rows:4 ~cols:4, "east.south");
      ("tree", Generators.full_tree ~depth:3 ~branching:2 ~labels:[ "l"; "r" ], "l.r");
    ]
  in
  List.iter
    (fun (name, g, qs) ->
      let goal = Rpq.of_string_exn qs in
      if Eval.count g goal > 0 then begin
        let o = Gps.specify_interactively g ~goal in
        check (name ^ " reaches the goal") true o.Gps.reached_goal;
        check (name ^ " beats labeling everything") true
          (o.Gps.labels <= Digraph.n_nodes g)
      end)
    cases

let test_conjunctive_over_learned_queries () =
  (* learn two queries interactively, then conjoin them *)
  let g = Generators.city (Generators.default_city ~districts:24) ~seed:61 in
  let learn qs =
    let goal = Rpq.of_string_exn qs in
    (Simulate.run g ~strategy:Strategy.smart ~user:(Oracle.perfect ~goal)).Simulate.outcome
      .Session.query
  in
  let q1 = learn "(tram+bus)*.cinema" and q2 = learn "(tram+bus)*.restaurant" in
  let conj = Gps_query.Conjunctive.select g (Gps_query.Conjunctive.all_of [ q1; q2 ]) in
  let s1 = Eval.select g q1 and s2 = Eval.select g q2 in
  Digraph.iter_nodes (fun v -> check "conjunction" true (conj.(v) = (s1.(v) && s2.(v)))) g

let test_csr_and_reach_on_stored_graph () =
  with_temp_file (fun store_path ->
      Sys.remove store_path;
      let s = Store.openfile store_path in
      Store.link s "a" "x" "b";
      Store.link s "b" "x" "c";
      Store.compact s;
      Store.link s "c" "y" "d";
      Store.close s;
      let s2 = Store.openfile store_path in
      let g = Store.graph s2 in
      let csr = Csr.freeze g in
      let idx = Reach.build g in
      let q = Rpq.of_string_exn "x.x.y" in
      check "frozen eval" true
        (Result.map fst (Eval.run (Eval.Frozen (g, csr)) q) = Ok (Eval.select g q));
      check "reach across compaction" true
        (Reach.reachable idx
           (Option.get (Digraph.node_of_name g "a"))
           (Option.get (Digraph.node_of_name g "d")));
      Store.close s2)


let test_transcript_record_render () =
  let g = Datasets.figure1 () in
  let goal = Rpq.of_string_exn "(tram+bus)*.cinema" in
  let transcript =
    Gps_interactive.Transcript.record g ~strategy:Strategy.smart
      ~user:(Oracle.perfect ~goal)
  in
  (match Gps_interactive.Transcript.outcome transcript with
  | Some o -> check "reaches the goal set" true (Eval.select g o.Session.query = Eval.select g goal)
  | None -> Alcotest.fail "transcript must end with Halted");
  let rendered = Gps_interactive.Transcript.render g transcript in
  check "narrates the zoom" true
    (String.length rendered > 0
    &&
    let contains needle =
      let nl = String.length needle and hl = String.length rendered in
      let rec go i = i + nl <= hl && (String.sub rendered i nl = needle || go (i + 1)) in
      go 0
    in
    contains "zoom out" && contains "HALT" && contains "validates");
  (* the transcript's question count matches a Simulate run *)
  let trace = Simulate.run g ~strategy:Strategy.smart ~user:(Oracle.perfect ~goal) in
  let asks =
    List.length
      (List.filter
         (function
           | Gps_interactive.Transcript.Shown _ | Gps_interactive.Transcript.Validated _ -> true
           | Gps_interactive.Transcript.Proposed _ | Gps_interactive.Transcript.Halted _ -> false)
         transcript)
  in
  check_int "same question count as Simulate" trace.Simulate.questions asks

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  [
    ( "integration.workflows",
      [
        t "store -> session -> journal -> replay" test_store_session_journal_pipeline;
        t "codec conversion chain" test_codec_conversion_chain;
        t "learned query portability" test_learned_query_portability;
        t "incremental mirrors the store" test_incremental_store_mirror;
        t "learned displays parse back" test_learned_displays_parse_back;
        t "full pipeline on every dataset family" test_full_pipeline_everywhere;
        t "conjunction of learned queries" test_conjunctive_over_learned_queries;
        t "csr + reach on a compacted store" test_csr_and_reach_on_stored_graph;
        t "transcript record/render" test_transcript_record_render;
      ] );
  ]
