(* Advanced features on the Transpole network: two-way queries, query
   specialization, session journals, batch statistics.

   Run with: dune exec examples/advanced.exe *)

module Digraph = Gps.Graph.Digraph
module Rpq = Gps.Query.Rpq
module Witness = Gps.Query.Witness
module Rewrite = Gps.Query.Rewrite
module Journal = Gps.Interactive.Journal
module Batch = Gps.Interactive.Batch
module Strategy = Gps.Interactive.Strategy
module Oracle = Gps.Interactive.Oracle
module Simulate = Gps.Interactive.Simulate

let section title = Printf.printf "\n=== %s ===\n" title

let () =
  let g = Gps.Graph.Datasets.transpole () in
  Printf.printf "Transpole network: %d stops/facilities, %d edges\n" (Digraph.n_nodes g)
    (Digraph.n_edges g);

  section "Two-way query: from a restaurant, back to its stop, then to a cinema";
  let q = Gps.parse_query_exn "restaurant~.(metro+tram+bus)*.cinema" in
  List.iter
    (fun name ->
      match Witness.find g q (Option.get (Digraph.node_of_name g name)) with
      | Some w -> Printf.printf "  %-18s %s\n" name (Format.asprintf "%a" (Witness.pp g) w)
      | None -> ())
    (Gps.evaluate g q);

  section "Query specialization: dropping labels this graph does not have";
  let wide = Gps.parse_query_exn "(metro+tram+monorail)*.cinema" in
  Printf.printf "original    : %s\n" (Rpq.to_string wide);
  Printf.printf "dead symbols: %s\n" (String.concat ", " (Rewrite.dead_symbols g wide));
  Printf.printf "specialized : %s\n" (Rpq.to_string (Rewrite.specialize g wide));

  section "Journaling: record a session, replay it bit-for-bit";
  let goal = Gps.parse_query_exn "(metro+tram+bus)*.museum" in
  let user, journal_of = Journal.recording (Oracle.perfect ~goal) in
  let t1 = Simulate.run g ~strategy:Strategy.smart ~user in
  let journal = journal_of () in
  Printf.printf "recorded %d answers; learned %s\n" (List.length journal)
    (Rpq.to_string t1.Simulate.outcome.Gps.Interactive.Session.query);
  let t2 = Simulate.run g ~strategy:Strategy.smart ~user:(Journal.replayer journal) in
  Printf.printf "replayed: same query learned: %b\n"
    (Rpq.to_string t2.Simulate.outcome.Gps.Interactive.Session.query
    = Rpq.to_string t1.Simulate.outcome.Gps.Interactive.Session.query);

  section "Batch statistics: random strategy across 10 seeds";
  let summary =
    Batch.over_seeds g
      ~strategy:(fun ~seed -> Strategy.random ~seed)
      ~goal
      ~seeds:(List.init 10 (fun i -> i + 1))
      ~metric:(fun r -> float_of_int r.Batch.questions)
  in
  Printf.printf "questions: %s\n" (Format.asprintf "%a" Batch.pp_summary summary);
  let smart = Batch.run_once g ~strategy:Strategy.smart ~goal in
  Printf.printf "smart strategy needs %d (labels %d, zooms %d, validations %d)\n"
    smart.Batch.questions smart.Batch.labels smart.Batch.zooms smart.Batch.validations
