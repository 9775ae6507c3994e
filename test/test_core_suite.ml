(* Tests for the Gps umbrella API — the functions a downstream user calls
   first. *)

let check = Alcotest.(check bool)

let test_parse_query () =
  check "ok" true (Result.is_ok (Gps.parse_query "(tram+bus)*.cinema"));
  check "error" true (Result.is_error (Gps.parse_query "(("));
  match Gps.parse_query_exn "a.b" with
  | q -> check "size" true (Gps.Regex.Regex.size (Gps.Query.Rpq.regex q) > 1)

let test_evaluate () =
  let g = Gps.Graph.Datasets.figure1 () in
  Alcotest.(check (list string))
    "paper selection" [ "N1"; "N2"; "N4"; "N6" ]
    (Gps.evaluate g (Gps.parse_query_exn "(tram+bus)*.cinema"));
  match Gps.evaluate_str g "cinema" with
  | Ok sel -> Alcotest.(check (list string)) "direct" [ "N4"; "N6" ] sel
  | Error e -> Alcotest.fail e

let test_learn_api () =
  let g = Gps.Graph.Datasets.figure1 () in
  (match Gps.learn g ~pos:[ "N2"; "N6" ] ~neg:[ "N5" ] with
  | Ok q ->
      check "consistent" true
        (Gps.evaluate g q <> [] && not (List.mem "N5" (Gps.evaluate g q)))
  | Error e -> Alcotest.fail e);
  (* conflicting labels are reported, not raised *)
  (match Gps.learn g ~pos:[ "C1" ] ~neg:[ "N5" ] with
  | Ok _ -> Alcotest.fail "expected a conflict"
  | Error msg -> check "mentions the node" true (String.length msg > 0));
  (* unknown names are reported *)
  match Gps.learn g ~pos:[ "NOPE" ] ~neg:[] with
  | Ok _ -> Alcotest.fail "expected unknown-node error"
  | Error _ -> ()

let test_specify_interactively () =
  let g = Gps.Graph.Datasets.figure1 () in
  let goal = Gps.parse_query_exn "(tram+bus)*.cinema" in
  let o = Gps.specify_interactively g ~goal in
  check "reached goal" true o.Gps.reached_goal;
  check "questions = labels+zooms+validations" true
    (o.Gps.questions = o.Gps.labels + o.Gps.zooms + o.Gps.validations);
  check "learned selects the goal nodes" true
    (Gps.evaluate g o.Gps.learned = Gps.evaluate g goal)

let test_specify_with_strategy_and_config () =
  let g = Gps.Graph.Generators.city (Gps.Graph.Generators.default_city ~districts:12) ~seed:3 in
  let goal = Gps.parse_query_exn "bus.cinema" in
  let config =
    { Gps.Interactive.Session.default_config with
      Gps.Interactive.Session.max_questions = Some 4 }
  in
  let o =
    Gps.specify_interactively ~strategy:(Gps.Interactive.Strategy.random ~seed:1) ~config g ~goal
  in
  check "budget respected" true (o.Gps.questions <= 4)

let test_version () = check "semver-ish" true (String.length Gps.version >= 5)


let test_two_way_and_conjunction () =
  let g = Gps.Graph.Datasets.figure1 () in
  Alcotest.(check (list string)) "two-way inverse step" [ "C1"; "C2" ]
    (Gps.evaluate g (Gps.parse_query_exn "cinema~"));
  Alcotest.(check (list string)) "conjunction" [ "N1"; "N2"; "N6" ]
    (Gps.evaluate_all_of g
       [ Gps.parse_query_exn "bus"; Gps.parse_query_exn "(tram+bus)*.cinema" ])

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  [
    ( "core.api",
      [
        t "parse_query" test_parse_query;
        t "evaluate" test_evaluate;
        t "learn" test_learn_api;
        t "specify_interactively" test_specify_interactively;
        t "strategy and config" test_specify_with_strategy_and_config;
        t "version" test_version;
        t "two-way and conjunction" test_two_way_and_conjunction;
      ] );
  ]
