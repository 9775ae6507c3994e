(* Tests for the third wave of extensions: CSR snapshots, two-way RPQs
   (inverse symbols, evaluated by the one kernel), the word-level
   learner. *)

open Gps_graph
module Rpq = Gps_query.Rpq
module Eval = Gps_query.Eval
module Witness = Gps_query.Witness
module Word_learner = Gps_learning.Word_learner

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let node g n = Option.get (Digraph.node_of_name g n)

(* -------------------------------------------------------------------- *)
(* Csr *)

let degree iter csr v =
  let d = ref 0 in
  iter csr v (fun _ _ -> incr d);
  !d

let test_csr_shape () =
  let g = Datasets.figure1 () in
  let csr = Csr.freeze g in
  check_int "nodes" (Digraph.n_nodes g) (Csr.n_nodes csr);
  check_int "edges" (Digraph.n_edges g) (Csr.n_edges csr);
  check_int "labels" (Digraph.n_labels g) (Csr.n_labels csr);
  Digraph.iter_nodes
    (fun v ->
      check_int "out degree" (Digraph.out_degree g v) (degree Csr.iter_out csr v);
      check_int "in degree" (Digraph.in_degree g v) (degree Csr.iter_in csr v))
    g

let test_csr_adjacency_agrees () =
  let g = Generators.city (Generators.default_city ~districts:12) ~seed:9 in
  let csr = Csr.freeze g in
  Digraph.iter_nodes
    (fun v ->
      let from_lists = List.sort compare (Digraph.out_edges g v) in
      let from_csr = ref [] in
      Csr.iter_out csr v (fun lbl d -> from_csr := (lbl, d) :: !from_csr);
      check "same out-adjacency" true (List.sort compare !from_csr = from_lists);
      let in_lists = List.sort compare (Digraph.in_edges g v) in
      let in_csr = ref [] in
      Csr.iter_in csr v (fun lbl s -> in_csr := (lbl, s) :: !in_csr);
      check "same in-adjacency" true (List.sort compare !in_csr = in_lists))
    g

let test_csr_fold_and_bounds () =
  let g = Datasets.figure1 () in
  let csr = Csr.freeze g in
  let n2 = node g "N2" in
  check_int "iter_out counts out-edges" (Digraph.out_degree g n2) (degree Csr.iter_out csr n2);
  Alcotest.check_raises "out bounds" (Invalid_argument "Csr.iter_out: node 99 out of range")
    (fun () -> Csr.iter_out csr 99 (fun _ _ -> ()));
  Alcotest.check_raises "in bounds" (Invalid_argument "Csr.iter_in: node -1 out of range")
    (fun () -> Csr.iter_in csr (-1) (fun _ _ -> ()))

(* Pass 2 moves one edge's source from node 0 to node 1: same length,
   cursors in range, but other per-node degrees than pass 1 counted. *)
let test_csr_fill_disagreeing_pass () =
  let ints len = Bigarray.Array1.create Bigarray.int Bigarray.c_layout len in
  let pass = ref 0 in
  let stream f =
    incr pass;
    f ~src:(if !pass = 1 then 0 else 1) ~label:0 ~dst:1;
    f ~src:2 ~label:0 ~dst:0
  in
  Alcotest.check_raises "second pass disagrees"
    (Invalid_argument "Csr.fill: pass 2 stream disagrees with pass 1") (fun () ->
      ignore
        (Csr.fill ~n_labels:1 ~out_off:(ints 4) ~in_off:(ints 4) ~out_cells:(ints 2)
           ~in_cells:(ints 2) stream))

let test_csr_eval_agrees () =
  let g = Generators.city (Generators.default_city ~districts:20) ~seed:4 in
  let csr = Csr.freeze g in
  List.iter
    (fun qs ->
      let q = Rpq.of_string_exn qs in
      check ("frozen eval agrees on " ^ qs) true
        (Result.map fst (Eval.run (Eval.Frozen (g, csr)) q) = Ok (Eval.select g q)))
    [ "cinema"; "(tram+bus)*.cinema"; "metro*.park"; "zzz"; "eps" ]

(* -------------------------------------------------------------------- *)
(* two-way queries (2RPQ) *)

let test_twoway_symbols () =
  check "inverse" true (Rpq.is_inverse "tram~");
  check "plain" false (Rpq.is_inverse "tram");
  Alcotest.(check string) "base" "tram" (Rpq.base_label "tram~");
  Alcotest.(check string) "base id" "tram" (Rpq.base_label "tram")

let test_twoway_inverse_step () =
  (* from a cinema, step back into its district: C1 -cinema~-> N4 *)
  let g = Datasets.figure1 () in
  let q = Rpq.of_string_exn "cinema~" in
  let sel = List.map (Digraph.node_name g) (Eval.select_nodes g q) in
  Alcotest.(check (list string)) "cinemas can step back" [ "C1"; "C2" ] (List.sort compare sel)

let test_twoway_facility_to_facility () =
  (* restaurants whose district can reach a cinema by transport:
     restaurant~ . (tram+bus)* . cinema — starting FROM the facility *)
  let g = Datasets.figure1 () in
  let q = Rpq.of_string_exn "restaurant~.(tram+bus)*.cinema" in
  let sel = List.map (Digraph.node_name g) (Eval.select_nodes g q) in
  (* R2's district is N3 (no cinema reachable); R1's is N5 (no cinema).
     So nobody. *)
  Alcotest.(check (list string)) "no restaurant qualifies here" [] sel;
  (* but on transpole, facilities sit on well-connected stops *)
  let t = Datasets.transpole () in
  let q2 = Rpq.of_string_exn "restaurant~.(metro+tram+bus)*.cinema" in
  let sel2 = List.map (Digraph.node_name t) (Eval.select_nodes t q2) in
  check "Wazemmes market reaches a cinema" true (List.mem "Marche_Wazemmes" sel2)

let test_twoway_every_surface () =
  let g = Datasets.figure1 () in
  let names sel =
    List.sort compare
      (List.filter_map
         (fun v -> if sel.(v) then Some (Digraph.node_name g v) else None)
         (Digraph.nodes g))
  in
  List.iter
    (fun (qs, expected) ->
      let q = Rpq.of_string_exn qs in
      let same what got = Alcotest.(check (list string)) (what ^ " on " ^ qs) expected got in
      same "Gps.evaluate" (Gps.evaluate g q);
      same "Eval.run" (names (fst (Result.get_ok (Eval.run (Eval.Frozen (g, Csr.freeze g)) q))));
      same "Conjunctive" (Gps.evaluate_all_of g [ q ]);
      same "Incremental" (names (Gps_query.Incremental.select (Gps_query.Incremental.create g q)));
      same "Binary.targets"
        (names (Array.init (Digraph.n_nodes g) (fun v -> Gps_query.Binary.targets g q v <> []))))
    [ ("bus~", [ "N1"; "N3"; "N4" ]); ("cinema~.tram~", [ "C1" ]) ]

let test_twoway_witness () =
  let g = Datasets.figure1 () in
  let q = Rpq.of_string_exn "cinema~.tram~" in
  (* C1 <-cinema- N4 <-tram- N1 *)
  match Witness.find g q (node g "C1") with
  | Some w ->
      check_int "two steps" 2 (List.length w.Witness.word);
      check "first is inverse" true (Rpq.is_inverse (List.hd w.Witness.word));
      Alcotest.(check string) "renders with back arrows" "C1 <-cinema- N4 <-tram- N1"
        (Format.asprintf "%a" (Witness.pp g) w)
  | None -> Alcotest.fail "witness expected"

let test_twoway_witness_none () =
  let g = Datasets.figure1 () in
  check "unselected node has no witness" true
    (Witness.find g (Rpq.of_string_exn "cinema") (node g "N5") = None)

(* -------------------------------------------------------------------- *)
(* Word_learner *)

let test_word_learner_basic () =
  let q =
    Word_learner.learn_exn
      ~pos:[ [ "a"; "b" ]; [ "a"; "b"; "a"; "b" ] ]
      ~neg:[ [ "a" ]; [ "b"; "a" ]; [ "a"; "b"; "a" ] ]
  in
  check "accepts positives" true (Rpq.matches_word q [ "a"; "b" ]);
  check "generalizes" true (Rpq.matches_word q [ "a"; "b"; "a"; "b"; "a"; "b" ]);
  check "rejects negatives" false (Rpq.matches_word q [ "b"; "a" ])

let test_word_learner_contradiction () =
  match Word_learner.learn ~pos:[ [ "a" ] ] ~neg:[ [ "a" ] ] with
  | Error (Word_learner.Contradiction w) -> check "the word" true (w = [ "a" ])
  | Ok _ -> Alcotest.fail "contradiction must be reported"

let test_word_learner_empty_pos () =
  match Word_learner.learn ~pos:[] ~neg:[ [ "x" ] ] with
  | Ok q -> check "empty language" false (Rpq.matches_word q [ "x" ])
  | Error _ -> Alcotest.fail "empty positives are fine"

let test_word_learner_characteristic_roundtrip () =
  List.iter
    (fun qs ->
      let goal = Rpq.of_string_exn qs in
      let pos, neg = Word_learner.characteristic_words ~max_len:4 goal in
      check (qs ^ ": characteristic sample is consistent") true
        (Word_learner.consistent_with goal ~pos ~neg);
      let learned = Word_learner.learn_exn ~pos ~neg in
      check (qs ^ ": learned query consistent with the sample") true
        (Word_learner.consistent_with learned ~pos ~neg))
    [ "a.b"; "(a+b)*.c"; "a*"; "a.(b+c)" ]

let test_word_learner_identification () =
  (* with the full characteristic sample up to length 4, simple queries
     are recovered exactly (language equality) *)
  List.iter
    (fun qs ->
      let goal = Rpq.of_string_exn qs in
      let pos, neg = Word_learner.characteristic_words ~max_len:4 goal in
      let learned = Word_learner.learn_exn ~pos ~neg in
      check (qs ^ " identified") true (Rpq.equal_lang learned goal))
    [ "a.b"; "a*"; "(a.b)*" ]

(* -------------------------------------------------------------------- *)
(* Properties *)

let qcheck_tests =
  let open QCheck in
  let arb_graph =
    make
      Gen.(
        let* n = int_range 2 12 in
        let* m = int_range 1 30 in
        let* seed = int_range 0 9_999 in
        return (Generators.uniform ~nodes:n ~edges:m ~labels:[ "a"; "b"; "c" ] ~seed))
  in
  let gen_regex =
    Gen.(
      let sym = oneofl [ "a"; "b"; "c"; "a~"; "b~" ] in
      fix
        (fun self n ->
          if n <= 1 then map Gps_regex.Regex.sym sym
          else
            frequency
              [
                (3, map Gps_regex.Regex.sym sym);
                (2, map2 (fun a b -> Gps_regex.Regex.alt [ a; b ]) (self (n / 2)) (self (n / 2)));
                (3, map2 (fun a b -> Gps_regex.Regex.seq [ a; b ]) (self (n / 2)) (self (n / 2)));
                (2, map Gps_regex.Regex.star (self (n - 1)));
              ])
        8)
  in
  let arb_regex = make ~print:Gps_regex.Regex.to_string gen_regex in
  [
    Test.make ~name:"two-way witness exists iff selected" ~count:200
      (pair arb_graph arb_regex) (fun (g, r) ->
        let q = Rpq.of_regex r in
        let sel = Eval.select g q in
        Digraph.fold_nodes
          (fun acc v -> acc && (Witness.find g q v <> None) = sel.(v))
          true g);
    Test.make ~name:"word learner output is consistent with its sample" ~count:200
      (make
         Gen.(
           let word = list_size (int_bound 3) (oneofl [ "a"; "b" ]) in
           pair (list_size (int_range 1 4) word) (list_size (int_bound 4) word)))
      (fun (pos, neg) ->
        let neg = List.filter (fun w -> not (List.mem w pos)) neg in
        match Word_learner.learn ~pos ~neg with
        | Ok q -> Word_learner.consistent_with q ~pos ~neg
        | Error _ -> false);
  ]

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  [
    ( "ext3.csr",
      [
        t "shape" test_csr_shape;
        t "adjacency" test_csr_adjacency_agrees;
        t "fold and bounds" test_csr_fold_and_bounds;
        t "fill rejects a disagreeing second pass" test_csr_fill_disagreeing_pass;
        t "eval agreement" test_csr_eval_agrees;
      ] );
    ( "ext3.twoway",
      [
        t "symbols" test_twoway_symbols;
        t "inverse step" test_twoway_inverse_step;
        t "facility to facility" test_twoway_facility_to_facility;
        t "one answer on every surface" test_twoway_every_surface;
        t "witness" test_twoway_witness;
        t "no witness" test_twoway_witness_none;
      ] );
    ( "ext3.word_learner",
      [
        t "basic" test_word_learner_basic;
        t "contradiction" test_word_learner_contradiction;
        t "empty positives" test_word_learner_empty_pos;
        t "characteristic roundtrip" test_word_learner_characteristic_roundtrip;
        t "identification" test_word_learner_identification;
      ] );
    ("ext3.properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
  ]
