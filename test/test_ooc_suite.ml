(* Out-of-core graphs: the packed binary CSR file ({!Gps_graph.Disk_csr}),
   its delta overlay, the backing-generic evaluation path, label-aware
   result-cache invalidation, the server's load_file/add_edges ops, and
   the compacted store's binary snapshot. *)

module Digraph = Gps_graph.Digraph
module Disk = Gps_graph.Disk_csr
module Csr = Gps_graph.Csr
module Store = Gps_graph.Store
module Generators = Gps_graph.Generators
module Eval = Gps_query.Eval
module Incremental = Gps_query.Incremental
module P = Gps_server.Protocol
module Srv = Gps_server.Server
module Qcache = Gps_server.Qcache
module Catalog = Gps_server.Catalog

let check = Alcotest.check

let parse q =
  match Gps_query.Rpq.of_string q with Ok q -> q | Error m -> Alcotest.failf "parse: %s" m

let temp_csr () = Filename.temp_file "gps_ooc" ".csr"

let cleanup path = try Sys.remove path with Sys_error _ -> ()

let open_ok path =
  match Disk.open_map path with
  | Ok d -> d
  | Error e -> Alcotest.failf "open_map %s: %s" path (Disk.open_error_to_string e)

let with_packed g f =
  let path = temp_csr () in
  Fun.protect
    ~finally:(fun () -> cleanup path)
    (fun () ->
      Disk.pack_digraph g ~path;
      f path (open_ok path))

let city ?(districts = 12) ?(seed = 7) () =
  Generators.city (Generators.default_city ~districts) ~seed

(* sorted (label-name, node-name) out/in adjacency of one node, from
   either backing — the canonical comparison form *)
let heap_adj g dir v =
  List.sort compare
    (List.map
       (fun (l, w) -> (Digraph.label_name g l, Digraph.node_name g w))
       (match dir with `Out -> Digraph.out_edges g v | `In -> Digraph.in_edges g v))

let disk_adj view dir v =
  let acc = ref [] in
  let add l w = acc := (Disk.label_name view l, Disk.node_name view w) :: !acc in
  let base = Disk.base view in
  (match dir with
  | `Out ->
      if v < Csr.n_nodes base then Csr.iter_out base v add;
      Disk.overlay_iter_out view v add
  | `In ->
      if v < Csr.n_nodes base then Csr.iter_in base v add;
      Disk.overlay_iter_in view v add);
  List.sort compare !acc

let check_graph_equals g view =
  check Alcotest.int "nodes" (Digraph.n_nodes g) (Disk.n_nodes view);
  check Alcotest.int "edges" (Digraph.n_edges g) (Disk.n_edges view);
  check Alcotest.int "labels" (Digraph.n_labels g) (Disk.n_labels view);
  for v = 0 to Digraph.n_nodes g - 1 do
    check Alcotest.string "node name" (Digraph.node_name g v) (Disk.node_name view v);
    check
      Alcotest.(list (pair string string))
      "out adjacency" (heap_adj g `Out v) (disk_adj view `Out v);
    check
      Alcotest.(list (pair string string))
      "in adjacency" (heap_adj g `In v) (disk_adj view `In v)
  done

(* ------------------------------------------------------------------ *)
(* pack → open round-trips *)

let test_roundtrip_city () =
  let g = city () in
  with_packed g (fun _path d ->
      check Alcotest.int "base nodes" (Digraph.n_nodes g) (Disk.base_nodes d);
      check Alcotest.int "base edges" (Digraph.n_edges g) (Disk.base_edges d);
      check_graph_equals g (Disk.snapshot d);
      (* label table survives with ids intact *)
      let v = Disk.snapshot d in
      for l = 0 to Digraph.n_labels g - 1 do
        check Alcotest.string "label name" (Digraph.label_name g l) (Disk.label_name v l);
        check
          Alcotest.(option int)
          "label id" (Some l)
          (Disk.label_of_name v (Digraph.label_name g l))
      done)

let test_to_digraph_roundtrip () =
  let g = city ~districts:8 ~seed:3 () in
  with_packed g (fun _path d ->
      let g' = Disk.to_digraph (Disk.snapshot d) in
      check Alcotest.int "nodes" (Digraph.n_nodes g) (Digraph.n_nodes g');
      check Alcotest.int "edges" (Digraph.n_edges g) (Digraph.n_edges g');
      for v = 0 to Digraph.n_nodes g - 1 do
        check Alcotest.string "name" (Digraph.node_name g v) (Digraph.node_name g' v);
        check
          Alcotest.(list (pair string string))
          "adjacency" (heap_adj g `Out v) (heap_adj g' `Out v)
      done)

(* random graphs: duplicate edges, isolated nodes, odd names *)
let gen_graph =
  QCheck.Gen.(
    let* n = int_range 1 24 in
    let* m = int_bound 60 in
    let* edges =
      list_repeat m (triple (int_bound (n - 1)) (oneofl [ "a"; "b"; "c"; "lbl d" ]) (int_bound (n - 1)))
    in
    return (n, edges))

let arb_graph =
  QCheck.make
    ~print:(fun (n, es) -> Printf.sprintf "%d nodes, %d edge adds" n (List.length es))
    gen_graph

let build (n, edges) =
  let g = Digraph.create () in
  for i = 0 to n - 1 do
    ignore (Digraph.add_node g (Printf.sprintf "node %d" i))
  done;
  List.iter
    (fun (s, l, d) ->
      Digraph.link g (Printf.sprintf "node %d" s) l (Printf.sprintf "node %d" d))
    edges;
  g

let qcheck_roundtrip =
  QCheck.Test.make ~name:"disk_csr: pack → open_map preserves adjacency" ~count:60 arb_graph
    (fun spec ->
      let g = build spec in
      let path = temp_csr () in
      Fun.protect
        ~finally:(fun () -> cleanup path)
        (fun () ->
          Disk.pack_digraph g ~path;
          let v = Disk.snapshot (open_ok path) in
          Digraph.n_nodes g = Disk.n_nodes v
          && Digraph.n_edges g = Disk.n_edges v
          && Digraph.n_labels g = Disk.n_labels v
          && List.for_all
               (fun u ->
                 heap_adj g `Out u = disk_adj v `Out u && heap_adj g `In u = disk_adj v `In u)
               (Digraph.nodes g)))

(* One layout: a mapped file's base is the very Csr that freezing the
   packed graph builds — same sizes, same cells in the same order. *)
let gen_layout_graph =
  QCheck.Gen.(
    let* n = int_bound 12 in
    let* n_labels = int_range 1 70 in
    let* edges =
      if n = 0 then return []
      else
        let node = int_bound (n - 1) in
        list_size (int_bound 30) (triple node (int_bound (n_labels - 1)) node)
    in
    return (n, n_labels, edges))

let qcheck_one_layout =
  QCheck.Test.make ~name:"csr: freeze g = base of open_map (pack_digraph g)" ~count:200
    (QCheck.make
       ~print:(fun (n, nl, es) ->
         Printf.sprintf "%d nodes, %d labels, %d edge adds" n nl (List.length es))
       gen_layout_graph)
    (fun (n, n_labels, edges) ->
      let g = Digraph.create () in
      for i = 0 to n - 1 do
        ignore (Digraph.add_node g (Printf.sprintf "v%d" i))
      done;
      for l = 0 to n_labels - 1 do
        ignore (Digraph.intern_label g (Printf.sprintf "l%d" l))
      done;
      List.iter
        (fun (s, l, d) -> Digraph.add_edge g ~src:s ~label:(Printf.sprintf "l%d" l) ~dst:d)
        edges;
      let path = temp_csr () in
      Fun.protect
        ~finally:(fun () -> cleanup path)
        (fun () ->
          Disk.pack_digraph g ~path;
          let frozen = Gps_graph.Csr.freeze g in
          let mapped = Disk.base (Disk.snapshot (open_ok path)) in
          let seq iter csr v =
            let acc = ref [] in
            iter csr v (fun l w -> acc := (l, w) :: !acc);
            List.rev !acc
          in
          let raises iter csr v =
            match iter csr v (fun _ _ -> ()) with
            | () -> false
            | exception Invalid_argument _ -> true
          in
          let open Gps_graph.Csr in
          n_nodes frozen = n_nodes mapped
          && n_edges frozen = n_edges mapped
          && n_labels frozen = n_labels mapped
          && List.for_all
               (fun v ->
                 seq iter_out frozen v = seq iter_out mapped v
                 && seq iter_in frozen v = seq iter_in mapped v)
               (List.init n Fun.id)
          && List.for_all
               (fun csr ->
                 List.for_all (fun v -> raises iter_in csr v && raises iter_out csr v) [ -1; n ])
               [ frozen; mapped ]))

(* The packed bytes of the paper's Figure 1 graph, pinned: the file
   format (version 1) is fixed byte for byte. *)
let test_figure1_bytes () =
  with_packed (Gps_graph.Datasets.figure1 ()) (fun path _ ->
      let bytes = In_channel.with_open_bin path In_channel.input_all in
      check Alcotest.int "size" 600 (String.length bytes);
      check Alcotest.int "crc32" 2954290680 (Gps_graph.Crc32.string bytes))

(* ------------------------------------------------------------------ *)
(* typed open errors *)

let test_open_errors () =
  (match Disk.open_map "/nonexistent/gps/file.csr" with
  | Error (Disk.No_such_file _) -> ()
  | _ -> Alcotest.fail "want No_such_file");
  (match Disk.open_map (Filename.get_temp_dir_name ()) with
  | Error (Disk.Not_regular _) -> ()
  | _ -> Alcotest.fail "want Not_regular");
  let g = city ~districts:4 () in
  let path = temp_csr () in
  Fun.protect
    ~finally:(fun () -> cleanup path)
    (fun () ->
      Disk.pack_digraph g ~path;
      let bytes = In_channel.with_open_bin path In_channel.input_all in
      (* truncated: half the file *)
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc (String.sub bytes 0 (String.length bytes / 2)));
      (match Disk.open_map path with
      | Error (Disk.Truncated { expected; actual }) ->
          check Alcotest.bool "expected > actual" true (expected > actual)
      | Error e -> Alcotest.failf "want Truncated, got %s" (Disk.open_error_to_string e)
      | Ok _ -> Alcotest.fail "want Truncated");
      (* wrong version: patch header word 1 to 99 *)
      let patched = Bytes.of_string bytes in
      Bytes.set_int64_le patched 8 99L;
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_bytes oc patched);
      (match Disk.open_map path with
      | Error (Disk.Bad_version 99) -> ()
      | Error e -> Alcotest.failf "want Bad_version 99, got %s" (Disk.open_error_to_string e)
      | Ok _ -> Alcotest.fail "want Bad_version");
      (* bad magic: stamp over the first 8 bytes *)
      let patched = Bytes.of_string bytes in
      Bytes.blit_string "NOTAGRPH" 0 patched 0 8;
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_bytes oc patched);
      match Disk.open_map path with
      | Error Disk.Bad_magic -> ()
      | Error e -> Alcotest.failf "want Bad_magic, got %s" (Disk.open_error_to_string e)
      | Ok _ -> Alcotest.fail "want Bad_magic")

(* ------------------------------------------------------------------ *)
(* overlay semantics *)

let test_overlay () =
  let g = city ~districts:4 () in
  with_packed g (fun _path d ->
      let base_n = Disk.base_nodes d in
      (* re-adding a base edge is a no-op *)
      let e = List.hd (Digraph.edges g) in
      let src = Digraph.node_name g e.Digraph.src
      and lbl = Digraph.label_name g e.Digraph.lbl
      and dst = Digraph.node_name g e.Digraph.dst in
      let delta = Disk.add_edges d [ (src, lbl, dst) ] in
      check Alcotest.int "base dup skipped" 0 delta.Disk.added;
      check Alcotest.int "no new nodes" 0 delta.Disk.new_nodes;
      check Alcotest.int "overlay empty" 0 (Disk.overlay_edges d);
      (* fresh edges intern new nodes and labels past the base ids *)
      let delta =
        Disk.add_edges d
          [
            ("ghost1", "zipline", "ghost2");
            ("ghost2", "zipline", src);
            ("ghost1", "zipline", "ghost2") (* in-batch duplicate *);
          ]
      in
      check Alcotest.int "added" 2 delta.Disk.added;
      check Alcotest.int "new nodes" 2 delta.Disk.new_nodes;
      check Alcotest.(list string) "delta labels" [ "zipline" ] delta.Disk.labels;
      check Alcotest.int "overlay edges" 2 (Disk.overlay_edges d);
      (* overlay-edge duplicate across batches is also a no-op *)
      let delta = Disk.add_edges d [ ("ghost2", "zipline", src) ] in
      check Alcotest.int "overlay dup skipped" 0 delta.Disk.added;
      let v = Disk.snapshot d in
      check Alcotest.int "view nodes" (base_n + 2) (Disk.n_nodes v);
      check Alcotest.string "new node name" "ghost1" (Disk.node_name v base_n);
      check Alcotest.bool "new label resolvable" true (Disk.label_of_name v "zipline" <> None);
      (* materialized graph sees base + overlay *)
      let g' = Disk.to_digraph v in
      check Alcotest.int "materialized edges" (Digraph.n_edges g + 2) (Digraph.n_edges g'))

(* a packed stream may repeat a node name; writes resolve it to its
   first id, as a first-write-wins name table would *)
let test_overlay_repeated_names () =
  let path = temp_csr () in
  Fun.protect
    ~finally:(fun () -> cleanup path)
    (fun () ->
      let n = 64 in
      let name v = if v = 0 then "x" else if v mod 2 = 0 then "even" else "dup" in
      Disk.pack_stream ~path ~n_nodes:n ~n_edges:0 ~node_name:name ~labels:[| "l" |] ~iter_edges:(fun _ -> ());
      let d = open_ok path in
      ignore (Disk.add_edges d [ ("dup", "l", "x"); ("even", "l", "dup"); ("x", "l", "fresh") ]);
      let v = Disk.snapshot d in
      let out u = let acc = ref [] in Disk.overlay_iter_out v u (fun _ w -> acc := w :: !acc); !acc in
      check Alcotest.(list int) "dup is node 1" [ 0 ] (out 1);
      check Alcotest.(list int) "even is node 2" [ 1 ] (out 2);
      check Alcotest.(list int) "x is node 0" [ n ] (out 0);
      check Alcotest.int "one new node" (n + 1) (Disk.n_nodes v);
      (* the written file's answers list every selected copy of a name *)
      let sel = Array.init (n + 1) (fun i -> i < 4 || i = n) in
      check Alcotest.(list string) "names in order" [ "dup"; "dup"; "even"; "fresh"; "x" ]
        (Disk.selected_names v sel))

(* ------------------------------------------------------------------ *)
(* evaluation equivalence: heap vs mapped vs mapped+overlay *)

let queries =
  [ "(tram+bus)*.cinema"; "metro.metro*"; "bus"; "in~.tram"; "(tram+metro)*.museum" ]

let select_mapped v q = fst (Result.get_ok (Eval.run (Eval.Mapped v) q))

let test_eval_equivalence () =
  let g = city ~districts:10 ~seed:11 () in
  with_packed g (fun _path d ->
      (* base: empty overlay takes the flat Csr kernel path *)
      List.iter
        (fun qs ->
          let q = parse qs in
          let heap = Eval.select g q in
          let mapped = select_mapped (Disk.snapshot d) q in
          check Alcotest.(array bool) (qs ^ " base") heap mapped)
        queries;
      (* overlay: new edges, a new node, a new label *)
      ignore
        (Disk.add_edges d
           [
             ("hub", "tram", "D0"); ("D1", "tram", "hub"); ("hub", "funicular", "D2");
           ]);
      let v = Disk.snapshot d in
      let g' = Disk.to_digraph v in
      List.iter
        (fun qs ->
          let q = parse qs in
          let heap = Eval.select g' q in
          let mapped = select_mapped v q in
          check Alcotest.(array bool) (qs ^ " overlay") heap mapped)
        ("funicular.(tram+bus)*" :: queries);
      (* the report agrees too *)
      let q = parse "(tram+bus)*.cinema" in
      match Eval.run (Eval.Mapped v) q with
      | Ok (sel, report) ->
          check Alcotest.(array bool) "source report sel" (Eval.select g' q) sel;
          check Alcotest.int "report nodes" (Digraph.n_nodes g') report.Eval.graph_nodes
      | Error _ -> Alcotest.fail "unexpected interrupt")

let test_incremental_agrees_over_overlay () =
  let g = city ~districts:6 ~seed:5 () in
  let q = parse "(tram+bus)*.cinema" in
  with_packed g (fun _path d ->
      let live = Disk.to_digraph (Disk.snapshot d) in
      let inc = Incremental.create live q in
      let overlay_edges =
        [ ("hub", "tram", "D0"); ("D1", "bus", "hub"); ("hub", "bus", "cinema0") ]
      in
      List.iter
        (fun (s, l, t) ->
          (* mirror each ingest into the disk overlay and the live graph *)
          ignore (Disk.add_edges d [ (s, l, t) ]);
          Digraph.link live s l t;
          let src = Option.get (Digraph.node_of_name live s) in
          let dst = Option.get (Digraph.node_of_name live t) in
          Incremental.add_edge inc ~src ~label:l ~dst)
        overlay_edges;
      check Alcotest.bool "agrees with scratch" true (Incremental.agrees_with_scratch inc);
      let mapped = select_mapped (Disk.snapshot d) q in
      check Alcotest.(array bool) "incremental = mapped overlay" (Incremental.select inc) mapped)

(* ------------------------------------------------------------------ *)
(* resumed runs: Eval.run on a written mapped view continues its
   automaton's live entry *)

let run_mapped ?deadline v q = Eval.run ?deadline (Eval.Mapped v) q

let expect_run what = function
  | Ok (sel, report) -> (sel, report)
  | Error _ -> Alcotest.failf "%s: unexpected interrupt" what

(* the selection of [q] on [g] plus [edges], as sorted names *)
let reference_names g edges q =
  let g = Digraph.copy g in
  List.iter (fun (s, l, d) -> Digraph.link g s l d) edges;
  let sel = Eval.select g q in
  List.sort compare
    (List.filter_map (fun v -> if sel.(v) then Some (Digraph.node_name g v) else None)
       (Digraph.nodes g))

let view_names v sel =
  List.sort compare
    (List.filter_map (fun i -> if sel.(i) then Some (Disk.node_name v i) else None)
       (List.init (Array.length sel) Fun.id))

(* x -a-> y, y -b-> z: [a.b] selects x; the batches below add a.b paths
   through old and new nodes *)
let chain () =
  let g = Digraph.create () in
  List.iter (fun (s, l, d) -> Digraph.link g s l d) [ ("x", "a", "y"); ("y", "b", "z"); ("u", "a", "w") ];
  g

let test_resume_views () =
  let g = chain () in
  let q = parse "a.b" in
  let b1 = [ ("w", "b", "z") ] and b2 = [ ("n1", "a", "u"); ("u", "a", "n2"); ("n2", "b", "x") ] in
  with_packed g (fun _path d ->
      ignore (Disk.add_edges d b1);
      let v1 = Disk.snapshot d in
      let sel1, r1 = expect_run "first" (run_mapped v1 q) in
      check Alcotest.bool "first run after a write is fresh" false r1.Eval.resumed;
      check Alcotest.(list string) "first" (reference_names g b1 q) (view_names v1 sel1);
      ignore (Disk.add_edges d b2);
      let v2 = Disk.snapshot d in
      let sel2, r2 = expect_run "resumed" (run_mapped v2 q) in
      check Alcotest.bool "resumed" true r2.Eval.resumed;
      check Alcotest.(list string) "resumed answer" (reference_names g (b1 @ b2) q) (view_names v2 sel2);
      check Alcotest.int "report counts the whole graph" (Disk.n_nodes v2) r2.Eval.graph_nodes;
      (* the resumed report says so, and survives the codec *)
      check Alcotest.bool "resumed in JSON" true
        (Gps_graph.Json.member "resumed" (Eval.report_to_json r2) = Some (Gps_graph.Json.Bool true));
      check Alcotest.bool "codec" true (Eval.report_of_json (Eval.report_to_json r2) = Ok r2);
      check Alcotest.bool "fresh JSON has no resumed field" true
        (Gps_graph.Json.member "resumed" (Eval.report_to_json r1) = None);
      (* an older view, evaluated after its entry advanced, gets its own answer *)
      let sel1', r1' = expect_run "older view" (run_mapped v1 q) in
      check Alcotest.bool "older view runs fresh" false r1'.Eval.resumed;
      check Alcotest.(list string) "older view's own answer" (reference_names g b1 q) (view_names v1 sel1');
      (* ... and leaves the newer entry alone *)
      let _, r2' = expect_run "again" (run_mapped v2 q) in
      check Alcotest.bool "entry kept" true r2'.Eval.resumed;
      check Alcotest.int "nothing left to do" 0 r2'.Eval.frontier_visits)

(* [a~.b] selects v when some u -a-> v has a b-edge. After b1, w has
   one; the new edge w -a-> x then joins x through the inverse seed
   rule alone: (w, after a~) is an old member and is not expanded again. *)
let test_resume_twoway () =
  let g = chain () in
  let q = parse "a~.b" in
  let b1 = [ ("w", "b", "z") ] and b2 = [ ("w", "a", "x") ] in
  with_packed g (fun _path d ->
      ignore (Disk.add_edges d b1);
      ignore (expect_run "record" (run_mapped (Disk.snapshot d) q));
      ignore (Disk.add_edges d b2);
      let v = Disk.snapshot d in
      let sel, r = expect_run "resumed" (run_mapped v q) in
      check Alcotest.bool "resumed" true r.Eval.resumed;
      check Alcotest.(list string) "two-way answer" (reference_names g (b1 @ b2) q) (view_names v sel);
      check Alcotest.bool "x joined" true (List.mem "x" (view_names v sel)))

(* 4 reader threads and one writer on one packed graph, through Eval.run
   on Disk_csr.snapshot: every finished read equals the reference for
   exactly the batches its view holds. The writer applies its next batch
   once the readers have started [quota] reads since the last one, so
   reads land between every pair of batches; every fifth read reuses the
   reader's previous, possibly older view. Half the reads carry a
   cancelled deadline, so some resumes stop right after seeding: an
   entry they shared instead of taking out of the table would keep their
   half-continued bits. *)
let test_resume_concurrent () =
  let base = Generators.uniform ~nodes:120 ~edges:260 ~labels:[ "a"; "b"; "c" ] ~seed:3 in
  let queries = Array.map parse [| "(a+b)*.c"; "a.b~"; "(a~+c)*.b"; "c.(a+d)*"; "(b+d)*.a~.c" |] in
  let batches = 24 and quota = 12 and readers = 4 and reads = 100 in
  (* every batch adds at least one edge, so a view's overlay count names
     the batches it holds; every third also adds a node *)
  let prng = Gps_graph.Prng.create ~seed:11 in
  let heap = Digraph.copy base in
  let batch j =
    let pick () = Digraph.node_name heap (Gps_graph.Prng.int prng (Digraph.n_nodes heap)) in
    let label () = Gps_graph.Prng.pick prng [ "a"; "b"; "c"; "d" ] in
    let rec fresh acc k =
      if k = 0 then acc
      else
        let s = pick () and l = label () and t = pick () in
        if List.mem (s, l, t) acc then fresh acc k else fresh ((s, l, t) :: acc) (k - 1)
    in
    let edges = fresh [] 3 in
    let edges = if j mod 3 = 0 then (Printf.sprintf "new%d" j, label (), pick ()) :: edges else edges in
    List.iter (fun (s, l, t) -> Digraph.link heap s l t) edges;
    edges
  in
  let stages = Array.init batches batch in
  let sorted_names g sel =
    List.sort compare
      (List.filter_map (fun v -> if sel.(v) then Some (Digraph.node_name g v) else None)
         (Digraph.nodes g))
  in
  (* the reference after each batch prefix *)
  let reference = Array.make_matrix (batches + 1) (Array.length queries) [] in
  let g = Digraph.copy base in
  for j = 0 to batches do
    if j > 0 then List.iter (fun (s, l, t) -> Digraph.link g s l t) stages.(j - 1);
    Array.iteri (fun i q -> reference.(j).(i) <- sorted_names g (Eval.select g q)) queries
  done;
  (* the batch count whose cumulative overlay edge count is [at] *)
  let batches_at at =
    let j = ref 0 and count = ref 0 in
    while !count < at do
      count := !count + List.length stages.(!j);
      incr j
    done;
    !j
  in
  with_packed base (fun _path d ->
      let lock = Mutex.create () and moved = Condition.create () in
      let started = ref 0 and readers_done = ref 0 in
      let wrong = ref [] and resumed = ref 0 and finished = ref 0 in
      let writer () =
        Array.iter
          (fun stage ->
            Mutex.protect lock (fun () ->
                while !started < quota && !readers_done < readers do
                  Condition.wait moved lock
                done;
                started := 0);
            ignore (Disk.add_edges d stage);
            Mutex.protect lock (fun () -> Condition.broadcast moved))
          stages;
        Mutex.protect lock (fun () ->
            started := min_int;
            Condition.broadcast moved)
      in
      let reader k () =
        let prng = Gps_graph.Prng.create ~seed:(100 + k) in
        let prev = ref (Disk.snapshot d) in
        for r = 0 to reads - 1 do
          Mutex.protect lock (fun () ->
              while !started >= quota do
                Condition.wait moved lock
              done;
              incr started;
              Condition.broadcast moved);
          let i = Gps_graph.Prng.int prng (Array.length queries) in
          let v = if r mod 5 = 4 then !prev else Disk.snapshot d in
          prev := v;
          let deadline =
            if r mod 2 = 0 then Gps_obs.Deadline.none
            else begin
              let t = Gps_obs.Deadline.token () in
              Gps_obs.Deadline.cancel t;
              t
            end
          in
          match Eval.run ~deadline (Eval.Mapped v) queries.(i) with
          | Ok (sel, report) ->
              let j = batches_at (Disk.view_overlay_edges v) in
              let ok = view_names v sel = reference.(j).(i) in
              Mutex.protect lock (fun () ->
                  incr finished;
                  if report.Eval.resumed then incr resumed;
                  if not ok then wrong := (k, r, i, j) :: !wrong)
          | Error _ -> ()
        done;
        Mutex.protect lock (fun () ->
            incr readers_done;
            Condition.broadcast moved)
      in
      let threads = Thread.create writer () :: List.init readers (fun k -> Thread.create (reader k) ()) in
      List.iter Thread.join threads;
      List.iter
        (fun (k, r, i, j) -> Printf.eprintf "reader %d read %d: query %d wrong after %d batches\n" k r i j)
        !wrong;
      check Alcotest.int "every finished read is exact" 0 (List.length !wrong);
      check Alcotest.int "every batch landed" (Disk.n_edges (Disk.snapshot d)) (Digraph.n_edges g);
      check Alcotest.bool "some reads resumed" true (!resumed > 0);
      (* after quiescence, a resumed run equals a fresh full run *)
      let v = Disk.snapshot d in
      let fresh = Disk.to_digraph v in
      Array.iteri
        (fun i q ->
          ignore (expect_run "settle" (run_mapped v q));
          let sel, r = expect_run "resumed" (run_mapped v q) in
          check Alcotest.bool "resumed after quiescence" true r.Eval.resumed;
          check Alcotest.(list string) "= fresh run" (sorted_names fresh (Eval.select fresh q)) (view_names v sel);
          check Alcotest.(list string) "= reference" reference.(batches).(i) (view_names v sel))
        queries)

let test_resume_interrupted () =
  let g = chain () in
  let q = parse "a.b" in
  with_packed g (fun _path d ->
      ignore (Disk.add_edges d [ ("w", "b", "z") ]);
      ignore (expect_run "record" (run_mapped (Disk.snapshot d) q));
      (* the new b-edge enables (u, after a); its expansion selects n0 *)
      let b2 = [ ("n0", "a", "u"); ("u", "b", "y") ] in
      ignore (Disk.add_edges d b2);
      let v = Disk.snapshot d in
      let expired = Gps_obs.Deadline.token () in
      Gps_obs.Deadline.cancel expired;
      (match run_mapped ~deadline:expired v q with
      | Error { Eval.partial; _ } -> check Alcotest.bool "the stopped run had resumed" true partial.Eval.resumed
      | Ok _ -> Alcotest.fail "a cancelled deadline must interrupt");
      let sel, r = expect_run "after the interrupt" (run_mapped v q) in
      check Alcotest.bool "entry dropped: fresh run" false r.Eval.resumed;
      check Alcotest.(list string) "exact" (reference_names g ([ ("w", "b", "z") ] @ b2) q) (view_names v sel))

(* The kernel's pooled queue holds one slot per product state. Sized
   exactly, it would be too small for the run after a batch that adds
   nodes, which would then allocate a whole new n·m-word queue. The
   graph is larger than any other test's, so the pool holds this
   test's own queue when the resumed run starts. *)
let test_resume_fits_pooled_scratch () =
  let n = 40_000 in
  let path = temp_csr () in
  Fun.protect
    ~finally:(fun () -> cleanup path)
    (fun () ->
      Disk.pack_stream ~path ~n_nodes:n ~n_edges:2 ~node_name:(Printf.sprintf "v%d")
        ~labels:[| "a"; "b" |]
        ~iter_edges:(fun f ->
          f ~src:0 ~label:0 ~dst:1;
          f ~src:1 ~label:1 ~dst:2);
      let d = open_ok path in
      let q = parse "a.b" in
      ignore (Disk.add_edges d [ ("v5", "a", "v1") ]);
      ignore (expect_run "record" (run_mapped (Disk.snapshot d) q));
      let delta = Disk.add_edges d [ ("n1", "a", "n2"); ("n2", "b", "v3") ] in
      check Alcotest.int "two new nodes" 2 delta.Disk.new_nodes;
      let v = Disk.snapshot d in
      let before = Gc.allocated_bytes () in
      let sel, r = expect_run "resumed" (run_mapped v q) in
      let allocated = Gc.allocated_bytes () -. before in
      check Alcotest.bool "resumed" true r.Eval.resumed;
      check Alcotest.(list string) "answer" [ "n1"; "v0"; "v5" ] (view_names v sel);
      let queue_bytes = Sys.word_size / 8 * n * r.Eval.automaton_states in
      if allocated >= float_of_int queue_bytes then
        Alcotest.failf "the resumed run allocated %.0f bytes, not under the %d-byte queue"
          allocated queue_bytes)

(* a permutation of [a.b]'s automaton prints as [a.b] too, but its bits
   mean other states: the two must not share an entry *)
let test_resume_keyed_by_automaton () =
  let module Nfa = Gps_automata.Nfa in
  let g = chain () in
  let q1 = parse "a.b" in
  let nfa = Gps_query.Rpq.nfa q1 in
  let flip s = Nfa.n_states nfa - 1 - s in
  let q2 =
    Gps_query.Rpq.of_nfa
      (Nfa.make ~n_states:(Nfa.n_states nfa)
         ~starts:(List.map flip (Nfa.starts nfa))
         ~finals:(List.map flip (Nfa.finals nfa))
         ~trans:(List.map (fun (s, a, d) -> (flip s, a, flip d)) (Nfa.transitions nfa)))
  in
  check Alcotest.string "the two print alike" (Gps_query.Rpq.to_string q1) (Gps_query.Rpq.to_string q2);
  with_packed g (fun _path d ->
      let b1 = [ ("w", "b", "z") ] and b2 = [ ("n0", "a", "u") ] in
      ignore (Disk.add_edges d b1);
      ignore (expect_run "q1" (run_mapped (Disk.snapshot d) q1));
      ignore (Disk.add_edges d b2);
      let v = Disk.snapshot d in
      let sel, r = expect_run "q2" (run_mapped v q2) in
      check Alcotest.(list string) "q2's answer" (reference_names g (b1 @ b2) q1) (view_names v sel);
      check Alcotest.bool "q2 has no entry of its own yet" false r.Eval.resumed;
      let sel, r = expect_run "q1 resumes" (run_mapped v q1) in
      check Alcotest.bool "q1 resumes its own" true r.Eval.resumed;
      check Alcotest.(list string) "q1's answer" (reference_names g (b1 @ b2) q1) (view_names v sel))

let test_live_table () =
  let g = chain () in
  with_packed g (fun _path d ->
      let entry ?(n = 8) at = { Disk.bits = Gps_graph.Bitset.create n; nodes = 1; at; set = 0 } in
      (* an unwritten graph records nothing *)
      Disk.put_live (Disk.snapshot d) "k" (entry 0);
      check Alcotest.bool "nothing from an empty overlay" true (Disk.take_live (Disk.snapshot d) "k" = None);
      (* a newer entry is neither taken by an older view nor replaced *)
      ignore (Disk.add_edges d [ ("w", "b", "z") ]);
      let v1 = Disk.snapshot d in
      ignore (Disk.add_edges d [ ("y", "a", "x") ]);
      let v2 = Disk.snapshot d in
      Disk.put_live v2 "k" (entry 2);
      Disk.put_live v1 "k" (entry 1);
      check Alcotest.bool "older view finds none" true (Disk.take_live v1 "k" = None);
      (match Disk.take_live v2 "k" with
      | Some e -> check Alcotest.int "the newer entry stayed" 2 e.Disk.at
      | None -> Alcotest.fail "entry lost");
      check Alcotest.bool "taken entries leave the table" true (Disk.take_live v2 "k" = None);
      (* the entry cap evicts the least recently put *)
      for i = 0 to Disk.live_max_entries do
        Disk.put_live v2 (string_of_int i) (entry 1)
      done;
      check Alcotest.bool "oldest evicted" true (Disk.take_live v2 "0" = None);
      check Alcotest.bool "newest kept" true (Disk.take_live v2 (string_of_int Disk.live_max_entries) <> None);
      (* the byte cap: an entry over it is never recorded, and a large one
         evicts what no longer fits *)
      Disk.put_live v2 "huge" (entry ~n:((Disk.live_max_bytes * 8) + 8) 1);
      check Alcotest.bool "over the byte cap" true (Disk.take_live v2 "huge" = None);
      Disk.put_live v2 "big" (entry ~n:(Disk.live_max_bytes * 8) 1);
      check Alcotest.bool "big kept" true (Disk.take_live v2 "big" <> None);
      check Alcotest.bool "the rest evicted" true (Disk.take_live v2 "1" = None))

(* ------------------------------------------------------------------ *)
(* streaming pack (no heap graph) *)

let test_pack_uniform_deterministic () =
  let p1 = temp_csr () and p2 = temp_csr () in
  Fun.protect
    ~finally:(fun () ->
      cleanup p1;
      cleanup p2)
    (fun () ->
      let pack path =
        Generators.pack_uniform ~path ~nodes:500 ~edges:2000 ~labels:[ "a"; "b"; "c" ] ~seed:9
      in
      pack p1;
      pack p2;
      let b1 = In_channel.with_open_bin p1 In_channel.input_all in
      let b2 = In_channel.with_open_bin p2 In_channel.input_all in
      check Alcotest.bool "byte-identical" true (String.equal b1 b2);
      let d = open_ok p1 in
      check Alcotest.int "nodes" 500 (Disk.base_nodes d);
      check Alcotest.int "edges" 2000 (Disk.base_edges d);
      check Alcotest.int "labels" 3 (Disk.base_labels d);
      (* the packed stream evaluates like its materialization *)
      let v = Disk.snapshot d in
      let g = Disk.to_digraph v in
      let q = parse "a.b*" in
      check Alcotest.(array bool) "eval" (Eval.select g q) (select_mapped v q))

(* ------------------------------------------------------------------ *)
(* qcache: label-aware delta invalidation *)

let test_qcache_delta () =
  let c = Qcache.create () in
  let k q = { Qcache.graph = "g"; version = 1; query = q } in
  Qcache.add c ~labels:[ "bus"; "tram" ] ~nullable:false (k "tram.bus") [ "1" ];
  Qcache.add c ~labels:[ "metro" ] ~nullable:false (k "metro") [ "2" ];
  Qcache.add c ~labels:[ "metro" ] ~nullable:true (k "metro*") [ "3" ];
  Qcache.add c (k "opaque") [ "4" ];
  Qcache.add c ~labels:[ "tram" ] ~nullable:false { Qcache.graph = "other"; version = 1; query = "tram" } [ "5" ];
  (* a tram delta with no new nodes: the tram query and the
     unknown-alphabet entry drop; both metro entries survive *)
  let n = Qcache.invalidate_delta c ~graph:"g" ~labels:[ "tram" ] ~new_nodes:0 in
  check Alcotest.int "tram delta drops" 2 n;
  check Alcotest.(option (list string)) "metro survives" (Some [ "2" ]) (Qcache.find c (k "metro"));
  check Alcotest.(option (list string)) "metro* survives" (Some [ "3" ]) (Qcache.find c (k "metro*"));
  check
    Alcotest.(option (list string))
    "other graph untouched" (Some [ "5" ])
    (Qcache.find c { Qcache.graph = "other"; version = 1; query = "tram" });
  (* a disjoint-label delta that interns new nodes: only nullable
     entries can change (every node ε-selects itself) *)
  let n = Qcache.invalidate_delta c ~graph:"g" ~labels:[ "funicular" ] ~new_nodes:2 in
  check Alcotest.int "new-node delta drops nullable" 1 n;
  check Alcotest.(option (list string)) "metro still cached" (Some [ "2" ]) (Qcache.find c (k "metro"));
  check Alcotest.(option (list string)) "metro* dropped" None (Qcache.find c (k "metro*"));
  let s = Qcache.stats c in
  check Alcotest.int "delta_invalidations total" 3 s.Qcache.delta_invalidations;
  check Alcotest.int "plain invalidations untouched" 0 s.Qcache.invalidations

(* An answer computed on a snapshot taken before a delta must not be
   cached once that delta's invalidation has run: nothing would drop it. *)
let test_qcache_generation () =
  let c = Qcache.create () in
  let k = { Qcache.graph = "g"; version = 1; query = "tram" } in
  let before = Qcache.generation c ~graph:"g" in
  ignore (Qcache.invalidate_delta c ~graph:"g" ~labels:[ "tram" ] ~new_nodes:0);
  check Alcotest.bool "stale insert refused" false
    (Qcache.add_at c ~generation:before ~labels:[ "tram" ] ~nullable:false k [ "stale" ]);
  check Alcotest.(option (list string)) "nothing cached" None (Qcache.find c k);
  let now = Qcache.generation c ~graph:"g" in
  check Alcotest.bool "fresh insert kept" true
    (Qcache.add_at c ~generation:now ~labels:[ "tram" ] ~nullable:false k [ "fresh" ]);
  check Alcotest.(option (list string)) "fresh cached" (Some [ "fresh" ]) (Qcache.find c k);
  check Alcotest.int "other graphs keep generation 0" 0 (Qcache.generation c ~graph:"other")

(* A later delta refuses exactly the answers it would have dropped had
   they been cached before it ran. *)
let test_qcache_add_at_labels () =
  let c = Qcache.create () in
  let k q = { Qcache.graph = "g"; version = 1; query = q } in
  let before = Qcache.generation c ~graph:"g" in
  ignore (Qcache.invalidate_delta c ~graph:"g" ~labels:[ "tram" ] ~new_nodes:0);
  ignore (Qcache.invalidate_delta c ~graph:"g" ~labels:[ "funicular" ] ~new_nodes:2);
  let add ?labels ?nullable q = Qcache.add_at c ~generation:before ?labels ?nullable (k q) [ q ] in
  check Alcotest.bool "disjoint label kept" true (add ~labels:[ "metro" ] ~nullable:false "metro");
  check Alcotest.bool "shared label refused" false
    (add ~labels:[ "bus"; "tram" ] ~nullable:false "tram.bus");
  check Alcotest.bool "nullable after new nodes refused" false
    (add ~labels:[ "metro" ] ~nullable:true "metro*");
  check Alcotest.bool "unknown labels refused" false (add "opaque");
  check Alcotest.(option (list string)) "kept entry served" (Some [ "metro" ]) (Qcache.find c (k "metro"));
  check Alcotest.(option (list string)) "refused entry absent" None (Qcache.find c (k "tram.bus"));
  (* a nullable entry survives a later delta that added no nodes *)
  let mid = Qcache.generation c ~graph:"g" in
  ignore (Qcache.invalidate_delta c ~graph:"g" ~labels:[ "tram" ] ~new_nodes:0);
  check Alcotest.bool "nullable kept without new nodes" true
    (Qcache.add_at c ~generation:mid ~labels:[ "metro" ] ~nullable:true (k "metro*") [ "metro*" ])

(* ------------------------------------------------------------------ *)
(* catalog: file backing *)

let test_catalog_file_backing () =
  let g = city ~districts:4 () in
  let path = temp_csr () in
  Fun.protect
    ~finally:(fun () -> cleanup path)
    (fun () ->
      Disk.pack_digraph g ~path;
      let c = Catalog.create () in
      let heap_entry = Catalog.put c ~name:"h" (city ~districts:3 ()) in
      check Alcotest.bool "heap not file_backed" false (Catalog.file_backed heap_entry);
      (match Catalog.add_edges heap_entry [ ("a", "x", "b") ] with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "heap add_edges must be refused");
      let e =
        match Catalog.put_file c ~name:"f" path with
        | Ok e -> e
        | Error err -> Alcotest.failf "put_file: %s" (Disk.open_error_to_string err)
      in
      check Alcotest.bool "file_backed" true (Catalog.file_backed e);
      check Alcotest.int "nodes" (Digraph.n_nodes g) (Catalog.n_nodes e);
      check Alcotest.int "edges" (Digraph.n_edges g) (Catalog.n_edges e);
      check Alcotest.bool "knows tram" true (Catalog.known_label e "tram");
      check Alcotest.bool "no zipline yet" false (Catalog.known_label e "zipline");
      (* lazy materialization memoizes until the overlay grows *)
      let g1 = Catalog.graph e in
      check Alcotest.bool "memoized" true (Catalog.graph e == g1);
      (match Catalog.add_edges e [ ("ghost", "zipline", "D0") ] with
      | Ok delta -> check Alcotest.int "added" 1 delta.Disk.added
      | Error m -> Alcotest.failf "add_edges: %s" m);
      check Alcotest.bool "zipline known after ingest" true (Catalog.known_label e "zipline");
      let g2 = Catalog.graph e in
      check Alcotest.bool "re-materialized" true (g1 != g2);
      check Alcotest.int "overlay edge visible" (Digraph.n_edges g1 + 1) (Digraph.n_edges g2);
      check Alcotest.int "overlay_edges" 1 (Catalog.overlay_edges e);
      (* reload bumps version, same as heap entries *)
      match Catalog.put_file c ~name:"f" path with
      | Ok e2 -> check Alcotest.int "version bump" 2 e2.Catalog.version
      | Error err -> Alcotest.failf "put_file 2: %s" (Disk.open_error_to_string err))

(* ------------------------------------------------------------------ *)
(* server: load_file / add_edges end to end *)

let expect_answer = function
  | P.Answer { nodes; cache; _ } -> (P.Names.to_list nodes, cache)
  | r -> Alcotest.failf "expected answer, got %s" (P.response_to_string r)

let expect_err code = function
  | P.Err e -> check Alcotest.string "error code" code e.P.code
  | r -> Alcotest.failf "expected %s error, got %s" code (P.response_to_string r)

(* Names that take an escape, multibyte UTF-8, and a byte order that
   differs from a case-folded one. *)
let tricky_names =
  [ "N1"; "n2"; "a\"q"; "b\\s"; "c\nd"; "e\x01f"; "\xc3\xa9t\xc3\xa9"; "\xe6\x97\xa5"; "Z"; "m n"; "x\x7f" ]

let answer_queries = [ "a"; "a.b"; "(a+b)*"; "a*.b"; "b~"; "(a+b~)*.a" ]

(* Every answer's "nodes" member is, byte for byte, what the reference
   printer makes of the sorted names of Eval.select: on a miss and on
   the hit that follows, on a heap graph and on its mapped pack; then on
   the pack again after an add_edges batch that interns a tricky-named
   node, where a miss walks the written file's name permutation and
   merges in the overlay's names. *)
let qcheck_answer_bytes =
  let gen =
    QCheck.Gen.(
      let* names = shuffle_l tricky_names in
      let* n = int_range 2 (List.length names) in
      let names = List.filteri (fun i _ -> i < n) names in
      let node = int_bound (n - 1) in
      let* edges = list_size (int_bound 14) (triple node (oneofl [ "a"; "b" ]) node) in
      let* fresh = oneofl [ "A"; "\x00"; "m"; "a\"r"; "n2\xc3\xa9"; "\xf0\x9f\x98\x80"; "zz" ] in
      (* [true]: fresh -l-> names[i]; [false]: names[i] -l-> fresh *)
      let* ingest = list_size (int_range 1 3) (triple bool (oneofl [ "a"; "b" ]) node) in
      return (names, edges, fresh, ingest))
  in
  let print (names, edges, fresh, ingest) =
    Printf.sprintf "names %s edges %s ingest %S %s" (String.concat "," (List.map String.escaped names))
      (String.concat " " (List.map (fun (s, l, d) -> Printf.sprintf "%d-%s->%d" s l d) edges))
      fresh
      (String.concat " "
         (List.map (fun (out, l, i) -> Printf.sprintf "%s%s%d" (if out then "->" else "<-") l i) ingest))
  in
  QCheck.Test.make ~name:"server: answer bytes = reference, miss then hit, heap and mapped"
    ~count:60 (QCheck.make ~print gen) (fun (names, edges, fresh, ingest) ->
      let g = Digraph.create () in
      List.iter (fun nm -> ignore (Digraph.add_node g nm)) names;
      List.iter (fun (s, l, d) -> Digraph.link g (List.nth names s) l (List.nth names d)) edges;
      let json = Filename.temp_file "gps_ooc" ".json" and csr = temp_csr () in
      Fun.protect
        ~finally:(fun () ->
          cleanup json;
          cleanup csr)
        (fun () ->
          Out_channel.with_open_bin json (fun oc ->
              output_string oc (Gps_graph.Json.to_string g));
          Disk.pack_digraph g ~path:csr;
          let t = Srv.create () in
          (match Srv.handle t (P.Load { name = "heap"; source = P.Path json }) with
          | P.Loaded _ -> ()
          | r -> Alcotest.failf "load: %s" (P.response_to_string r));
          (match Srv.handle t (P.Load_file { name = "disk"; path = csr }) with
          | P.Loaded _ -> ()
          | r -> Alcotest.failf "load_file: %s" (P.response_to_string r));
          let answers_match g graphs =
            List.for_all
              (fun qs ->
                let sel = Eval.select g (parse qs) in
                let selected =
                  List.filter_map
                    (fun v -> if sel.(v) then Some (Digraph.node_name g v) else None)
                    (Digraph.nodes g)
                in
                let expected =
                  Test_extensions_suite.reference_to_string
                    (Gps_graph.Json.Array
                       (List.map (fun s -> Gps_graph.Json.String s) (List.sort compare selected)))
                in
                List.for_all
                  (fun graph ->
                    let ask () =
                      Srv.handle_line t
                        (P.request_to_string
                           (P.Query { graph; query = qs; explain = false; deadline_ms = None }))
                    in
                    let first = ask () in
                    let second = ask () in
                    let member = "\"nodes\":" ^ expected ^ ",\"cache\":\"" in
                    Test_graph_suite.contains ~needle:member first
                    && Test_graph_suite.contains ~needle:(member ^ "hit\"") second
                    || QCheck.Test.fail_reportf "%s on %s: expected %s, got %s then %s" qs graph
                         expected first second)
                  graphs)
              answer_queries
          in
          let triples =
            List.map
              (fun (out, l, i) ->
                let v = List.nth names i in
                if out then (fresh, l, v) else (v, l, fresh))
              ingest
          in
          answers_match g [ "heap"; "disk" ]
          && (match Srv.handle t (P.Add_edges { graph = "disk"; edges = triples }) with
             | P.Edges_added _ -> true
             | r -> QCheck.Test.fail_reportf "add_edges: %s" (P.response_to_string r))
          &&
          let g' = Digraph.copy g in
          List.iter (fun (s, l, d) -> Digraph.link g' s l d) triples;
          answers_match g' [ "disk" ]))

let test_server_ooc () =
  let g = city ~districts:6 ~seed:13 () in
  let path = temp_csr () in
  Fun.protect
    ~finally:(fun () -> cleanup path)
    (fun () ->
      Disk.pack_digraph g ~path;
      let t = Srv.create () in
      (* the same graph twice: heap-parsed and mmapped *)
      (match
         Srv.handle t
           (P.Load { name = "heap"; source = P.Text (Gps_graph.Codec.to_string g) })
       with
      | P.Loaded _ -> ()
      | r -> Alcotest.failf "heap load failed: %s" (P.response_to_string r));
      (match Srv.handle t (P.Load_file { name = "disk"; path }) with
      | P.Loaded { nodes; edges; _ } ->
          check Alcotest.int "loaded nodes" (Digraph.n_nodes g) nodes;
          check Alcotest.int "loaded edges" (Digraph.n_edges g) edges
      | r -> Alcotest.failf "load_file failed: %s" (P.response_to_string r));
      (* byte-identical answers across backings *)
      List.iter
        (fun qs ->
          let ask graph =
            expect_answer
              (Srv.handle t (P.Query { graph; query = qs; explain = false; deadline_ms = None }))
          in
          let h, _ = ask "heap" and d, _ = ask "disk" in
          check Alcotest.(list string) (qs ^ " same answer") h d)
        queries;
      (* stats agree without materializing *)
      (match Srv.handle t (P.Stats { graph = "disk" }) with
      | P.Stats_of { nodes; edges; labels; _ } ->
          check Alcotest.int "stats nodes" (Digraph.n_nodes g) nodes;
          check Alcotest.int "stats edges" (Digraph.n_edges g) edges;
          check Alcotest.(list string) "stats labels" (List.sort compare (Digraph.labels g)) labels
      | r -> Alcotest.failf "stats failed: %s" (P.response_to_string r));
      (* warm two cache entries with disjoint alphabets *)
      let q_metro = "metro.metro" (* not nullable, no tram *) in
      let q_tram = "(tram+bus)*.cinema" in
      let ask q =
        expect_answer
          (Srv.handle t (P.Query { graph = "disk"; query = q; explain = false; deadline_ms = None }))
      in
      ignore (ask q_metro);
      ignore (ask q_tram);
      check Alcotest.bool "metro warmed" true (snd (ask q_metro) = `Hit);
      check Alcotest.bool "tram warmed" true (snd (ask q_tram) = `Hit);
      (* a tram ingest drops exactly the tram-mentioning entries: of the
         seven warmed for "disk" (the five shared queries plus the two
         above, with q_tram deduping against the shared list), the three
         whose alphabet meets {tram} go; nothing is nullable, so the new
         node costs nothing extra *)
      (match
         Srv.handle t
           (P.Add_edges { graph = "disk"; edges = [ ("hub", "tram", "D0"); ("D1", "tram", "hub") ] })
       with
      | P.Edges_added { added; new_nodes; overlay_edges; invalidated; _ } ->
          check Alcotest.int "added" 2 added;
          check Alcotest.int "new nodes" 1 new_nodes;
          check Alcotest.int "overlay" 2 overlay_edges;
          check Alcotest.int "invalidated tram entries" 3 invalidated
      | r -> Alcotest.failf "add_edges failed: %s" (P.response_to_string r));
      check Alcotest.bool "metro stayed warm" true (snd (ask q_metro) = `Hit);
      check Alcotest.bool "tram re-evaluates" true (snd (ask q_tram) = `Miss);
      (* the re-evaluated answer matches a from-scratch heap evaluation
         of base + overlay *)
      let g' = Digraph.copy g in
      Digraph.link g' "hub" "tram" "D0";
      Digraph.link g' "D1" "tram" "hub";
      let sel = Eval.select g' (parse q_tram) in
      let expect =
        List.sort compare
          (List.filter_map
             (fun v -> if sel.(v) then Some (Digraph.node_name g' v) else None)
             (Digraph.nodes g'))
      in
      check Alcotest.(list string) "overlay answer correct" expect (fst (ask q_tram));
      (* error paths: heap graphs refuse ingest; junk files are typed *)
      expect_err "bad-state"
        (Srv.handle t (P.Add_edges { graph = "heap"; edges = [ ("a", "x", "b") ] }));
      expect_err "io" (Srv.handle t (P.Load_file { name = "nope"; path = "/nonexistent.csr" }));
      let junk = Filename.temp_file "gps_ooc_junk" ".csr" in
      Fun.protect
        ~finally:(fun () -> cleanup junk)
        (fun () ->
          Out_channel.with_open_bin junk (fun oc ->
              Out_channel.output_string oc "this is not a packed graph at all, not even close");
          expect_err "bad-file" (Srv.handle t (P.Load_file { name = "junk"; path = junk }))))

(* Inverse symbols on the mapped path: the kernel walks the base file's
   out-cells, then the overlay's out-edges, and the cache invalidates
   [l~] entries on a batch of [l] edges. *)
let test_server_twoway () =
  with_packed (Gps_graph.Datasets.figure1 ()) (fun path _ ->
      let t = Srv.create () in
      (match Srv.handle t (P.Load_file { name = "f1"; path }) with
      | P.Loaded _ -> ()
      | r -> Alcotest.failf "load_file failed: %s" (P.response_to_string r));
      let ask q =
        expect_answer
          (Srv.handle t (P.Query { graph = "f1"; query = q; explain = false; deadline_ms = None }))
      in
      let answer q = List.sort compare (fst (ask q)) in
      check Alcotest.(list string) "bus~ on the base" [ "N1"; "N3"; "N4" ] (answer "bus~");
      check Alcotest.(list string) "cinema~.tram~ on the base" [ "C1" ] (answer "cinema~.tram~");
      check Alcotest.bool "bus~ cached" true (snd (ask "bus~") = `Hit);
      (match Srv.handle t (P.Add_edges { graph = "f1"; edges = [ ("N5", "bus", "X") ] }) with
      | P.Edges_added { new_nodes; invalidated; _ } ->
          check Alcotest.int "new node" 1 new_nodes;
          check Alcotest.int "only the bus~ entry goes" 1 invalidated
      | r -> Alcotest.failf "add_edges failed: %s" (P.response_to_string r));
      check Alcotest.bool "cinema~.tram~ stayed warm" true (snd (ask "cinema~.tram~") = `Hit);
      check Alcotest.bool "bus~ re-evaluates" true (snd (ask "bus~") = `Miss);
      check Alcotest.(list string) "bus~ over the overlay" [ "N1"; "N3"; "N4"; "X" ] (answer "bus~");
      ignore (Srv.handle t (P.Add_edges { graph = "f1"; edges = [ ("N5", "tram", "N6") ] }));
      check Alcotest.(list string) "cinema~.tram~ over the overlay" [ "C1"; "C2" ]
        (answer "cinema~.tram~"))

(* ------------------------------------------------------------------ *)
(* store: compaction emits the binary snapshot *)

let test_store_compact_snapshot () =
  let path = Filename.temp_file "gps_ooc_store" ".log" in
  let csr = path ^ ".csr" in
  Fun.protect
    ~finally:(fun () ->
      cleanup path;
      cleanup csr)
    (fun () ->
      let s = Store.openfile path in
      Store.link s "a" "x" "b";
      Store.link s "b" "x" "c";
      Store.link s "c" "y" "a";
      ignore (Store.add_node s "lonely");
      Store.compact s;
      check Alcotest.bool "snapshot emitted" true (Sys.file_exists csr);
      (* the log restarts empty (just the WAL magic) and carries only the tail *)
      check Alcotest.int "log truncated"
        (String.length Gps_graph.Wal.magic)
        (In_channel.with_open_bin path (fun ic -> In_channel.length ic) |> Int64.to_int);
      Store.link s "c" "z" "d";
      Store.close s;
      let tail = In_channel.with_open_bin path In_channel.input_all in
      check Alcotest.bool "tail is short" true (String.length tail < 64);
      (* restart = mmap + tail replay *)
      let s2 = Store.openfile path in
      let g = Store.graph s2 in
      check Alcotest.int "all edges back" 4 (Digraph.n_edges g);
      check Alcotest.int "all nodes back" 5 (Digraph.n_nodes g);
      check Alcotest.bool "lonely survived" true (Digraph.node_of_name g "lonely" <> None);
      Store.close s2;
      (* the snapshot itself is a valid packed graph *)
      let d = open_ok csr in
      check Alcotest.int "snapshot edges" 3 (Disk.base_edges d))

let suite =
  [
    ( "ooc.disk_csr",
      [
        Alcotest.test_case "city round-trip" `Quick test_roundtrip_city;
        Alcotest.test_case "to_digraph round-trip" `Quick test_to_digraph_roundtrip;
        Alcotest.test_case "typed open errors" `Quick test_open_errors;
        Alcotest.test_case "delta overlay semantics" `Quick test_overlay;
        Alcotest.test_case "writes resolve a repeated name to its first id" `Quick
          test_overlay_repeated_names;
        Alcotest.test_case "streamed pack is deterministic" `Quick
          test_pack_uniform_deterministic;
        QCheck_alcotest.to_alcotest qcheck_roundtrip;
        QCheck_alcotest.to_alcotest qcheck_one_layout;
        Alcotest.test_case "figure1 packed bytes pinned" `Quick test_figure1_bytes;
      ] );
    ( "ooc.eval",
      [
        Alcotest.test_case "heap = mapped = mapped+overlay" `Quick test_eval_equivalence;
        Alcotest.test_case "incremental agrees over overlay" `Quick
          test_incremental_agrees_over_overlay;
        Alcotest.test_case "resumed runs: answers, reports, older views" `Quick test_resume_views;
        Alcotest.test_case "resumed two-way runs" `Quick test_resume_twoway;
        Alcotest.test_case "an interrupted resume drops its entry" `Quick test_resume_interrupted;
        Alcotest.test_case "a resume after new nodes fits the pooled queue" `Quick
          test_resume_fits_pooled_scratch;
        Alcotest.test_case "resumed runs under concurrent writes" `Quick test_resume_concurrent;
        Alcotest.test_case "live entries are keyed by the automaton" `Quick
          test_resume_keyed_by_automaton;
        Alcotest.test_case "live table: views, exclusivity and caps" `Quick test_live_table;
      ] );
    ( "ooc.server",
      [
        Alcotest.test_case "qcache label-aware delta invalidation" `Quick test_qcache_delta;
        Alcotest.test_case "qcache refuses inserts older than a delta" `Quick
          test_qcache_generation;
        Alcotest.test_case "qcache add_at refuses only what a delta touched" `Quick
          test_qcache_add_at_labels;
        Alcotest.test_case "catalog file backing" `Quick test_catalog_file_backing;
        Alcotest.test_case "load_file / add_edges end to end" `Quick test_server_ooc;
        Alcotest.test_case "two-way queries over the overlay" `Quick test_server_twoway;
        QCheck_alcotest.to_alcotest qcheck_answer_bytes;
        Alcotest.test_case "store compaction emits binary snapshot" `Quick
          test_store_compact_snapshot;
      ] );
  ]
