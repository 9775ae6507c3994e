(* Out-of-core graphs: the packed binary CSR file ({!Gps_graph.Disk_csr}),
   its delta overlay, the backing-generic evaluation path, label-aware
   result-cache invalidation, the server's load_file/add_edges ops, and
   the compacted store's binary snapshot. *)

module Digraph = Gps_graph.Digraph
module Disk = Gps_graph.Disk_csr
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
  (match dir with
  | `Out -> Disk.iter_out view v (fun l w -> acc := (Disk.label_name view l, Disk.node_name view w) :: !acc)
  | `In -> Disk.iter_in view v (fun l w -> acc := (Disk.label_name view l, Disk.node_name view w) :: !acc));
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

(* ------------------------------------------------------------------ *)
(* evaluation equivalence: heap vs mapped vs mapped+overlay *)

let queries =
  [ "(tram+bus)*.cinema"; "metro.metro*"; "bus"; "in~.tram"; "(tram+metro)*.museum" ]

let select_mapped v q = fst (Result.get_ok (Eval.run (Eval.Mapped v) q))

let test_eval_equivalence () =
  let g = city ~districts:10 ~seed:11 () in
  with_packed g (fun _path d ->
      (* base: empty overlay takes the flat Base_kernel path *)
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
  | P.Answer { nodes; cache; _ } -> (nodes, cache)
  | r -> Alcotest.failf "expected answer, got %s" (P.response_to_string r)

let expect_err code = function
  | P.Err e -> check Alcotest.string "error code" code e.P.code
  | r -> Alcotest.failf "expected %s error, got %s" code (P.response_to_string r)

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
        Alcotest.test_case "streamed pack is deterministic" `Quick
          test_pack_uniform_deterministic;
        QCheck_alcotest.to_alcotest qcheck_roundtrip;
      ] );
    ( "ooc.eval",
      [
        Alcotest.test_case "heap = mapped = mapped+overlay" `Quick test_eval_equivalence;
        Alcotest.test_case "incremental agrees over overlay" `Quick
          test_incremental_agrees_over_overlay;
      ] );
    ( "ooc.server",
      [
        Alcotest.test_case "qcache label-aware delta invalidation" `Quick test_qcache_delta;
        Alcotest.test_case "catalog file backing" `Quick test_catalog_file_backing;
        Alcotest.test_case "load_file / add_edges end to end" `Quick test_server_ooc;
        Alcotest.test_case "two-way queries over the overlay" `Quick test_server_twoway;
        Alcotest.test_case "store compaction emits binary snapshot" `Quick
          test_store_compact_snapshot;
      ] );
  ]
