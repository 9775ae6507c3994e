(* ooc: the out-of-core path — packed binary CSR files vs the in-heap
   evaluation story.

   For each rung of a node-count ladder the harness streams a uniform
   random graph straight to a packed file (never materializing it),
   then measures:

   - pack:      streaming pack wall time and the resulting file size;
   - cold mmap: open_map + one evaluation — the page-fault-inclusive
     first-query latency an operator sees right after [load_file];
   - warm mmap: the same query re-run on the already-faulted mapping;
   - warm heap: materialize + [Csr.freeze] (timed separately) and the
     same query on the frozen heap CSR — the baseline the mapped path
     is allowed to approach but not beat;
   - ingest:    overlay append throughput, batches of fresh edges
     through {!Gps.Graph.Disk_csr.add_edges}, plus the warm-mapped
     query latency again with the overlay in place.

   Every mapped evaluation is checked bit-for-bit against the heap
   evaluation of the same rung before any timing is reported. Timings
   are best-of-3 wall clock (cold mmap is necessarily once-per-pack:
   it re-packs per repeat so each run really is cold).

   GPS_OOC=tiny shrinks the ladder for CI smoke runs. *)

module Json = Gps.Graph.Json
module Clock = Gps.Obs.Clock
module Digraph = Gps.Graph.Digraph
module Csr = Gps.Graph.Csr
module Disk = Gps.Graph.Disk_csr
module Generators = Gps.Graph.Generators
module Eval = Gps.Query.Eval

let num x = Json.Number x
let int_j n = num (float_of_int n)

let timed f =
  let t0 = Clock.now_ns () in
  let r = f () in
  (r, Clock.ns_to_s (Clock.elapsed_ns t0))

let best_of n f =
  let best = ref infinity in
  for _ = 1 to n do
    let _, t = timed f in
    if t < !best then best := t
  done;
  !best

let labels = [ "a"; "b"; "c"; "d" ]
let query = "(a+b)*.c"

let rung ~repeats ~nodes =
  let edges = 4 * nodes in
  let path = Filename.temp_file "gps_bench_ooc" ".csr" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let goal = Workloads.q query in
      let pack () = Generators.pack_uniform ~path ~nodes ~edges ~labels ~seed:8 in
      let _, pack_s = timed pack in
      (* cold: a fresh pack per repeat so the page cache state is the
         honest just-packed one, then open + evaluate in one breath *)
      let cold_s =
        best_of repeats (fun () ->
            pack ();
            match Disk.open_map path with
            | Ok d -> ignore (Eval.run (Mapped (Disk.snapshot d)) goal)
            | Error e -> failwith (Disk.open_error_to_string e))
      in
      let disk =
        match Disk.open_map path with
        | Ok d -> d
        | Error e -> failwith (Disk.open_error_to_string e)
      in
      let view = Disk.snapshot disk in
      let select source = fst (Result.get_ok (Eval.run source goal)) in
      let mapped_sel = select (Mapped view) in
      let warm_mmap_s = best_of repeats (fun () -> ignore (select (Mapped view))) in
      (* the heap baseline: full materialization + freeze, timed, then
         the same query on the frozen CSR *)
      let (g, csr), materialize_s =
        timed (fun () ->
            let g = Disk.to_digraph view in
            (g, Csr.freeze g))
      in
      let heap_sel = select (Frozen (g, csr)) in
      if heap_sel <> mapped_sel then failwith "ooc: mapped evaluation disagrees with heap";
      let warm_heap_s = best_of repeats (fun () -> ignore (select (Frozen (g, csr)))) in
      (* overlay ingest: fresh-node edges in batches, so every append
         exercises interning + publication, none dedups away *)
      let batch = 1_000 and batches = 10 in
      let mk_batch b =
        List.init batch (fun i ->
            let s = Printf.sprintf "x%d_%d" b i in
            (s, List.nth labels (i mod List.length labels), Printf.sprintf "y%d_%d" b i))
      in
      let ingest_s =
        let _, t =
          timed (fun () ->
              for b = 1 to batches do
                ignore (Disk.add_edges disk (mk_batch b))
              done)
        in
        t
      in
      let overlay_view = Disk.snapshot disk in
      let overlay_query_s =
        best_of repeats (fun () -> ignore (select (Mapped overlay_view)))
      in
      Json.Object
        [
          ("nodes", int_j nodes);
          ("edges", int_j (Disk.base_edges disk));
          ("file_bytes", int_j (Disk.file_bytes disk));
          ("pack_s", num pack_s);
          ("cold_mmap_query_s", num cold_s);
          ("warm_mmap_query_s", num warm_mmap_s);
          ("materialize_s", num materialize_s);
          ("warm_heap_query_s", num warm_heap_s);
          ("mapped_vs_heap", num (warm_mmap_s /. warm_heap_s));
          ("overlay_ingest_edges_per_s", num (float_of_int (batch * batches) /. ingest_s));
          ("overlay_query_s", num overlay_query_s);
        ])

let run () =
  let tiny = match Sys.getenv_opt "GPS_OOC" with Some "tiny" -> true | _ -> false in
  let sizes = if tiny then [ 2_000; 10_000 ] else [ 10_000; 100_000; 1_000_000 ] in
  let repeats = if tiny then 1 else 3 in
  let rows = List.map (fun nodes -> rung ~repeats ~nodes) sizes in
  let doc =
    Json.Object
      [
        ("experiment", Json.String "ooc");
        ("query", Json.String query);
        ("labels", Json.Array (List.map (fun l -> Json.String l) labels));
        ("repeats_best_of", int_j repeats);
        ("sizes", Json.Array rows);
      ]
  in
  print_endline (Json.value_to_string ~pretty:true doc)
