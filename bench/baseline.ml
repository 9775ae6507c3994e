(* baseline: one JSON document pinning the engine's work counters plus
   coarse wall-clock for a fixed, deterministic workload.

   This is the experiment behind the committed BENCH_baseline.json:
   wall_s varies by machine, but every counter is an exact work count
   (product states built, merges attempted, witness expansions, session
   steps) for the scripted workload, so a diff of the committed file
   flags algorithmic regressions rather than machine noise. *)

module Json = Gps.Graph.Json
module Clock = Gps.Obs.Clock
module Counter = Gps.Obs.Counter

let num x = Json.Number x
let int_j n = num (float_of_int n)

let counters_json () =
  Json.Object (List.map (fun (k, v) -> (k, int_j v)) (Counter.snapshot_nonzero ()))

(* Reset counters, run [f], report its wall clock and the exact counter
   deltas it produced. *)
let segment f =
  Counter.reset_all ();
  let t0 = Clock.now_ns () in
  f ();
  let wall = Clock.ns_to_s (Clock.elapsed_ns t0) in
  Json.Object [ ("wall_s", num wall); ("counters", counters_json ()) ]

let run () =
  let w = Workloads.city ~districts:50 ~seed:8 in
  let g = w.Workloads.graph in
  let goal = Workloads.q "(tram+bus)*.cinema" in
  let sel = Gps.Query.Eval.select g goal in
  let nodes = Gps.Graph.Digraph.nodes g in
  let pos = List.filteri (fun i _ -> i < 3) (List.filter (fun v -> sel.(v)) nodes) in
  let neg = List.filteri (fun i _ -> i < 3) (List.filter (fun v -> not sel.(v)) nodes) in
  let sample = List.fold_left Gps.Learning.Sample.add_pos Gps.Learning.Sample.empty pos in
  let sample = List.fold_left Gps.Learning.Sample.add_neg sample neg in
  let eval_seg = segment (fun () -> ignore (Gps.Query.Eval.select g goal)) in
  let learn_seg = segment (fun () -> ignore (Gps.Learning.Learner.learn g sample)) in
  let session_seg = segment (fun () -> ignore (Gps.specify_interactively g ~goal)) in
  let dispatch_seg =
    let module P = Gps.Server.Protocol in
    let module Srv = Gps.Server.Server in
    let text = Gps.Graph.Codec.to_string g in
    let srv = Srv.create () in
    (match Srv.handle srv (P.Load { name = "city"; source = P.Text text }) with
    | P.Loaded _ -> ()
    | _ -> failwith "baseline: load failed");
    let line = P.request_to_string (P.Query { graph = "city"; query = "(tram+bus)*.cinema"; explain = false; deadline_ms = None }) in
    segment (fun () ->
        (* the wire path counts server.dispatches; the second one hits
           the query cache *)
        ignore (Srv.handle_line srv line);
        ignore (Srv.handle_line srv line))
  in
  let histogram_seg =
    (* overhead of the shared latency histogram on the hot path: records
       per second, uncontended and with 4 domains hammering one
       histogram. ops and the resulting distribution are exact; only the
       ns/op figures are machine-dependent. *)
    let module Histogram = Gps.Obs.Histogram in
    let ops = 1_000_000 in
    let fill h = for i = 0 to ops - 1 do Histogram.record h (i land 0xFFFF) done in
    let h = Histogram.create "bench.histogram_seq" in
    let t0 = Clock.now_ns () in
    fill h;
    let seq_ns = Int64.to_float (Clock.elapsed_ns t0) /. float_of_int ops in
    let hc = Histogram.create "bench.histogram_par" in
    let t0 = Clock.now_ns () in
    let domains = Array.init 4 (fun _ -> Domain.spawn (fun () -> fill hc)) in
    Array.iter Domain.join domains;
    let par_ns =
      Int64.to_float (Clock.elapsed_ns t0) /. float_of_int (4 * ops)
    in
    let s = Histogram.snapshot hc in
    Json.Object
      [
        ("ops", int_j ops);
        ("seq_ns_per_record", num seq_ns);
        ("contended_ns_per_record", num par_ns);
        ("contended_count", int_j s.Histogram.count);
        ("contended_max", int_j s.Histogram.max);
      ]
  in
  let deadline_overhead_seg =
    (* cost of the cooperative deadline checkpoints on the evaluation
       hot path, on a graph big enough that per-call setup does not
       dominate. [none] is the production default (Deadline.none is a
       physical-equality fast path inside the kernel); [armed] pays a
       monotonic clock read per BFS level and every 512 expansions.
       reps are exact; the wall figures and ratios are
       machine-dependent (none/plain is expected within a couple of
       percent of 1). *)
    let module Eval = Gps.Query.Eval in
    let module Deadline = Gps.Obs.Deadline in
    let w = Workloads.uniform ~nodes:20_000 ~seed:9 in
    let big = w.Workloads.graph in
    let source = Eval.Frozen (big, Gps.Graph.Csr.freeze big) in
    let q = Workloads.q "(a+b)*.c.(a+b+c)*" in
    let reps = 20 in
    (* warm up caches/allocator so run order does not bias the ratios *)
    ignore (Eval.run source q);
    ignore (Eval.run source q);
    let time f =
      let t0 = Clock.now_ns () in
      for _ = 1 to reps do
        f ()
      done;
      Clock.ns_to_s (Clock.elapsed_ns t0)
    in
    let plain_s = time (fun () -> ignore (Eval.run source q)) in
    let none_s =
      time (fun () ->
          match Eval.run ~deadline:Deadline.none source q with
          | Ok _ -> ()
          | Error _ -> failwith "baseline: unguarded select interrupted")
    in
    let far = Deadline.after_ms 3_600_000.0 in
    let armed_s =
      time (fun () ->
          match Eval.run ~deadline:far source q with
          | Ok _ -> ()
          | Error _ -> failwith "baseline: far-future deadline fired")
    in
    Json.Object
      [
        ("reps", int_j reps);
        ("graph_nodes", int_j (Gps.Graph.Digraph.n_nodes big));
        ("plain_wall_s", num plain_s);
        ("none_wall_s", num none_s);
        ("armed_wall_s", num armed_s);
        ("none_overhead_ratio", num (none_s /. plain_s));
        ("armed_overhead_ratio", num (armed_s /. plain_s));
      ]
  in
  let doc =
    Json.Object
      [
        ("experiment", Json.String "baseline");
        ( "graph",
          Json.Object
            [
              ("name", Json.String w.Workloads.name);
              ("nodes", int_j (Gps.Graph.Digraph.n_nodes g));
              ("edges", int_j (Gps.Graph.Digraph.n_edges g));
            ] );
        ("query", Json.String "(tram+bus)*.cinema");
        ( "segments",
          Json.Object
            [
              ("eval", eval_seg);
              ("learn", learn_seg);
              ("session", session_seg);
              ("dispatch", dispatch_seg);
              ("histogram", histogram_seg);
              ("deadline_overhead", deadline_overhead_seg);
            ] );
      ]
  in
  print_endline (Json.value_to_string ~pretty:true doc)
