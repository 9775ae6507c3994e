(* The traced run: the same generated requests replayed in-process, one
   at a time, through the public function of each layer, on every core
   of the host. The evaluation kernel's pool is sized as shipped
   (GPS_DOMAINS, else one domain per core), so its parallel levels are
   measured too; the kernel's counts depend on the frontiers and the
   pool size alone, and repeat exactly on a given host.

   Four pipelines see every op in the same order, so their caches and
   sessions stay in step:
   - A: [Server.handle_line] with a memory trace sink on;
   - D: [Server.handle_line] on a twin server with tracing off (the
     tracing-overhead baseline);
   - B: [Protocol.decode_request], [Server.handle],
     [Protocol.response_to_string] — the wire entry point taken apart;
   - C: the layers below [Server.handle] called one by one on a shadow
     catalog, cache, session engine and journal: rewrite, NFA compile,
     cache probe, evaluation kernel, add_edges; session request, answer
     and journal append.
   Spans are opened here, around each call; the spans and counters the
   library emits itself are read, never added to. *)

module Trace = Gps.Obs.Trace
module Counter = Gps.Obs.Counter
module Srv = Gps.Server.Server
module P = Gps.Server.Protocol
module Catalog = Gps.Server.Catalog
module Qcache = Gps.Server.Qcache
module Durability = Gps.Server.Durability
module Rpq = Gps.Query.Rpq
module Eval = Gps.Query.Eval
module Rewrite = Gps.Query.Rewrite
module Session = Gps.Interactive.Session
module Journal = Gps.Interactive.Journal
module Json = Gps.Graph.Json
module I = Inputs
module St = Streams

let buf = Trace.buffer ~capacity:16_384 ()
let sink = Trace.Memory buf
let dropped = ref 0

(* Take the spans completed since the last call. Clearing frees the
   ring, and the next span to complete allocates a fresh one: a pad span
   pays that here, outside any measured call. *)
let collect () =
  let spans = Trace.buffer_spans buf in
  dropped := !dropped + Trace.buffer_dropped buf;
  Trace.buffer_clear buf;
  if Trace.enabled () then Trace.with_span "bench.pad" ignore;
  spans

(* per span name: occurrences, summed duration, summed self time *)
type acc = { mutable count : int; mutable dur : float; mutable self : float }

let table : (string, acc) Hashtbl.t = Hashtbl.create 64

let absorb ?(only_bench = false) spans =
  let child = Hashtbl.create 16 in
  List.iter
    (fun (s : Trace.span) ->
      let prev = Option.value ~default:0L (Hashtbl.find_opt child s.Trace.parent) in
      Hashtbl.replace child s.Trace.parent (Int64.add prev s.Trace.dur_ns))
    spans;
  List.iter
    (fun (s : Trace.span) ->
      if (not only_bench) || String.starts_with ~prefix:"bench." s.Trace.name then begin
        let a =
          match Hashtbl.find_opt table s.Trace.name with
          | Some a -> a
          | None ->
              let a = { count = 0; dur = 0.; self = 0. } in
              Hashtbl.add table s.Trace.name a;
              a
        in
        let dur = Int64.to_float s.Trace.dur_ns in
        let kids = Int64.to_float (Option.value ~default:0L (Hashtbl.find_opt child s.Trace.id)) in
        a.count <- a.count + 1;
        a.dur <- a.dur +. dur;
        a.self <- a.self +. (dur -. kids)
      end)
    spans

let dur_of name spans =
  List.fold_left
    (fun acc (s : Trace.span) -> if s.Trace.name = name then Int64.add acc s.Trace.dur_ns else acc)
    0L spans
  |> Int64.to_float

let mean_dur name = match Hashtbl.find_opt table name with Some a when a.count > 0 -> a.dur /. float_of_int a.count | _ -> 0.
let mean_self name = match Hashtbl.find_opt table name with Some a when a.count > 0 -> a.self /. float_of_int a.count | _ -> 0.
let total_self names =
  List.fold_left (fun (n, s) name -> match Hashtbl.find_opt table name with Some a -> (n + a.count, s +. a.self) | None -> (n, s)) (0, 0.) names

let span name f = Trace.with_span name (fun _ -> f ())

let c_runs = Counter.make "eval.runs"
let c_visits = Counter.make "eval.frontier_visits"
let learn_counters = [ "witness.searches"; "witness.expansions"; "rpni.consistency_checks" ]

(* ------------------------------------------------------------------ *)
(* what a workload hands the replay *)

type load = Heap of string * string (* name, edge-list file *) | Packed of string * string

type spec = {
  loads : load list;
  state : bool;  (** servers journal sessions (the session workload) *)
  ops : int;  (** ops replayed *)
  warm : int;  (** leading ops replayed but not measured *)
  line : int -> string;
  check : int -> string -> bool;
  session_of : int -> (I.script * int * int) option;  (** (script, session id, op within script) *)
}

(* Reconciliation. The stages are timed on C, [Server.handle] on B: two
   separate calls, so per-call jitter (a GC slice, a descheduled vCPU, a
   parallel level waiting on a descheduled domain) lands on one and not
   the other. A request reconciles when its stage sum is at most
   [recon_rel] times its handle time plus [recon_abs_ns]; at most
   [recon_max_miss] of the requests may miss, and the median ratio of
   stage sum to handle time must stay at or below [recon_median], which
   is what a stage counted twice or a stage outside [Server.handle]
   would break. On a 2-vCPU VM under a host-wide slowdown, 10 % of
   q-cold's requests missed; 0-2 % otherwise. *)
let recon_rel = 3.0
let recon_abs_ns = 50_000.
let recon_max_miss = 0.20
let recon_median = 1.5

type result = {
  metrics : (string * float) list;
  attempted : int;
  failed : int;
  failures : string list;  (** reconciliation and consistency checks that failed *)
  notes : string list;
  hit_ratio : float;  (** B's cache over the measured ops *)
  runs_after_warm : int;  (** [eval.runs] during B's measured [Server.handle] calls *)
  journals_checked : int;
  delta_invalidations : float;
}

let fresh_dir d =
  Wire.rm_rf d;
  Unix.mkdir d 0o755

let make_server ~work ~spec tag =
  let state_dir =
    if spec.state then begin
      let d = Filename.concat work ("trace-state-" ^ tag) in
      fresh_dir d;
      Some d
    end
    else None
  in
  let t = Srv.create ~config:{ Srv.default_config with Srv.state_dir } () in
  List.iter
    (fun l ->
      let req =
        match l with
        | Heap (name, path) -> P.Load { name; source = P.Path path }
        | Packed (name, path) -> P.Load_file { name; path }
      in
      match Srv.handle t req with P.Err e -> failwith e.P.message | _ -> ())
    spec.loads;
  (t, state_dir)

let cache_stats t =
  match Srv.handle t (P.Metrics { timings = false }) with
  | P.Metrics_dump v -> (
      match Json.member "cache" v with
      | Some c ->
          let f k = match Json.member k c with Some (Json.Number x) -> x | _ -> 0. in
          (f "hits", f "misses", f "evictions", f "delta_invalidations")
      | None -> failwith "metrics carry no cache block")
  | _ -> failwith "metrics request failed"

(* ------------------------------------------------------------------ *)

let run ~work ~spec ~graph_text ~graph_for_pack ~tcp_rtts ~deadline_ns =
  (* load layer, on this workload's graph: parse its text, open its pack *)
  let parse_ns =
    E2e.median
      (List.init 5 (fun _ ->
           let t0 = Wire.now_ns () in
           ignore (Gps.Graph.Codec.of_string graph_text);
           Int64.to_float (Int64.sub (Wire.now_ns ()) t0)))
  in
  let pack = Filename.concat work "trace-open.csr" in
  Gps.Graph.Disk_csr.pack_digraph graph_for_pack ~path:pack;
  let open_ns =
    E2e.median
      (List.init 5 (fun _ ->
           let t0 = Wire.now_ns () in
           ignore (Result.get_ok (Gps.Graph.Disk_csr.open_map pack));
           Int64.to_float (Int64.sub (Wire.now_ns ()) t0)))
  in
  let a, _ = make_server ~work ~spec "a" in
  let d, _ = make_server ~work ~spec "d" in
  let b, b_state = make_server ~work ~spec "b" in
  (* C: the shadow layers *)
  let catalog = Catalog.create () in
  List.iter
    (function
      | Heap (name, path) -> ignore (Catalog.put catalog ~name (Gps.Graph.Codec.load path))
      | Packed (name, path) -> ignore (Result.get_ok (Catalog.put_file catalog ~name path)))
    spec.loads;
  let cache = Qcache.create ~capacity:Srv.default_config.Srv.cache_capacity () in
  let c_state = Filename.concat work "trace-state-c" in
  fresh_dir c_state;
  let journal = if spec.state then Some (Result.get_ok (Durability.load ~dir:c_state ~policy:Gps.Graph.Wal.Always)) else None in
  let sessions = Hashtbl.create 16 in
  Trace.enable sink;
  let failed = ref 0 and attempted = ref 0 in
  let notes = ref [] in
  let recon_checked = ref 0 and recon_missed = ref 0 in
  let ratios = ref [] in
  let sum_report_visits = ref 0 and sum_counter_visits = ref 0 and visits = ref 0 in
  let kernel_calls = ref 0 and kernel_ns = ref 0. and kernel_alloc = ref 0. in
  let early = ref 0 and par = ref 0 and seqf = ref 0 in
  let nfa_states = ref 0 and compiles = ref 0 in
  let resp_bytes = ref 0 and encodes = ref 0 in
  let handled = ref 0 and gc_minor = ref 0 and gc_major = ref 0 and gc_alloc = ref 0. in
  let runs_after_warm = ref 0 in
  let residual = ref 0. and residual_n = ref 0 in
  let line_traced = ref 0. and line_untraced = ref 0. in
  let untraced_samples = ref [] in
  let overlay = ref 0 in
  let learn_delta = Hashtbl.create 4 in
  let session_steps = ref 0 in
  let wal_checked = ref 0 and wal_bad = ref 0 in
  let questions = ref [] in
  let stats0 = ref (0., 0., 0., 0.) in
  for i = 0 to spec.ops - 1 do
    if i = spec.warm then stats0 := cache_stats b;
    if Wire.now_ns () > deadline_ns then failwith "traced replay overran its time budget";
    let measure = i >= spec.warm in
    let l = spec.line i in
    incr attempted;
    (* A: the wire entry point, traced *)
    ignore (collect ());
    let out_a = span "bench.server.handle_line" (fun () -> Srv.handle_line a l) in
    let sa = collect () in
    (* D: the same, tracing off *)
    Trace.disable ();
    let t0 = Wire.now_ns () in
    ignore (Srv.handle_line d l);
    let untraced = Int64.to_float (Int64.sub (Wire.now_ns ()) t0) in
    Trace.enable sink;
    (* the server's journal of a session about to stop must hold its
       start record plus one record per acked mutation *)
    (match (spec.session_of i, b_state) with
    | Some (s, id, k), Some dir when k = St.script_ops s - 1 ->
        incr wal_checked;
        let path = Filename.concat dir (Printf.sprintf "session-%d.wal" id) in
        (match Gps.Graph.Wal.scan path with
        | Ok r when List.length r.Gps.Graph.Wal.entries = 1 + List.length s.I.answers -> ()
        | _ -> incr wal_bad)
    | _ -> ());
    (* C works from its own, untimed decode of the request *)
    let req = match P.decode_request (Json.value_of_string l) with Ok r -> r | Error e -> failwith e.P.message in
    let write = match req with P.Add_edges _ -> true | _ -> false in
    (* C: the layers one by one *)
    let stage_ns = ref 0. in
    (match req with
    | P.Query { graph; query; _ } ->
        let entry = Option.get (Catalog.find catalog graph) in
        let q, nq, norm =
          span "bench.query.rewrite" (fun () ->
              let q = Rpq.of_string_exn query in
              let nq = Rewrite.specialize_known ~known:(Catalog.known_label entry) q in
              (q, nq, Rpq.to_string nq))
        in
        ignore (span "bench.automata.compile" (fun () -> Gps.Automata.Compile.to_nfa (Rpq.regex nq)));
        if measure then begin
          incr compiles;
          nfa_states := !nfa_states + Gps.Automata.Nfa.n_states (Rpq.nfa nq)
        end;
        let key = { Qcache.graph; version = entry.Catalog.version; query = norm } in
        (match span "bench.qcache.probe" (fun () -> Qcache.find cache key) with
        | Some _ -> ()
        | None ->
            let v0 = Counter.value c_visits and a0 = Gc.allocated_bytes () in
            let t0 = Wire.now_ns () in
            let sel, report =
              match span "bench.eval.kernel" (fun () -> Eval.select_source_report_result (Catalog.eval_source entry) q) with
              | Ok r -> r
              | Error _ -> failwith "kernel interrupted"
            in
            let dt = Int64.to_float (Int64.sub (Wire.now_ns ()) t0) in
            let a1 = Gc.allocated_bytes () and v1 = Counter.value c_visits in
            if measure then begin
              incr kernel_calls;
              kernel_ns := !kernel_ns +. dt;
              kernel_alloc := !kernel_alloc +. (a1 -. a0);
              visits := !visits + report.Eval.frontier_visits;
              early := !early + report.Eval.early_exit_hits;
              par := !par + report.Eval.par_levels;
              seqf := !seqf + report.Eval.seq_fallbacks
            end;
            sum_report_visits := !sum_report_visits + report.Eval.frontier_visits;
            sum_counter_visits := !sum_counter_visits + (v1 - v0);
            let name_of, n =
              match Catalog.eval_source entry with
              | Eval.Frozen (g, _) -> (Gps.Graph.Digraph.node_name g, Gps.Graph.Digraph.n_nodes g)
              | Eval.Mapped v -> (Gps.Graph.Disk_csr.node_name v, Gps.Graph.Disk_csr.n_nodes v)
            in
            let names = ref [] in
            for v = n - 1 downto 0 do if sel.(v) then names := name_of v :: !names done;
            Qcache.add cache ~labels:(Rewrite.base_alphabet nq)
              ~nullable:(Gps.Regex.Regex.nullable (Rpq.regex nq))
              key (List.sort compare !names))
    | P.Add_edges { graph; edges } -> (
        let entry = Option.get (Catalog.find catalog graph) in
        match Catalog.add_edges entry edges with
        | Ok delta ->
            ignore
              (Qcache.invalidate_delta cache ~graph ~labels:delta.Gps.Graph.Disk_csr.labels
                 ~new_nodes:delta.Gps.Graph.Disk_csr.new_nodes)
        | Error m -> failwith m)
    | _ -> (
        match spec.session_of i with
        | None -> ()
        | Some (s, id, k) ->
            let module Dur = Durability in
            let cw = List.map (fun n -> (n, Counter.value (Counter.make n))) ("eval.runs" :: learn_counters) in
            if k = 0 then begin
              let g = Catalog.graph (Option.get (Catalog.find catalog s.I.sgraph)) in
              let strategy = Result.get_ok (Gps.Interactive.Strategy.by_name ~seed:0 I.strategy) in
              Hashtbl.replace sessions id (Session.start ~strategy g);
              Option.iter (fun j -> Dur.journal_start j ~id ~graph:s.I.sgraph ~version:1 ~strategy:I.strategy ~seed:0 ~budget:None) journal
            end
            else if k <= List.length s.I.answers then begin
              let a = List.nth s.I.answers (k - 1) in
              let st = Hashtbl.find sessions id in
              let st' =
                span "bench.session.answer" (fun () ->
                    match a with
                    | Journal.Label (_, p) -> Session.answer_label st p
                    | Journal.Validate (_, w) -> Session.answer_path st w
                    | Journal.Satisfied (_, true) -> Session.accept st
                    | Journal.Satisfied (_, false) -> Session.refine st)
              in
              Option.iter (fun j -> span "bench.durability.append" (fun () -> Dur.journal_answer j ~id a)) journal;
              Hashtbl.replace sessions id st';
              incr session_steps
            end
            else begin
              Option.iter (fun j -> Dur.discard j ~id) journal;
              Hashtbl.remove sessions id
            end;
            (match Hashtbl.find_opt sessions id with
            | Some st -> ignore (span "bench.session.request" (fun () -> Session.request st))
            | None -> ());
            List.iter
              (fun (n, v0) ->
                let dv = Counter.value (Counter.make n) - v0 in
                Hashtbl.replace learn_delta n (dv + Option.value ~default:0 (Hashtbl.find_opt learn_delta n)))
              cw));
    let sc = collect () in
    (* B: decode, dispatch, encode *)
    let req_b = match span "bench.protocol.decode" (fun () -> P.decode_request (Json.value_of_string l)) with Ok r -> r | Error e -> failwith e.P.message in
    assert (req_b = req);
    let g0 = Gc.quick_stat () and r0 = Counter.value c_runs in
    let resp = span (if write then "bench.catalog.add_edges" else "bench.server.handle") (fun () -> Srv.handle b req_b) in
    let g1 = Gc.quick_stat () and r1 = Counter.value c_runs in
    let out = span "bench.protocol.encode" (fun () -> P.response_to_string resp) in
    let sb = collect () in
    let ok = spec.check i out && out = out_a in
    if not ok then incr failed;
    (match resp with
    | P.Edges_added { overlay_edges; _ } -> overlay := overlay_edges
    | P.Stopped { questions = q; _ } -> if measure then questions := float_of_int q :: !questions
    | _ -> ());
    if measure then begin
      absorb ~only_bench:true sa;
      absorb ~only_bench:true sb;
      absorb sc;
      let line_ns = dur_of "bench.server.handle_line" sa in
      line_traced := !line_traced +. line_ns;
      line_untraced := !line_untraced +. untraced;
      untraced_samples := untraced :: !untraced_samples;
      runs_after_warm := !runs_after_warm + (r1 - r0);
      if not write then begin
        incr handled;
        gc_minor := !gc_minor + (g1.Gc.minor_collections - g0.Gc.minor_collections);
        gc_major := !gc_major + (g1.Gc.major_collections - g0.Gc.major_collections);
        gc_alloc :=
          !gc_alloc
          +. (8. *. (g1.Gc.minor_words -. g0.Gc.minor_words +. g1.Gc.major_words -. g0.Gc.major_words
                     -. (g1.Gc.promoted_words -. g0.Gc.promoted_words)));
        List.iter
          (fun n -> stage_ns := !stage_ns +. dur_of n sc)
          [ "bench.query.rewrite"; "bench.qcache.probe"; "bench.eval.kernel"; "bench.session.request"; "bench.session.answer"; "bench.durability.append" ];
        let handle_ns = dur_of "bench.server.handle" sb in
        residual := !residual +. (handle_ns -. !stage_ns);
        incr residual_n;
        incr recon_checked;
        if handle_ns > 0. then ratios := (!stage_ns /. handle_ns) :: !ratios;
        if !stage_ns > (handle_ns *. recon_rel) +. recon_abs_ns then incr recon_missed
      end;
      resp_bytes := !resp_bytes + String.length out;
      incr encodes
    end
  done;
  Trace.disable ();
  let stats1 = cache_stats b in
  let h0, m0, e0, di0 = !stats0 and h1, m1, e1, di1 = stats1 in
  let hits = h1 -. h0 and misses = m1 -. m0 in
  let hit_ratio = if hits +. misses > 0. then hits /. (hits +. misses) else 0. in
  let fdiv a b = if b = 0 then 0. else a /. float_of_int b in
  let line_p50 = E2e.median !untraced_samples in
  let rtt_p50 = if tcp_rtts = [||] then line_p50 else E2e.percentile 0.5 tcp_rtts in
  let learn_total n = float_of_int (Option.value ~default:0 (Hashtbl.find_opt learn_delta n)) in
  let prop_n, prop_self = total_self [ "propagate.positives"; "propagate.negatives" ] in
  (* reconciliation and isolation verdicts *)
  let failures = ref [] in
  let check name ok =
    if not ok then begin
      incr failed;
      failures := name :: !failures
    end
  in
  check "reconciliation: per-request stage sums exceed Server.handle"
    (float_of_int !recon_missed <= recon_max_miss *. float_of_int (max 1 !recon_checked));
  let median_ratio = if !ratios = [] then 0. else E2e.median !ratios in
  check "reconciliation: median stage sum / Server.handle too high" (median_ratio <= recon_median);
  notes :=
    Printf.sprintf "reconciliation: %d of %d requests outside tolerance; median stages/handle %.3f"
      !recon_missed !recon_checked median_ratio
    :: !notes;
  check "reconciliation: kernel reports != eval.frontier_visits counter" (!sum_report_visits = !sum_counter_visits);
  check "durability: journal records != acked mutations + 1" (!wal_bad = 0);
  check "trace: spans dropped from the memory sink" (!dropped = 0);
  let metrics =
    [
      ("protocol.decode_ns", mean_dur "bench.protocol.decode");
      ("protocol.encode_ns", mean_dur "bench.protocol.encode");
      ("protocol.response_bytes", fdiv (float_of_int !resp_bytes) !encodes);
      ("server.handle_line_ns", mean_dur "bench.server.handle_line");
      ("server.handle_ns", mean_dur "bench.server.handle");
      ("server.residual_ns", fdiv !residual !residual_n);
      ("wire.overhead_ns", (rtt_p50 *. 1e6) -. line_p50);
      ("rewrite.specialize_ns", mean_dur "bench.query.rewrite");
      ("qcache.probe_ns", mean_dur "bench.qcache.probe");
      ("qcache.hit_ratio", hit_ratio);
      ("qcache.evictions", e1 -. e0);
      ("qcache.delta_invalidations", di1 -. di0);
      ("automata.compile_ns", mean_dur "bench.automata.compile");
      ("automata.nfa_states", fdiv (float_of_int !nfa_states) !compiles);
      ("eval.kernel_ns", fdiv !kernel_ns !kernel_calls);
      ("eval.frontier_visits", fdiv (float_of_int !visits) !kernel_calls);
      ("eval.early_exit_hits", fdiv (float_of_int !early) !kernel_calls);
      ("eval.par_levels", fdiv (float_of_int !par) !kernel_calls);
      ("eval.seq_fallbacks", fdiv (float_of_int !seqf) !kernel_calls);
      ("eval.ns_per_visit", fdiv !kernel_ns !visits);
      ("eval.alloc_bytes", fdiv !kernel_alloc !kernel_calls);
      ("catalog.add_edges_ns", mean_dur "bench.catalog.add_edges");
      ("disk_csr.overlay_edges", float_of_int !overlay);
      ("codec.parse_ns", parse_ns);
      ("disk_csr.open_ns", open_ns);
      ("session.request_ns", mean_dur "bench.session.request");
      ("session.answer_ns", mean_dur "bench.session.answer");
      ("learner.learn_ns", mean_self "learner.learn");
      ("rpni.generalize_ns", mean_self "rpni.generalize");
      ("witness.search_ns", mean_self "witness.search");
      ("propagate_ns", fdiv prop_self prop_n);
      ("witness.searches", learn_total "witness.searches");
      ("witness.expansions", learn_total "witness.expansions");
      ("rpni.consistency_checks", learn_total "rpni.consistency_checks");
      ("eval.runs_per_step", fdiv (learn_total "eval.runs") !session_steps);
      ("durability.append_ns", mean_dur "bench.durability.append");
      ("gc.minor_collections", float_of_int !gc_minor);
      ("gc.major_collections", float_of_int !gc_major);
      ("gc.alloc_bytes_per_req", fdiv !gc_alloc !handled);
      ("questions_per_session", fdiv (List.fold_left ( +. ) 0. !questions) (List.length !questions));
      ("trace.overhead_pct", if !line_untraced > 0. then 100. *. (!line_traced -. !line_untraced) /. !line_untraced else 0.);
    ]
  in
  {
    metrics;
    attempted = !attempted;
    failed = !failed;
    failures = !failures;
    notes = !notes;
    hit_ratio;
    runs_after_warm = !runs_after_warm;
    journals_checked = !wal_checked;
    delta_invalidations = di1 -. di0;
  }
