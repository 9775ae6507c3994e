module Json = Gps_graph.Json
module Digraph = Gps_graph.Digraph
module Disk_csr = Gps_graph.Disk_csr
module P = Protocol
module S = Gps_interactive.Session
module Clock = Gps_obs.Clock
module Counter = Gps_obs.Counter
module Gauge = Gps_obs.Gauge
module Trace = Gps_obs.Trace
module Deadline = Gps_obs.Deadline
module Fault = Gps_obs.Fault
module Timeseries = Gps_obs.Timeseries
module Wide_event = Gps_obs.Wide_event
module Histogram = Gps_obs.Histogram
module Wal = Gps_graph.Wal
module Journal = Gps_interactive.Journal

let c_dispatches = Counter.make "server.dispatches"
let c_errors = Counter.make "server.dispatch_errors"
let c_slow = Counter.make "server.slow_queries"
let c_timeouts = Counter.make "server.timeouts"
let c_sheds = Counter.make "server.sheds"
let c_disconnects = Counter.make "server.client_disconnects"
let c_frame_rejects = Counter.make "server.frame_rejections"
let c_cache_drops = Counter.make "server.cache_insert_drops"
let c_durability_errors = Counter.make "server.durability_errors"
let c_restored = Counter.make "recovery.sessions_restored"
let c_recovery_failed = Counter.make "recovery.sessions_failed"
let c_entries_discarded = Counter.make "recovery.entries_discarded"
let h_recovery = Histogram.make "recovery.duration_ns"
let g_sessions = Gauge.make "server.sessions_active"
let g_cache = Gauge.make "server.qcache_size"
let g_inflight = Gauge.make "server.inflight"

(* sessions rebuilt by the last crash recovery — a gauge (not the
   cumulative counter) so dashboards sampling the timeseries see the
   boot's recovery without needing rate arithmetic *)
let g_recovered = Gauge.make "recovery.sessions"

(* total delta-overlay edges across every file-backed catalog entry —
   the live measure of how much ingest has landed since the last pack *)
let g_overlay = Gauge.make "graph.overlay_edges"

type config = {
  cache_capacity : int;
  sessions : Sessions.config;
  clock : unit -> float;
  slow_ms : float option;
  deadline_ms : float option;
  deadline_cap_ms : float option;
  max_inflight : int;
  max_frame_bytes : int;
  io_timeout_s : float option;
  audit : Wide_event.sink option;
  sample_every_s : float option;
  prom_compat : bool;
  profile : bool;
  state_dir : string option;
  fsync : Wal.fsync_policy;
}

let default_config =
  {
    cache_capacity = 256;
    sessions = Sessions.default_config;
    (* monotonic by default: a stepped wall clock must not mass-expire
       or immortalize sessions. Still injectable for tests. *)
    clock = (fun () -> Clock.ns_to_s (Clock.now_ns ()));
    slow_ms = None;
    deadline_ms = None;
    deadline_cap_ms = None;
    max_inflight = 0;
    max_frame_bytes = 8 * 1024 * 1024;
    io_timeout_s = None;
    audit = None;
    sample_every_s = None;
    prom_compat = false;
    profile = false;
    state_dir = None;
    fsync = Wal.Always;
  }

type recovery_summary = {
  sessions_restored : int;
  sessions_failed : int;
  entries_discarded : int;
  bytes_discarded : int;
  duration_ms : float;
}

type t = {
  catalog : Catalog.t;
  cache : Qcache.t;
  sessions : Sessions.t;
  metrics : Metrics.t;
  slow_ms : float option;
  deadline_ms : float option;
  deadline_cap_ms : float option;
  max_inflight : int;
  max_frame_bytes : int;
  io_timeout_s : float option;
  inflight : int Atomic.t;
  drain : Deadline.t;  (* server-wide cancel token, fired by begin_drain *)
  started_ns : int64;  (* monotonic — uptime can't jump with the wall clock *)
  audit : Wide_event.sink option;
  prom_compat : bool;
  mutable series : Timeseries.t option;
  dur : Durability.t option;
  mutable recovery : recovery_summary option;
  (* wide events stamped recovered:true until this instant — the first
     post-restart sample window, so restart blips are attributable *)
  mutable recovered_until_ns : int64 option;
  recovered_window_ns : int64;
}

let refresh_gauges t =
  let c = Qcache.stats t.cache in
  let s = Sessions.counters t.sessions in
  Gauge.set_int g_sessions s.Sessions.active;
  Gauge.set_int g_cache c.Qcache.size;
  (c, s)

let create ?(config = default_config) () =
  let dur =
    match config.state_dir with
    | None -> None
    | Some dir -> (
        match Durability.load ~dir ~policy:config.fsync with
        | Ok d -> Some d
        | Error msg -> failwith (Printf.sprintf "state dir %s: %s" dir msg))
  in
  (* a removed session's journal goes with it, whatever removed it:
     explicit stop, TTL expiry or max-sessions eviction *)
  let on_remove id = Option.iter (fun d -> Durability.discard d ~id) dur in
  let t =
    {
      catalog = Catalog.create ();
      cache = Qcache.create ~capacity:config.cache_capacity ();
      sessions = Sessions.create ~config:config.sessions ~clock:config.clock ~on_remove ();
      metrics = Metrics.create ();
      slow_ms = config.slow_ms;
      deadline_ms = config.deadline_ms;
      deadline_cap_ms = config.deadline_cap_ms;
      max_inflight = config.max_inflight;
      max_frame_bytes = max 1024 config.max_frame_bytes;
      io_timeout_s = config.io_timeout_s;
      inflight = Atomic.make 0;
      drain = Deadline.token ();
      started_ns = Clock.now_ns ();
      audit = config.audit;
      prom_compat = config.prom_compat;
      series = None;
      dur;
      recovery = None;
      recovered_until_ns = None;
      recovered_window_ns =
        Int64.of_float
          (1e9 *. Option.value ~default:1.0 config.sample_every_s);
    }
  in
  (* --profile: GC/domain events from the runtime's ring. They feed the
     ordinary registries, so Prom exposition, timeseries windows and
     [gps top] pick them up with no further wiring. *)
  if config.profile then ignore (Gps_obs.Runtime.start ());
  (match config.sample_every_s with
  | Some interval_s when interval_s > 0.0 ->
      (* every sample sees fresh level gauges, drained runtime events
         and the per-endpoint latency tables alongside the global
         registries *)
      let ts =
        Timeseries.create ~interval_s
          ~pre_sample:(fun () ->
            ignore (refresh_gauges t);
            if config.profile then ignore (Gps_obs.Runtime.poll ()))
          ~extra:(fun () -> Metrics.histograms t.metrics)
          ()
      in
      Timeseries.start ts;
      t.series <- Some ts
  | _ -> ());
  t

let sampler t = t.series
let stop_sampler t = Option.iter Timeseries.stop t.series

let begin_drain t = Deadline.cancel t.drain
let draining t = Deadline.cancelled t.drain
let inflight t = Atomic.get t.inflight

(* ------------------------------------------------------------------ *)
(* dispatch plumbing: every failure is a structured error *)

exception Fail of P.error

let fail code fmt =
  Printf.ksprintf (fun message -> raise (Fail { P.code; message; data = None })) fmt

(* Translate an injected fault into the typed degraded answer the real
   failure would produce. *)
let fault_site site =
  try Fault.trip site
  with Fault.Injected _ -> fail "unavailable" "injected fault at %s" site

(* The effective deadline of one request: the client's wire value capped
   by the server, falling back to the server default, always combined
   with the drain token so begin_drain cancels in-flight work. *)
let request_deadline t requested_ms =
  let cap v = match t.deadline_cap_ms with Some c -> Float.min v c | None -> v in
  let ms =
    match requested_ms with
    | Some ms -> Some (cap ms)
    | None -> Option.map cap t.deadline_ms
  in
  let d = match ms with Some ms -> Deadline.after_ms ms | None -> Deadline.none in
  Deadline.combine d t.drain

let interrupt_code = function
  | Deadline.Timed_out -> "timeout"
  | Deadline.Cancelled -> "cancelled"

let graph_entry t name =
  fault_site "catalog.lookup";
  match Catalog.find t.catalog name with
  | Some e -> e
  | None -> fail "unknown-graph" "no graph named %S (use \"load\" first)" name

let parse_rpq s =
  match Gps_query.Rpq.of_string s with
  | Ok q -> q
  | Error msg -> fail "bad-query" "%s" msg

(* ------------------------------------------------------------------ *)
(* cached evaluation *)

let node_names g vs = List.sort compare (List.map (Digraph.node_name g) vs)

(* Normalize to the graph-specialized form: syntactic variants and
   out-of-alphabet symbols collapse onto one cache key with an unchanged
   answer on this graph. Alphabet membership goes through the catalog so
   file-backed entries answer from the mapped label table without
   materializing a heap graph. *)
let specialized (entry : Catalog.entry) q =
  Gps_query.Rewrite.specialize_known ~known:(Catalog.known_label entry) q

(* The eval counters whose per-request deltas go on the wide event —
   the cost attribution of a cache miss. Deltas are computed by
   bracketing the evaluation; under concurrent misses a request's delta
   can include a neighbor's work, which the audit field dictionary
   documents (the totals still reconcile). *)
let audited_eval_counters =
  [
    ("d_product_states", Counter.make "eval.product_states");
    ("d_frontier_visits", Counter.make "eval.frontier_visits");
  ]

let ev_set_cache ev verdict =
  Option.iter (fun ev -> Wide_event.set_str ev "cache" verdict) ev

(* With [explain], a miss carries the evaluation's full report (plus the
   cache verdict); a hit runs no evaluation, so its report is just the
   verdict — re-narrating a cached answer would be fiction. *)
let evaluate_cached t (entry : Catalog.entry) ?ev ?(explain = false) ?(deadline = Deadline.none) q =
  (* an armed slow-query log wants the report for every evaluation, so
     it can be emitted for offending requests the client never asked to
     explain; the kernel collects the stats either way *)
  let want_report = explain || t.slow_ms <> None in
  let nq = specialized entry q in
  let normalized = Gps_query.Rpq.to_string nq in
  let key = { Qcache.graph = entry.name; version = entry.version; query = normalized } in
  match Qcache.find t.cache key with
  | Some nodes ->
      Trace.set_current_attr "cache" (Trace.String "hit");
      ev_set_cache ev "hit";
      let report =
        if want_report then Some (Json.Object [ ("cache", Json.String "hit") ]) else None
      in
      (normalized, nodes, `Hit, report)
  | None ->
      Trace.set_current_attr "cache" (Trace.String "miss");
      ev_set_cache ev "miss";
      let eval_before =
        match ev with
        | None -> []
        | Some _ -> List.map (fun (k, c) -> (k, Counter.value c)) audited_eval_counters
      in
      let stamp_eval_deltas () =
        Option.iter
          (fun ev ->
            List.iter
              (fun (k, c) ->
                let before = Option.value ~default:0 (List.assoc_opt k eval_before) in
                Wide_event.set_int ev k (Counter.value c - before))
              audited_eval_counters)
          ev
      in
      (* one snapshot for the whole evaluation: heap entries hand over
         their frozen CSR, file-backed entries an overlay-inclusive view
         of the mapped base — the kernel is instantiated per backing, so
         neither pays per-edge dispatch *)
      let source = Catalog.eval_source entry in
      let sel, report =
        match Gps_query.Eval.run ~deadline source q with
        | Ok (sel, r) ->
            let report =
              if want_report then
                let fields =
                  match Gps_query.Eval.report_to_json r with
                  | Json.Object fields -> fields
                  | other -> [ ("report", other) ]
                in
                Some (Json.Object (("cache", Json.String "miss") :: fields))
              else None
            in
            (sel, report)
        | Error { Gps_query.Eval.reason; partial } ->
            (* typed early-stop: the error carries the partial EXPLAIN
               report so the client sees how far the search got *)
            Counter.incr c_timeouts;
            stamp_eval_deltas ();
            raise
              (Fail
                 {
                   P.code = interrupt_code reason;
                   message =
                     Printf.sprintf "query evaluation %s after %d frontier visits"
                       (Deadline.reason_to_string reason)
                       partial.Gps_query.Eval.frontier_visits;
                   data = Some (Gps_query.Eval.report_to_json partial);
                 })
      in
      stamp_eval_deltas ();
      let name_of, n =
        match source with
        | Gps_query.Eval.Frozen (g, _) -> (Digraph.node_name g, Digraph.n_nodes g)
        | Gps_query.Eval.Mapped v -> (Disk_csr.node_name v, Disk_csr.n_nodes v)
      in
      let selected = ref [] in
      for v = n - 1 downto 0 do
        if sel.(v) then selected := name_of v :: !selected
      done;
      let nodes = List.sort compare !selected in
      (try
         Fault.trip "qcache.insert";
         (* the entry remembers its query's base alphabet and
            nullability, so overlay ingest can invalidate label-aware
            instead of dropping the graph's whole working set *)
         Qcache.add t.cache
           ~labels:(Gps_query.Rewrite.base_alphabet nq)
           ~nullable:(Gps_regex.Regex.nullable (Gps_query.Rpq.regex nq))
           key nodes
       with Fault.Injected _ ->
         (* degrade gracefully: the answer is correct, it just is not
            cached *)
         Counter.incr c_cache_drops);
      (normalized, nodes, `Miss, report)

(* ------------------------------------------------------------------ *)
(* graph loading *)

let builtin_graph = function
  | "figure1" -> Gps_graph.Datasets.figure1 ()
  | "transpole" -> Gps_graph.Datasets.transpole ()
  | other -> fail "bad-request" "unknown builtin %S (figure1 or transpole)" other

let graph_of_text text =
  match Gps_graph.Codec.of_string text with
  | g -> g
  | exception Gps_graph.Codec.Parse_error (line, msg) -> fail "parse" "line %d: %s" line msg

let graph_of_path path =
  let text =
    try
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    with Sys_error msg -> fail "io" "%s" msg
  in
  let is_json =
    let rec first i =
      if i >= String.length text then '\000'
      else match text.[i] with ' ' | '\t' | '\n' | '\r' -> first (i + 1) | c -> c
    in
    first 0 = '{'
  in
  if is_json then
    match Gps_graph.Json.of_string text with
    | g -> g
    | exception Gps_graph.Json.Parse_error (pos, msg) ->
        fail "parse" "%s: json error at %d: %s" path pos msg
  else
    match Gps_graph.Codec.of_string text with
    | g -> g
    | exception Gps_graph.Codec.Parse_error (line, msg) -> fail "parse" "%s:%d: %s" path line msg

(* ------------------------------------------------------------------ *)
(* session views *)

let view_of_state t (entry : Sessions.entry) =
  let g = Catalog.graph entry.catalog in
  match S.request entry.state with
  | S.Ask_label view ->
      let fragment = view.Gps_interactive.View.fragment in
      P.Ask_label
        {
          node = Digraph.node_name g view.Gps_interactive.View.node;
          radius = fragment.Gps_graph.Neighborhood.radius;
          size = Gps_graph.Neighborhood.size fragment;
          frontier = node_names g fragment.Gps_graph.Neighborhood.frontier;
        }
  | S.Ask_path tree ->
      P.Ask_path
        {
          node = Digraph.node_name g tree.Gps_interactive.View.node;
          words = tree.Gps_interactive.View.words;
          suggested = tree.Gps_interactive.View.suggested;
        }
  | S.Propose q ->
      let query, selects, _cache, _ = evaluate_cached t entry.catalog q in
      P.Proposal { query; selects }
  | S.Finished outcome ->
      let query, selects, _cache, _ = evaluate_cached t entry.catalog outcome.S.query in
      P.Finished { query; reason = P.halt_reason_to_string outcome.S.reason; selects }

let session_response t entry = P.Session { session = entry.Sessions.id; view = view_of_state t entry }

(* Run [step] on the session under its per-session lock. *)
let on_session t id step =
  fault_site "session.step";
  match Sessions.with_entry t.sessions id (fun e -> step e) with
  | Some r -> r
  | None -> fail "unknown-session" "no session %d (expired, stopped or never started)" id

(* A failed journal write must never look like success: the in-memory
   state is left untouched (the computed next state is simply dropped)
   and the client gets a typed "durability" error instead of an ack. *)
let durability_failed exn =
  Counter.incr c_durability_errors;
  match exn with
  | Fault.Injected site -> fail "durability" "injected fault at %s: step not journaled" site
  | Failure msg | Sys_error msg -> fail "durability" "journal write failed: %s" msg
  | Unix.Unix_error (e, _, _) ->
      fail "durability" "journal write failed: %s" (Unix.error_message e)
  | exn -> raise exn

(* Journal one acknowledged session step (no-op without --state-dir).
   Called after the next state is computed but before it commits. *)
let journal t ~id answer =
  match t.dur with
  | None -> ()
  | Some d -> ( try Durability.journal_answer d ~id answer with exn -> durability_failed exn)

let session_node_name (e : Sessions.entry) node =
  Digraph.node_name (Catalog.graph e.Sessions.catalog) node

(* ------------------------------------------------------------------ *)
(* endpoint implementations *)

let do_load t name source =
  let g =
    match source with
    | P.Builtin b -> builtin_graph b
    | P.Path p -> graph_of_path p
    | P.Text txt -> graph_of_text txt
  in
  let entry = Catalog.put t.catalog ~name g in
  ignore (Qcache.invalidate t.cache ~graph:name);
  P.Loaded
    {
      name;
      nodes = Digraph.n_nodes g;
      edges = Digraph.n_edges g;
      labels = Digraph.n_labels g;
      version = entry.Catalog.version;
    }

(* [No_such_file]/[Not_regular] are environment problems; everything
   else means the bytes are there but are not a packed graph we accept. *)
let open_error_code = function
  | Disk_csr.No_such_file _ | Disk_csr.Not_regular _ -> "io"
  | Disk_csr.Bad_magic | Disk_csr.Bad_endianness | Disk_csr.Bad_version _
  | Disk_csr.Truncated _ | Disk_csr.Corrupted _ ->
      "bad-file"

let do_load_file t name path =
  fault_site "catalog.load_file";
  match Catalog.put_file t.catalog ~name path with
  | Error e -> fail (open_error_code e) "%s: %s" path (Disk_csr.open_error_to_string e)
  | Ok entry ->
      ignore (Qcache.invalidate t.cache ~graph:name);
      P.Loaded
        {
          name;
          nodes = Catalog.n_nodes entry;
          edges = Catalog.n_edges entry;
          labels = Catalog.n_labels entry;
          version = entry.Catalog.version;
        }

let refresh_overlay_gauge t =
  Gauge.set_int g_overlay
    (List.fold_left (fun acc e -> acc + Catalog.overlay_edges e) 0 (Catalog.list t.catalog))

let do_add_edges t ?ev graph edges =
  let entry = graph_entry t graph in
  match Catalog.add_edges entry edges with
  | Error msg -> fail "bad-state" "%s" msg
  | Ok delta ->
      (* label-aware: only cache entries whose query alphabet meets the
         delta's labels (or nullable queries when nodes appeared) drop;
         disjoint-label answers stay warm and are still correct because
         edges are only ever added *)
      let invalidated =
        Qcache.invalidate_delta t.cache ~graph ~labels:delta.Disk_csr.labels
          ~new_nodes:delta.Disk_csr.new_nodes
      in
      refresh_overlay_gauge t;
      Option.iter
        (fun w ->
          Wide_event.set_str w "graph" graph;
          Wide_event.set_int w "edges_added" delta.Disk_csr.added;
          Wide_event.set_int w "cache_invalidated" invalidated)
        ev;
      P.Edges_added
        {
          name = graph;
          version = entry.Catalog.version;
          added = delta.Disk_csr.added;
          new_nodes = delta.Disk_csr.new_nodes;
          overlay_edges = Catalog.overlay_edges entry;
          invalidated;
        }

let do_learn t graph pos neg deadline_ms =
  let entry = graph_entry t graph in
  let g = Catalog.graph entry in
  let deadline = request_deadline t deadline_ms in
  let sample =
    match Gps_learning.Sample.of_names g ~pos ~neg with
    | s -> s
    | exception Invalid_argument msg -> fail "bad-request" "%s" msg
  in
  match Gps_learning.Learner.learn ~deadline g sample with
  | Gps_learning.Learner.Learned q ->
      let query, selects, _, _ = evaluate_cached t entry ~deadline q in
      P.Learned { query; selects }
  | Gps_learning.Learner.Failed (Gps_learning.Learner.Interrupted r) ->
      Counter.incr c_timeouts;
      fail (interrupt_code r) "learning %s before converging" (Deadline.reason_to_string r)
  | Gps_learning.Learner.Failed f ->
      fail "inconsistent" "%s" (Format.asprintf "%a" (Gps_learning.Learner.pp_failure g) f)

let do_session_start t graph strategy seed budget =
  let entry = graph_entry t graph in
  let strat =
    match Gps_interactive.Strategy.by_name ~seed strategy with
    | Ok s -> s
    | Error msg -> fail "bad-request" "%s" msg
  in
  let config = { S.default_config with S.max_questions = budget } in
  let state = S.start ~config ~strategy:strat (Catalog.graph entry) in
  let e = Sessions.start t.sessions entry state in
  (match t.dur with
  | None -> ()
  | Some d -> (
      try
        Durability.journal_start d ~id:e.Sessions.id ~graph
          ~version:entry.Catalog.version ~strategy ~seed ~budget
      with exn ->
        (* roll back: the unjournaled session must not outlive the error
           (stop also unlinks whatever partial journal exists) *)
        ignore (Sessions.stop t.sessions e.Sessions.id);
        durability_failed exn));
  session_response t e

let do_session_label t id positive =
  let deadline = request_deadline t None in
  on_session t id (fun e ->
      match S.request e.Sessions.state with
      | S.Ask_label view ->
          let pol = if positive then `Pos else `Neg in
          let next = S.answer_label ~deadline e.Sessions.state pol in
          journal t ~id
            (Journal.Label (Some (session_node_name e view.Gps_interactive.View.node), pol));
          e.Sessions.state <- next;
          session_response t e
      | _ -> fail "bad-state" "session %d is not awaiting a label" id)

let do_session_zoom t id =
  on_session t id (fun e ->
      match S.request e.Sessions.state with
      | S.Ask_label view ->
          let next = S.answer_label e.Sessions.state `Zoom in
          journal t ~id
            (Journal.Label (Some (session_node_name e view.Gps_interactive.View.node), `Zoom));
          e.Sessions.state <- next;
          session_response t e
      | _ -> fail "bad-state" "session %d is not awaiting a label (nothing to zoom)" id)

let do_session_validate t id path =
  let deadline = request_deadline t None in
  on_session t id (fun e ->
      match S.request e.Sessions.state with
      | S.Ask_path tree ->
          let word =
            match path with
            | None -> tree.Gps_interactive.View.suggested
            | Some w ->
                if List.mem w tree.Gps_interactive.View.words then w
                else fail "bad-path" "%S is not a candidate path" (String.concat "." w)
          in
          let next = S.answer_path ~deadline e.Sessions.state word in
          journal t ~id
            (Journal.Validate (Some (session_node_name e tree.Gps_interactive.View.node), word));
          e.Sessions.state <- next;
          session_response t e
      | _ -> fail "bad-state" "session %d is not awaiting path validation" id)

let do_session_propose t id accept =
  on_session t id (fun e ->
      match S.request e.Sessions.state with
      | S.Propose q ->
          let next =
            if accept then S.accept e.Sessions.state else S.refine e.Sessions.state
          in
          journal t ~id (Journal.Satisfied (Gps_query.Rpq.to_string q, accept));
          e.Sessions.state <- next;
          session_response t e
      | _ -> fail "bad-state" "session %d has no pending proposal" id)

let do_session_stop t id =
  match Sessions.stop t.sessions id with
  | Some e -> P.Stopped { session = id; questions = S.questions e.Sessions.state }
  | None -> fail "unknown-session" "no session %d (expired, stopped or never started)" id

(* ------------------------------------------------------------------ *)
(* crash recovery *)

(* Replay one journaled answer through the pure state machine. The
   journal records only what the client was acked for, so a mismatch
   between the recorded answer kind and the state's pending request
   means the journal does not describe this state machine — fail the
   session rather than guess. Replay runs without deadlines: a
   deadline-truncated original step can in principle diverge from its
   replay (documented in DESIGN §14). *)
let replay_answer state a =
  match (S.request state, a) with
  | S.Ask_label _, Journal.Label (_, pol) -> S.answer_label state pol
  | S.Ask_path _, Journal.Validate (_, word) -> S.answer_path state word
  | S.Propose _, Journal.Satisfied (_, true) -> S.accept state
  | S.Propose _, Journal.Satisfied (_, false) -> S.refine state
  | _ -> failwith "journaled answer does not match the session's pending request"

(* Rebuild live sessions from the state dir. Call once, after the
   catalog is preloaded (a journal naming an absent graph fails and is
   quarantined). Returns [None] when durability is off. *)
let recover t =
  match t.dur with
  | None -> None
  | Some d ->
      let t0 = Clock.now_ns () in
      let stats = Durability.recover d in
      let restored = ref 0 and failed = ref stats.Durability.quarantined in
      List.iter
        (fun (j : Durability.recovered_journal) ->
          let outcome =
            match Catalog.find t.catalog j.Durability.r_graph with
            | None -> Error (Printf.sprintf "graph %S not in catalog" j.Durability.r_graph)
            | Some entry -> (
                match
                  Gps_interactive.Strategy.by_name ~seed:j.Durability.r_seed
                    j.Durability.r_strategy
                with
                | Error msg -> Error msg
                | Ok strategy -> (
                    let config =
                      { S.default_config with S.max_questions = j.Durability.r_budget }
                    in
                    match
                      List.fold_left replay_answer
                        (S.start ~config ~strategy (Catalog.graph entry))
                        j.Durability.r_answers
                    with
                    | state -> Ok (entry, state)
                    | exception exn -> Error (Printexc.to_string exn)))
          in
          match outcome with
          | Ok (entry, state) ->
              ignore (Sessions.restore t.sessions ~id:j.Durability.r_id entry state);
              incr restored
          | Error msg ->
              Printf.eprintf "gps: recovery: session %d: %s (quarantined)\n%!"
                j.Durability.r_id msg;
              Durability.quarantine d ~id:j.Durability.r_id;
              incr failed)
        stats.Durability.journals;
      let elapsed = Clock.elapsed_ns t0 in
      Counter.add c_restored !restored;
      Counter.add c_recovery_failed !failed;
      Counter.add c_entries_discarded stats.Durability.entries_discarded;
      Histogram.record_ns h_recovery elapsed;
      let summary =
        {
          sessions_restored = !restored;
          sessions_failed = !failed;
          entries_discarded = stats.Durability.entries_discarded;
          bytes_discarded = stats.Durability.bytes_discarded;
          duration_ms = Clock.ns_to_s elapsed *. 1e3;
        }
      in
      t.recovery <- Some summary;
      t.recovered_until_ns <- Some (Int64.add (Clock.now_ns ()) t.recovered_window_ns);
      Gauge.set_int g_recovered !restored;
      ignore (refresh_gauges t);
      Some summary

let last_recovery t = t.recovery
let state_dir t = Option.map Durability.dir t.dur

(* Slow-query log: one JSON line on stderr per query at or over the
   [slow_ms] threshold — greppable, and structured enough to feed back
   into the trace tooling. [request_id] is the wide-event id of the
   request, so an offender joins its audit line and trace span. *)
let log_slow ?request_id ~graph ~query ~cache ~ms ~nodes ~report () =
  Counter.incr c_slow;
  let explain = match report with Some r -> [ ("explain", r) ] | None -> [] in
  let rid =
    match request_id with
    | Some id -> [ ("request_id", Json.Number (float_of_int id)) ]
    | None -> []
  in
  prerr_endline
    (Json.value_to_string
       (Json.Object
          (("slow_query", Json.Bool true)
           :: rid
          @ [
              ("graph", Json.String graph);
              ("query", Json.String query);
              ("cache", Json.String (match cache with `Hit -> "hit" | `Miss -> "miss"));
              ("ms", Json.Number (Float.round (ms *. 1000.) /. 1000.));
              ("nodes", Json.Number (float_of_int nodes));
            ]
          @ explain)))

let do_query t ?ev graph query explain deadline_ms =
  let e = graph_entry t graph in
  let q = parse_rpq query in
  Option.iter
    (fun w ->
      Wide_event.set_str w "graph" graph;
      Wide_event.set_int w "graph_version" e.Catalog.version)
    ev;
  let deadline = request_deadline t deadline_ms in
  let t0 = Clock.now_ns () in
  let query, nodes, cache, report = evaluate_cached t e ?ev ~explain ~deadline q in
  Option.iter
    (fun w ->
      Wide_event.set_str w "query" query;
      Wide_event.set_int w "nodes" (List.length nodes))
    ev;
  (match t.slow_ms with
  | Some threshold ->
      let ms = Clock.ns_to_s (Clock.elapsed_ns t0) *. 1e3 in
      if ms >= threshold then
        log_slow
          ?request_id:(Option.map Wide_event.id ev)
          ~graph ~query ~cache ~ms ~nodes:(List.length nodes) ~report ()
  | None -> ());
  P.Answer { query; nodes; cache; explain = (if explain then report else None) }

let uptime_s t = Clock.ns_to_s (Clock.elapsed_ns t.started_ns)

(* Work counters and span aggregates in one sub-document, so that the
   whole engine (eval, learner, sessions, dispatch) is visible through a
   single metrics response. Span rows come from the installed sink when
   it is an in-memory ring; counters are always on. *)
let trace_json ~timings =
  let counters =
    Json.Object (List.map (fun (k, v) -> (k, Json.Number (float_of_int v))) (Counter.snapshot ()))
  in
  let gauges = Json.Object (List.map (fun (k, v) -> (k, Json.Number v)) (Gauge.snapshot ())) in
  let base = [ ("enabled", Json.Bool (Trace.enabled ())); ("counters", counters); ("gauges", gauges) ] in
  let spans =
    match Trace.current_sink () with
    | Trace.Memory buf ->
        [ ("spans", Gps_obs.Summary.to_json ~timings (Gps_obs.Summary.aggregate (Trace.buffer_spans buf))) ]
    | Trace.Null | Trace.Jsonl _ -> []
  in
  Json.Object (base @ spans)

let metrics_json t ~timings =
  let c = Qcache.stats t.cache in
  let s = Sessions.counters t.sessions in
  Gauge.set_int g_sessions s.Sessions.active;
  Gauge.set_int g_cache c.Qcache.size;
  let int n = Json.Number (float_of_int n) in
  Json.Object
    ([
       ("endpoints", Metrics.to_json ~timings t.metrics);
       ( "cache",
         Json.Object
           [
             ("hits", int c.Qcache.hits);
             ("misses", int c.Qcache.misses);
             ("evictions", int c.Qcache.evictions);
             ("invalidations", int c.Qcache.invalidations);
             ("delta_invalidations", int c.Qcache.delta_invalidations);
             ("size", int c.Qcache.size);
             ("capacity", int c.Qcache.capacity);
           ] );
       ( "sessions",
         Json.Object
           [
             ("active", int s.Sessions.active);
             ("started", int s.Sessions.started);
             ("stopped", int s.Sessions.stopped);
             ("expired", int s.Sessions.expired);
             ("evicted", int s.Sessions.evicted);
           ] );
       ("graphs", int (Catalog.count t.catalog));
       (* The resilience/dispatch counters as a first-class block: the
          load harness reads sheds and timeouts from one response, so a
          storm report can never race the server between two metric
          calls. (The same counters also appear, process-wide, under
          trace.counters.) *)
       ( "server",
         Json.Object
           [
             ("dispatches", int (Counter.value c_dispatches));
             ("dispatch_errors", int (Counter.value c_errors));
             ("sheds", int (Counter.value c_sheds));
             ("timeouts", int (Counter.value c_timeouts));
             ("slow_queries", int (Counter.value c_slow));
             ("frame_rejections", int (Counter.value c_frame_rejects));
             ("client_disconnects", int (Counter.value c_disconnects));
             (* the most recently allocated wide-event request id: a
                storm reconciles its audit line count against the id
                range it observed here *)
             ("last_request_id", int (Wide_event.last_id ()));
           ] );
       ("trace", trace_json ~timings);
     ]
    @ if timings then [ ("uptime_s", Json.Number (uptime_s t)) ] else [])

(* One deterministic health document: uptime (timings only), the catalog
   with versions, session count, cache size/eviction totals. *)
let status_json t ~timings =
  let c = Qcache.stats t.cache in
  let s = Sessions.counters t.sessions in
  Gauge.set_int g_sessions s.Sessions.active;
  Gauge.set_int g_cache c.Qcache.size;
  let int n = Json.Number (float_of_int n) in
  Json.Object
    ((if timings then [ ("uptime_s", Json.Number (uptime_s t)) ] else [])
    @ [
        ( "graphs",
          Json.Array
            (List.map
               (fun e ->
                 Json.Object
                   ([ ("name", Json.String e.Catalog.name); ("version", int e.Catalog.version) ]
                   @
                   if Catalog.file_backed e then
                     [
                       ("file_backed", Json.Bool true);
                       ("overlay_edges", int (Catalog.overlay_edges e));
                     ]
                   else []))
               (Catalog.list t.catalog)) );
        ( "sessions",
          Json.Object [ ("active", int s.Sessions.active); ("started", int s.Sessions.started) ] );
        ( "cache",
          Json.Object
            [
              ("size", int c.Qcache.size);
              ("capacity", int c.Qcache.capacity);
              ("evictions", int c.Qcache.evictions);
              ("invalidations", int c.Qcache.invalidations);
              ("delta_invalidations", int c.Qcache.delta_invalidations);
            ] );
        ("trace_enabled", Json.Bool (Trace.enabled ()));
        ("draining", Json.Bool (draining t));
        (* durability posture and the last recovery's outcome: a client
           (or the crash harness) can tell from one status call whether
           state survives kill -9 and what the last restart replayed *)
        ( "durability",
          match t.dur with
          | None -> Json.Object [ ("enabled", Json.Bool false) ]
          | Some d ->
              Json.Object
                ([
                   ("enabled", Json.Bool true);
                   ("state_dir", Json.String (Durability.dir d));
                   ("fsync", Json.String (Wal.policy_to_string (Durability.policy d)));
                 ]
                @
                match t.recovery with
                | None -> [ ("recovered", Json.Bool false) ]
                | Some r ->
                    [
                      ("recovered", Json.Bool true);
                      ("sessions_restored", int r.sessions_restored);
                      ("sessions_failed", int r.sessions_failed);
                      ("entries_discarded", int r.entries_discarded);
                      ("bytes_discarded", int r.bytes_discarded);
                    ]
                    @
                    if timings then
                      [
                        ( "duration_ms",
                          Json.Number (Float.round (r.duration_ms *. 1000.) /. 1000.) );
                      ]
                    else [] ) );
        (* sampler health: a wedged sampler thread shows up as a
           growing last-sample age. The age and sample count are
           timing-dependent, so they ride behind [timings] like
           uptime does. *)
        ( "sampler",
          match t.series with
          | None -> Json.Object [ ("running", Json.Bool false) ]
          | Some ts ->
              Json.Object
                ([
                   ("running", Json.Bool (Timeseries.running ts));
                   ("interval_s", Json.Number (Timeseries.interval_s ts));
                 ]
                @
                if timings then
                  [
                    ("samples", int (Timeseries.total_samples ts));
                    ( "last_sample_age_s",
                      match Timeseries.last_age_s ts with
                      | None -> Json.Null
                      | Some a -> Json.Number (Float.round (a *. 1000.) /. 1000.) );
                  ]
                else [] ) );
      ])

(* ------------------------------------------------------------------ *)
(* dispatch *)

let handle t ?ev req =
  try
    match req with
    | P.Load { name; source } -> do_load t name source
    | P.Load_file { name; path } -> do_load_file t name path
    | P.Add_edges { graph; edges } -> do_add_edges t ?ev graph edges
    | P.List_graphs ->
        P.Graphs
          {
            graphs =
              List.map (fun e -> (e.Catalog.name, e.Catalog.version)) (Catalog.list t.catalog);
          }
    | P.Stats { graph } ->
        let e = graph_entry t graph in
        P.Stats_of
          {
            name = graph;
            nodes = Catalog.n_nodes e;
            edges = Catalog.n_edges e;
            labels = Catalog.labels e;
            version = e.Catalog.version;
          }
    | P.Query { graph; query; explain; deadline_ms } ->
        do_query t ?ev graph query explain deadline_ms
    | P.Learn { graph; pos; neg; deadline_ms } -> do_learn t graph pos neg deadline_ms
    | P.Session_start { graph; strategy; seed; budget } ->
        do_session_start t graph strategy seed budget
    | P.Session_show { session } -> on_session t session (fun e -> session_response t e)
    | P.Session_label { session; positive } -> do_session_label t session positive
    | P.Session_zoom { session } -> do_session_zoom t session
    | P.Session_validate { session; path } -> do_session_validate t session path
    | P.Session_propose { session; accept } -> do_session_propose t session accept
    | P.Session_stop { session } -> do_session_stop t session
    | P.Metrics { timings } -> P.Metrics_dump (metrics_json t ~timings)
    | P.Metrics_prom ->
        (* refresh the level gauges so the exposition reflects now *)
        ignore (refresh_gauges t);
        P.Prom_dump
          (Gps_obs.Prom.render
             ~extra:(Metrics.histograms t.metrics)
             ~compat:t.prom_compat ())
    | P.Status { timings } -> P.Status_dump (status_json t ~timings)
    | P.Timeseries { last; downsample } -> (
        match t.series with
        | None ->
            fail "unavailable"
              "no sampler running (start the server with --sample-every > 0)"
        | Some ts -> P.Timeseries_dump (Timeseries.window_to_json ?last ?downsample ts))
  with
  | Fail e -> P.Err e
  | Stack_overflow -> P.Err { code = "internal"; message = "stack overflow"; data = None }
  | exn -> P.Err { code = "internal"; message = Printexc.to_string exn; data = None }

let is_error = function P.Err _ -> true | _ -> false

(* Endpoint latency and span durations share the monotonic clock: the
   histograms cannot run backwards when the wall clock is stepped. *)
let record t ~endpoint ~ok ~started_ns =
  Counter.incr c_dispatches;
  if not ok then Counter.incr c_errors;
  Metrics.record t.metrics ~endpoint ~ok ~seconds:(Clock.ns_to_s (Clock.elapsed_ns started_ns))

(* Admission control: bump the in-flight count; refuse when the bounded
   budget (if any) is full. The shed path never decodes the request body
   — an overloaded server answers in O(1). *)
let admit t =
  let n = 1 + Atomic.fetch_and_add t.inflight 1 in
  Gauge.set_int g_inflight n;
  if t.max_inflight > 0 && n > t.max_inflight then begin
    ignore (Atomic.fetch_and_add t.inflight (-1));
    false
  end
  else true

let release t = Gauge.set_int g_inflight (Atomic.fetch_and_add t.inflight (-1) - 1)

let ev_endpoint ev endpoint ok =
  Wide_event.set_str ev "endpoint" endpoint;
  Wide_event.set_bool ev "ok" ok

let handle_value t ?ev v =
  Trace.with_span "server.dispatch" @@ fun sp ->
  let started_ns = Clock.now_ns () in
  (* the one id that joins audit line, trace span and slow-query log *)
  Option.iter (fun ev -> Trace.set_int sp "request_id" (Wide_event.id ev)) ev;
  let id = match v with Json.Object fields -> List.assoc_opt "id" fields | _ -> None in
  if not (admit t) then begin
    Counter.incr c_sheds;
    Trace.set_str sp "endpoint" "overloaded";
    Trace.set_bool sp "ok" false;
    Option.iter
      (fun ev ->
        ev_endpoint ev "overloaded" false;
        Wide_event.set_bool ev "shed" true;
        Wide_event.set_str ev "error" "overloaded")
      ev;
    record t ~endpoint:"overloaded" ~ok:false ~started_ns;
    P.encode_response ?id
      (P.Err
         {
           code = "overloaded";
           message =
             Printf.sprintf "server at capacity (%d requests in flight)" t.max_inflight;
           data = None;
         })
  end
  else
    Fun.protect
      ~finally:(fun () -> release t)
      (fun () ->
        let endpoint, resp =
          match P.decode_request v with
          | Error e -> ("invalid", P.Err e)
          | Ok req -> (P.op_name req, handle t ?ev req)
        in
        let ok = not (is_error resp) in
        Trace.set_str sp "endpoint" endpoint;
        Trace.set_bool sp "ok" ok;
        Option.iter
          (fun ev ->
            ev_endpoint ev endpoint ok;
            match resp with
            | P.Err e -> Wide_event.set_str ev "error" e.P.code
            | _ -> ())
          ev;
        record t ~endpoint ~ok ~started_ns;
        P.encode_response ?id resp)

(* The wire-level entry: allocates the request's wide event, measures
   the queue-wait vs service split, and emits the audit line once the
   response size is known. [recv_ns] is the frame-arrival timestamp
   from the transport; in the thread-per-connection frontend the wait
   is just read-to-dispatch time (a multiplexed frontend will report
   real queue wait through the same field). *)
let handle_line t ?recv_ns line =
  let ev = Wide_event.create () in
  let t0 = Clock.now_ns () in
  let recv_ns = match recv_ns with Some ns -> ns | None -> t0 in
  Wide_event.set_int ev "bytes_in" (String.length line);
  (* restart attribution: requests in the first post-recovery sample
     window carry recovered:true, so a latency blip right after a crash
     joins its cause in [gps audit summary] and [gps top] *)
  (match t.recovered_until_ns with
  | Some until when Int64.compare t0 until <= 0 -> Wide_event.set_bool ev "recovered" true
  | _ -> ());
  let out =
    match Json.value_of_string line with
    | v -> Json.value_to_string (handle_value t ~ev v)
    | exception Json.Parse_error (pos, msg) ->
        record t ~endpoint:"invalid" ~ok:false ~started_ns:t0;
        ev_endpoint ev "invalid" false;
        Wide_event.set_str ev "error" "parse";
        P.response_to_string
          (P.Err { code = "parse"; message = Printf.sprintf "at %d: %s" pos msg; data = None })
    | exception exn ->
        record t ~endpoint:"invalid" ~ok:false ~started_ns:t0;
        ev_endpoint ev "invalid" false;
        Wide_event.set_str ev "error" "parse";
        P.response_to_string
          (P.Err { code = "parse"; message = Printexc.to_string exn; data = None })
  in
  (match t.audit with
  | None -> ()
  | Some sink ->
      let done_ns = Clock.now_ns () in
      let us ns = Float.round (Int64.to_float ns /. 10.) /. 100. in
      let ms = us (Int64.sub done_ns recv_ns) /. 1000. in
      let ok =
        match Wide_event.fields ev |> List.assoc_opt "ok" with
        | Some (Wide_event.Bool b) -> b
        | _ -> false
      in
      Wide_event.set_int ev "bytes_out" (String.length out);
      Wide_event.set_float ev "wait_us" (us (Int64.sub t0 recv_ns));
      Wide_event.set_float ev "service_us" (us (Int64.sub done_ns t0));
      Wide_event.set_float ev "ms" (Float.round (ms *. 1000.) /. 1000.);
      Wide_event.emit sink ev ~ok ~ms);
  out

let blank line = String.for_all (function ' ' | '\t' | '\r' -> true | _ -> false) line

(* Ignore SIGPIPE exactly once, lazily, before the first byte is served:
   a peer closing mid-response must surface as an EPIPE write error (a
   counted connection close), never kill the process. *)
let sigpipe_ignored =
  lazy
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
     with Invalid_argument _ | Sys_error _ -> ())

(* Read one newline-terminated frame without ever buffering more than
   [max_bytes] — the slowloris/oversized-payload guard. [`Too_large]
   leaves the rest of the line unread; the caller answers once and
   closes rather than resynchronizing inside a frame of unknown size. *)
let read_frame ic ~max_bytes =
  let buf = Buffer.create 256 in
  let rec go () =
    match input_char ic with
    | exception End_of_file -> if Buffer.length buf = 0 then `Eof else `Frame (Buffer.contents buf)
    | '\n' -> `Frame (Buffer.contents buf)
    | c ->
        if Buffer.length buf >= max_bytes then `Too_large
        else begin
          Buffer.add_char buf c;
          go ()
        end
  in
  go ()

let log_disconnect reason =
  Counter.incr c_disconnects;
  prerr_endline
    (Json.value_to_string
       (Json.Object [ ("disconnect", Json.Bool true); ("reason", Json.String reason) ]))

let serve_channels t ic oc =
  Lazy.force sigpipe_ignored;
  let write line =
    Fault.trip "sock.write";
    output_string oc line;
    output_char oc '\n';
    flush oc
  in
  let rec loop () =
    match read_frame ic ~max_bytes:t.max_frame_bytes with
    | `Eof -> ()
    | `Too_large ->
        Counter.incr c_frame_rejects;
        write
          (P.response_to_string
             (P.Err
                {
                  code = "frame-too-large";
                  message =
                    Printf.sprintf "request frame exceeds %d bytes" t.max_frame_bytes;
                  data = None;
                }))
        (* and close: the remainder of the oversized frame is unread *)
    | `Frame line ->
        let recv_ns = Clock.now_ns () in
        if blank line then loop ()
        else begin
          write (handle_line t ~recv_ns line);
          loop ()
        end
  in
  try loop () with
  | Fault.Injected site -> log_disconnect ("injected fault at " ^ site)
  | Sys_error msg -> log_disconnect msg

(* ------------------------------------------------------------------ *)
(* TCP: one thread per connection *)

type tcp_server = {
  sock : Unix.file_descr;
  port : int;
  mutable running : bool;
  mutable acceptor : Thread.t option;
  conns : int Atomic.t;  (* live connections (accepted, not yet closed) *)
  conn_fds : (Unix.file_descr, unit) Hashtbl.t;
  conn_lock : Mutex.t;
}

let start_tcp t ?(host = "127.0.0.1") ~port () =
  Lazy.force sigpipe_ignored;
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
  Unix.listen sock 64;
  let port =
    match Unix.getsockname sock with Unix.ADDR_INET (_, p) -> p | _ -> port
  in
  let server =
    {
      sock;
      port;
      running = true;
      acceptor = None;
      conns = Atomic.make 0;
      conn_fds = Hashtbl.create 16;
      conn_lock = Mutex.create ();
    }
  in
  let forget fd =
    Mutex.lock server.conn_lock;
    Hashtbl.remove server.conn_fds fd;
    Mutex.unlock server.conn_lock;
    ignore (Atomic.fetch_and_add server.conns (-1))
  in
  let connection fd () =
    (* per-connection read/write timeouts: a peer that stops draining or
       feeding us cannot hold the thread forever *)
    (match t.io_timeout_s with
    | Some sec -> (
        try
          Unix.setsockopt_float fd Unix.SO_RCVTIMEO sec;
          Unix.setsockopt_float fd Unix.SO_SNDTIMEO sec
        with Unix.Unix_error _ | Invalid_argument _ -> ())
    | None -> ());
    let ic = Unix.in_channel_of_descr fd in
    let oc = Unix.out_channel_of_descr fd in
    (try serve_channels t ic oc with _ -> ());
    (try close_out oc (* flushes and closes fd *) with _ -> ());
    forget fd
  in
  let rec accept_loop () =
    if server.running then
      match Unix.accept sock with
      | fd, _ ->
          Mutex.lock server.conn_lock;
          Hashtbl.replace server.conn_fds fd ();
          Mutex.unlock server.conn_lock;
          ignore (Atomic.fetch_and_add server.conns 1);
          ignore (Thread.create (connection fd) ());
          accept_loop ()
      | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
      | exception _ -> if server.running then accept_loop ()
  in
  server.acceptor <- Some (Thread.create accept_loop ());
  server

let tcp_port s = s.port
let live_connections s = Atomic.get s.conns

let wait_tcp s = match s.acceptor with Some th -> Thread.join th | None -> ()

(* Stop accepting without touching established connections — the first
   half of both [stop_tcp] and a graceful drain, also what a signal
   handler may safely call. *)
let request_stop s =
  s.running <- false;
  (try Unix.shutdown s.sock Unix.SHUTDOWN_ALL with _ -> ());
  try Unix.close s.sock with _ -> ()

let stop_tcp s =
  request_stop s;
  wait_tcp s

let each_conn s f =
  Mutex.lock s.conn_lock;
  let fds = Hashtbl.fold (fun fd () acc -> fd :: acc) s.conn_fds [] in
  Mutex.unlock s.conn_lock;
  List.iter (fun fd -> try f fd with Unix.Unix_error _ | Invalid_argument _ -> ()) fds

let drain_tcp t s ?(grace_s = 5.0) () =
  (* 1. no new connections *)
  request_stop s;
  wait_tcp s;
  (* 2. cancel in-flight work: every request deadline embeds the drain
     token, so running evaluations unwind with a typed "cancelled" *)
  begin_drain t;
  (* 3. half-close the read side of every live connection: pending
     responses still flush, but no further request can arrive and idle
     keep-alive readers see EOF *)
  each_conn s (fun fd -> Unix.shutdown fd Unix.SHUTDOWN_RECEIVE);
  (* 4. wait for connection threads to finish, up to the grace period *)
  let t0 = Clock.now_ns () in
  while Atomic.get s.conns > 0 && Clock.ns_to_s (Clock.elapsed_ns t0) < grace_s do
    Thread.yield ();
    Thread.delay 0.01
  done;
  (* 5. force-close stragglers *)
  let stragglers = Atomic.get s.conns in
  if stragglers > 0 then each_conn s (fun fd -> Unix.shutdown fd Unix.SHUTDOWN_ALL);
  stragglers
