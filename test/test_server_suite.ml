(* The gps_server service layer: protocol codec round-trips and fuzzing,
   catalog versioning, the LRU result cache, the session manager's
   TTL/eviction behavior (driven by a fake clock), the dispatch core end
   to end, and the TCP frontend over a real loopback socket. *)

module Json = Gps_graph.Json
module P = Gps_server.Protocol
module Catalog = Gps_server.Catalog
module Qcache = Gps_server.Qcache
module Sessions = Gps_server.Sessions
module Metrics = Gps_server.Metrics
module Srv = Gps_server.Server
module S = Gps.Interactive.Session

let check = Alcotest.check
let fig1 () = Gps.Graph.Datasets.figure1 ()

let ok_or_fail = function
  | Ok v -> v
  | Error e -> Alcotest.failf "decode error: %s: %s" e.P.code e.P.message

(* ------------------------------------------------------------------ *)
(* helpers over a dispatch core *)

let fresh ?(cache = 256) ?(sessions = Sessions.default_config) ?clock ?slow_ms ?deadline_ms
    ?deadline_cap_ms ?(max_inflight = 0) ?max_frame_bytes () =
  let base = Srv.default_config in
  let clock = match clock with Some c -> c | None -> base.Srv.clock in
  Srv.create
    ~config:
      {
        base with
        Srv.cache_capacity = cache;
        Srv.sessions;
        Srv.clock;
        Srv.slow_ms;
        Srv.deadline_ms;
        Srv.deadline_cap_ms;
        Srv.max_inflight;
        Srv.max_frame_bytes =
          (match max_frame_bytes with Some b -> b | None -> base.Srv.max_frame_bytes);
      }
    ()

let load_fig1 t = Srv.handle t (P.Load { name = "fig"; source = P.Builtin "figure1" })

let expect_answer = function
  | P.Answer { query; nodes; cache; explain = _ } -> (query, P.Names.to_list nodes, cache)
  | r -> Alcotest.failf "expected answer, got %s" (P.response_to_string r)

let expect_session = function
  | P.Session { session; view } -> (session, view)
  | r -> Alcotest.failf "expected session, got %s" (P.response_to_string r)

let expect_err code = function
  | P.Err e -> check Alcotest.string "error code" code e.P.code
  | r -> Alcotest.failf "expected %s error, got %s" code (P.response_to_string r)

(* ------------------------------------------------------------------ *)
(* dispatch end to end *)

let test_load_query_cache () =
  let t = fresh () in
  (match load_fig1 t with
  | P.Loaded { nodes; edges; version; _ } ->
      check Alcotest.int "nodes" 10 nodes;
      check Alcotest.int "edges" 10 edges;
      check Alcotest.int "version" 1 version
  | r -> Alcotest.failf "expected loaded, got %s" (P.response_to_string r));
  let q = P.Query { graph = "fig"; query = "(tram+bus)*.cinema"; explain = false; deadline_ms = None } in
  let _, nodes, cache = expect_answer (Srv.handle t q) in
  check (Alcotest.list Alcotest.string) "selected" [ "N1"; "N2"; "N4"; "N6" ] nodes;
  check Alcotest.bool "first is a miss" true (cache = `Miss);
  (* a syntactic variant of the same query must hit the same entry *)
  let norm, nodes', cache' =
    expect_answer (Srv.handle t (P.Query { graph = "fig"; query = "(bus+tram)*.cinema"; explain = false; deadline_ms = None }))
  in
  check (Alcotest.list Alcotest.string) "same answer" nodes nodes';
  check Alcotest.bool "normalized variant hits" true (cache' = `Hit);
  check Alcotest.string "normalized form" "(bus+tram)*.cinema" norm

let test_reload_invalidates () =
  let t = fresh () in
  ignore (load_fig1 t);
  let q = P.Query { graph = "fig"; query = "bus"; explain = false; deadline_ms = None } in
  ignore (Srv.handle t q);
  let _, _, c = expect_answer (Srv.handle t q) in
  check Alcotest.bool "hit before reload" true (c = `Hit);
  (match load_fig1 t with
  | P.Loaded { version; _ } -> check Alcotest.int "version bumped" 2 version
  | r -> Alcotest.failf "expected loaded, got %s" (P.response_to_string r));
  let _, _, c = expect_answer (Srv.handle t q) in
  check Alcotest.bool "miss after reload" true (c = `Miss)

let test_errors_are_structured () =
  let t = fresh () in
  expect_err "unknown-graph" (Srv.handle t (P.Stats { graph = "nope" }));
  ignore (load_fig1 t);
  expect_err "bad-query" (Srv.handle t (P.Query { graph = "fig"; query = "(("; explain = false; deadline_ms = None }));
  expect_err "unknown-session" (Srv.handle t (P.Session_show { session = 99 }));
  expect_err "bad-request"
    (Srv.handle t (P.Load { name = "x"; source = P.Builtin "nope" }));
  expect_err "io" (Srv.handle t (P.Load { name = "x"; source = P.Path "/no/such/file" }));
  expect_err "parse" (Srv.handle t (P.Load { name = "x"; source = P.Text "one two" }));
  expect_err "inconsistent"
    (Srv.handle t (P.Learn { graph = "fig"; pos = [ "C1" ]; neg = [ "N5" ]; deadline_ms = None }));
  expect_err "bad-request"
    (Srv.handle t (P.Learn { graph = "fig"; pos = [ "Nx" ]; neg = []; deadline_ms = None }))

let test_learn () =
  let t = fresh () in
  ignore (load_fig1 t);
  match Srv.handle t (P.Learn { graph = "fig"; pos = [ "N2"; "N6" ]; neg = [ "N5" ]; deadline_ms = None }) with
  | P.Learned { query; selects } ->
      check Alcotest.string "learned" "bus" query;
      check (Alcotest.list Alcotest.string) "selects" [ "N1"; "N2"; "N6" ] (P.Names.to_list selects)
  | r -> Alcotest.failf "expected learned, got %s" (P.response_to_string r)

(* drive a full interactive session through the dispatch core with a
   perfect oracle for (tram+bus)*.cinema *)
let test_full_session () =
  let t = fresh () in
  ignore (load_fig1 t);
  let goal = [ "N1"; "N2"; "N4"; "N6" ] in
  let in_lang w =
    match List.rev w with
    | "cinema" :: rest -> List.for_all (fun l -> l = "bus" || l = "tram") rest
    | _ -> false
  in
  let r =
    Srv.handle t
      (P.Session_start { graph = "fig"; strategy = "smart"; seed = 1; budget = Some 30 })
  in
  let sid, view = expect_session r in
  let rec drive view steps =
    if steps > 100 then Alcotest.fail "session did not terminate";
    match view with
    | P.Ask_label { node; _ } ->
        let positive = List.mem node goal in
        let _, v = expect_session (Srv.handle t (P.Session_label { session = sid; positive })) in
        drive v (steps + 1)
    | P.Ask_path { words; _ } ->
        let path = List.find_opt in_lang words in
        let _, v =
          expect_session (Srv.handle t (P.Session_validate { session = sid; path }))
        in
        drive v (steps + 1)
    | P.Proposal { selects; _ } ->
        let accept = P.Names.to_list selects = goal in
        let _, v =
          expect_session (Srv.handle t (P.Session_propose { session = sid; accept }))
        in
        drive v (steps + 1)
    | P.Finished { reason; selects; _ } ->
        check Alcotest.string "reason" "satisfied" reason;
        check (Alcotest.list Alcotest.string) "final selects" goal (P.Names.to_list selects)
  in
  drive view 0;
  (match Srv.handle t (P.Session_stop { session = sid }) with
  | P.Stopped { questions; _ } -> check Alcotest.bool "asked questions" true (questions > 0)
  | r -> Alcotest.failf "expected stopped, got %s" (P.response_to_string r));
  expect_err "unknown-session" (Srv.handle t (P.Session_show { session = sid }))

let test_session_bad_state () =
  let t = fresh () in
  ignore (load_fig1 t);
  let r =
    Srv.handle t (P.Session_start { graph = "fig"; strategy = "smart"; seed = 1; budget = None })
  in
  let sid, view = expect_session r in
  (match view with
  | P.Ask_label _ -> ()
  | _ -> Alcotest.fail "expected an initial label request");
  (* answering a path or proposal out of turn is a structured error, and
     the session survives *)
  expect_err "bad-state" (Srv.handle t (P.Session_validate { session = sid; path = None }));
  expect_err "bad-state" (Srv.handle t (P.Session_propose { session = sid; accept = true }));
  let _, view' = expect_session (Srv.handle t (P.Session_show { session = sid })) in
  match view' with
  | P.Ask_label _ -> ()
  | _ -> Alcotest.fail "session state disturbed by bad-state requests"

let test_session_budget () =
  let t = fresh () in
  ignore (load_fig1 t);
  let r =
    Srv.handle t
      (P.Session_start { graph = "fig"; strategy = "smart"; seed = 1; budget = Some 1 })
  in
  let sid, view = expect_session r in
  match view with
  | P.Ask_label _ -> (
      let _, v =
        expect_session (Srv.handle t (P.Session_label { session = sid; positive = false }))
      in
      (* one answer allowed: the session must now be finished (maybe after
         a final proposal) *)
      match v with
      | P.Finished { reason; _ } -> check Alcotest.string "reason" "budget-exhausted" reason
      | P.Proposal _ -> ()
      | _ -> Alcotest.fail "budget 1 should end the interaction")
  | _ -> Alcotest.fail "expected an initial label request"

(* two concurrent sessions on the same graph advance independently *)
let test_two_sessions_interleaved () =
  let t = fresh () in
  ignore (load_fig1 t);
  let start seed =
    fst
      (expect_session
         (Srv.handle t
            (P.Session_start { graph = "fig"; strategy = "smart"; seed; budget = Some 30 })))
  in
  let s1 = start 1 in
  let s2 = start 2 in
  check Alcotest.bool "distinct ids" true (s1 <> s2);
  (* answer "no" in s1; s2's pending request must be untouched *)
  let _, v2_before = expect_session (Srv.handle t (P.Session_show { session = s2 })) in
  ignore (Srv.handle t (P.Session_label { session = s1; positive = false }));
  let _, v2_after = expect_session (Srv.handle t (P.Session_show { session = s2 })) in
  (match (v2_before, v2_after) with
  | P.Ask_label { node = a; _ }, P.Ask_label { node = b; _ } ->
      check Alcotest.string "s2 unchanged" a b
  | _ -> Alcotest.fail "expected label requests in s2");
  ignore (Srv.handle t (P.Session_stop { session = s1 }));
  ignore (Srv.handle t (P.Session_stop { session = s2 }))

(* ------------------------------------------------------------------ *)
(* sessions manager: TTL and max-sessions, under a fake clock *)

let test_session_ttl_and_eviction () =
  let now = ref 0. in
  let clock () = !now in
  let t =
    fresh ~sessions:{ Sessions.max_sessions = 2; idle_ttl = 10. } ~clock ()
  in
  ignore (load_fig1 t);
  let start () =
    fst
      (expect_session
         (Srv.handle t
            (P.Session_start { graph = "fig"; strategy = "smart"; seed = 1; budget = None })))
  in
  let s1 = start () in
  now := 5.;
  let s2 = start () in
  (* s3 exceeds max_sessions: the idlest (s1) is evicted *)
  let s3 = start () in
  expect_err "unknown-session" (Srv.handle t (P.Session_show { session = s1 }));
  ignore (expect_session (Srv.handle t (P.Session_show { session = s2 })));
  (* the TTL is sliding: showing s3 at t=12 refreshes it, so at t=22 only
     s2 (idle since t=5) has expired *)
  now := 12.;
  ignore (expect_session (Srv.handle t (P.Session_show { session = s3 })));
  now := 22.;
  expect_err "unknown-session" (Srv.handle t (P.Session_show { session = s2 }));
  ignore (expect_session (Srv.handle t (P.Session_show { session = s3 })))

(* ------------------------------------------------------------------ *)
(* catalog and cache units *)

let test_catalog_versions () =
  let c = Catalog.create () in
  let e1 = Catalog.put c ~name:"a" (fig1 ()) in
  let e2 = Catalog.put c ~name:"a" (fig1 ()) in
  let e3 = Catalog.put c ~name:"b" (fig1 ()) in
  check Alcotest.int "v1" 1 e1.Catalog.version;
  check Alcotest.int "v2" 2 e2.Catalog.version;
  check Alcotest.int "b v1" 1 e3.Catalog.version;
  check Alcotest.int "count" 2 (Catalog.count c);
  check
    (Alcotest.list Alcotest.string)
    "list sorted" [ "a"; "b" ]
    (List.map (fun e -> e.Catalog.name) (Catalog.list c))

let test_qcache_lru () =
  let c = Qcache.create ~capacity:2 () in
  let k q = { Qcache.graph = "g"; version = 1; query = q } in
  Qcache.add c (k "a") [ "1" ];
  Qcache.add c (k "b") [ "2" ];
  check (Alcotest.option (Alcotest.list Alcotest.string)) "a cached" (Some [ "1" ])
    (Qcache.find c (k "a"));
  (* b is now least recently used; inserting c evicts it *)
  Qcache.add c (k "c") [ "3" ];
  check (Alcotest.option (Alcotest.list Alcotest.string)) "b evicted" None
    (Qcache.find c (k "b"));
  check (Alcotest.option (Alcotest.list Alcotest.string)) "a survives" (Some [ "1" ])
    (Qcache.find c (k "a"));
  let s = Qcache.stats c in
  check Alcotest.int "evictions" 1 s.Qcache.evictions;
  check Alcotest.int "size" 2 s.Qcache.size;
  (* invalidation drops only the named graph *)
  let c = Qcache.create ~capacity:8 () in
  Qcache.add c (k "a") [ "1" ];
  Qcache.add c (k "b") [ "2" ];
  Qcache.add c { Qcache.graph = "other"; version = 1; query = "a" } [ "x" ];
  let dropped = Qcache.invalidate c ~graph:"g" in
  check Alcotest.int "dropped" 2 dropped;
  check Alcotest.int "other survives" 1 (Qcache.stats c).Qcache.size

let test_qcache_disabled () =
  let c = Qcache.create ~capacity:0 () in
  let k = { Qcache.graph = "g"; version = 1; query = "a" } in
  Qcache.add c k [ "1" ];
  check (Alcotest.option (Alcotest.list Alcotest.string)) "never stores" None (Qcache.find c k)

let test_qcache_version_isolation () =
  let c = Qcache.create () in
  Qcache.add c { Qcache.graph = "g"; version = 1; query = "a" } [ "old" ];
  check
    (Alcotest.option (Alcotest.list Alcotest.string))
    "other version misses" None
    (Qcache.find c { Qcache.graph = "g"; version = 2; query = "a" })

(* ------------------------------------------------------------------ *)
(* metrics *)

let test_metrics_json () =
  let m = Metrics.create () in
  Metrics.record m ~endpoint:"query" ~ok:true ~seconds:0.00005;
  Metrics.record m ~endpoint:"query" ~ok:false ~seconds:0.5;
  Metrics.record m ~endpoint:"load" ~ok:true ~seconds:2.0;
  let doc = Metrics.to_json m in
  let q = Option.get (Json.member "query" doc) in
  check Alcotest.int "requests"
    2
    (match Json.member "requests" q with Some (Json.Number f) -> int_of_float f | _ -> -1);
  check Alcotest.int "errors" 1
    (match Json.member "errors" q with Some (Json.Number f) -> int_of_float f | _ -> -1);
  let lat = Option.get (Json.member "latency" q) in
  let buckets = Option.get (Json.member "buckets" lat) in
  check Alcotest.int "le_100us bucket" 1
    (match Json.member "le_100us" buckets with Some (Json.Number f) -> int_of_float f | _ -> -1);
  check Alcotest.int "le_1s bucket" 1
    (match Json.member "le_1s" buckets with Some (Json.Number f) -> int_of_float f | _ -> -1);
  let load = Option.get (Json.member "load" doc) in
  let lbuckets = Option.get (Json.member "buckets" (Option.get (Json.member "latency" load))) in
  check Alcotest.int "gt_1s bucket" 1
    (match Json.member "gt_1s" lbuckets with Some (Json.Number f) -> int_of_float f | _ -> -1);
  (* deterministic variant has no latency *)
  let doc = Metrics.to_json ~timings:false m in
  let q = Option.get (Json.member "query" doc) in
  check Alcotest.bool "no latency" true (Json.member "latency" q = None)

let test_metrics_endpoint_counts () =
  let t = fresh () in
  ignore (load_fig1 t);
  ignore (Srv.handle t (P.Query { graph = "fig"; query = "bus"; explain = false; deadline_ms = None }));
  ignore (Srv.handle_line t "not json at all");
  let line = Srv.handle_line t "{\"op\":\"metrics\",\"timings\":false}" in
  let doc = Json.value_of_string line in
  let m = Option.get (Json.member "metrics" doc) in
  let cache = Option.get (Json.member "cache" m) in
  (match Json.member "misses" cache with
  | Some (Json.Number f) -> check Alcotest.int "one miss" 1 (int_of_float f)
  | _ -> Alcotest.fail "no cache.misses");
  let eps = Option.get (Json.member "endpoints" m) in
  (match Json.member "invalid" eps with
  | Some inv ->
      check Alcotest.int "invalid counted" 1
        (match Json.member "requests" inv with Some (Json.Number f) -> int_of_float f | _ -> -1)
  | None -> Alcotest.fail "no invalid endpoint")

(* the decade projection contract: a latency well inside a decade lands
   in that decade's own le_* bucket and nowhere else, and anything above
   one second is gt_1s. (Values exactly on a decade edge straddle a log
   bucket, so the projection only promises mid-decade accuracy — the
   full-resolution histogram behind the projection keeps ≤25% error
   everywhere.) *)
let test_metrics_bucket_edges () =
  let m = Metrics.create () in
  let edges =
    [
      (5e-6, "le_10us");
      (5e-5, "le_100us");
      (5e-4, "le_1ms");
      (5e-3, "le_10ms");
      (5e-2, "le_100ms");
      (0.5, "le_1s");
      (2.0, "gt_1s");
    ]
  in
  List.iteri
    (fun i (seconds, label) ->
      let endpoint = Printf.sprintf "edge%d" i in
      Metrics.record m ~endpoint ~ok:true ~seconds;
      let doc = Metrics.to_json m in
      let e = Option.get (Json.member endpoint doc) in
      let buckets = Option.get (Json.member "buckets" (Option.get (Json.member "latency" e))) in
      List.iter
        (fun l ->
          let expected = if l = label then 1 else 0 in
          check Alcotest.int
            (Printf.sprintf "%g lands in %s only (%s)" seconds label l)
            expected
            (match Json.member l buckets with Some (Json.Number f) -> int_of_float f | _ -> -1))
        Metrics.bucket_labels)
    edges

(* ------------------------------------------------------------------ *)
(* explain, prometheus exposition, slow-query log *)

let test_query_explain () =
  let t = fresh () in
  ignore (load_fig1 t);
  (* miss: the full evaluation report, cache verdict included *)
  (match Srv.handle t (P.Query { graph = "fig"; query = "bus"; explain = true; deadline_ms = None }) with
  | P.Answer { cache = `Miss; explain = Some report; nodes; _ } ->
      check Alcotest.bool "cache field says miss" true
        (Json.member "cache" report = Some (Json.String "miss"));
      (* the rest of the object is a decodable Eval.report *)
      let r =
        match Gps_query.Eval.report_of_json report with
        | Ok r -> r
        | Error msg -> Alcotest.failf "explain not a report: %s" msg
      in
      check Alcotest.int "selected matches answer" (P.Names.count nodes)
        r.Gps_query.Eval.selected;
      check Alcotest.bool "positive product" true (r.Gps_query.Eval.product_states > 0);
      check Alcotest.bool "levels recorded" true (r.Gps_query.Eval.report_levels <> []);
      check Alcotest.bool "stop reason terminal" true
        (r.Gps_query.Eval.stop <> Gps_query.Eval.Empty_automaton)
  | r -> Alcotest.failf "expected explained answer, got %s" (P.response_to_string r));
  (* hit: no evaluation ran, the report is just the cache verdict *)
  (match Srv.handle t (P.Query { graph = "fig"; query = "bus"; explain = true; deadline_ms = None }) with
  | P.Answer { cache = `Hit; explain = Some (Json.Object [ ("cache", Json.String "hit") ]); _ }
    ->
      ()
  | r -> Alcotest.failf "expected hit verdict, got %s" (P.response_to_string r));
  (* without the flag, no explain field at all *)
  match Srv.handle t (P.Query { graph = "fig"; query = "bus"; explain = false; deadline_ms = None }) with
  | P.Answer { explain = None; _ } -> ()
  | r -> Alcotest.failf "expected no explain, got %s" (P.response_to_string r)

(* a minimal exposition lint, shared with the CI smoke step's intent:
   every # TYPE introduces a fresh family and is followed by at least
   one sample of that family *)
let lint_prom text =
  let lines = String.split_on_char '\n' text in
  let seen = Hashtbl.create 16 in
  let rec go current_family samples = function
    | [] -> if current_family <> "" && samples = 0 then Error current_family else Ok ()
    | line :: rest ->
        if String.length line > 7 && String.sub line 0 7 = "# TYPE " then begin
          let rest_of = String.sub line 7 (String.length line - 7) in
          let family =
            match String.index_opt rest_of ' ' with
            | Some i -> String.sub rest_of 0 i
            | None -> rest_of
          in
          if Hashtbl.mem seen family then Error (family ^ " duplicated")
          else begin
            Hashtbl.replace seen family ();
            if current_family <> "" && samples = 0 then Error current_family
            else go family 0 rest
          end
        end
        else if line = "" || line.[0] = '#' then go current_family samples rest
        else go current_family (samples + 1) rest
  in
  go "" 0 lines

let test_metrics_prom () =
  let t = fresh () in
  ignore (load_fig1 t);
  (* endpoint latency is recorded by the wire layer, so go through it *)
  ignore (Srv.handle_line t "{\"op\":\"query\",\"graph\":\"fig\",\"query\":\"bus\"}");
  match Srv.handle t P.Metrics_prom with
  | P.Prom_dump text ->
      check Alcotest.bool "non-empty" true (String.length text > 0);
      (match lint_prom text with
      | Ok () -> ()
      | Error family -> Alcotest.failf "family %s has no samples (or is duplicated)" family);
      let has needle =
        let nl = String.length needle and tl = String.length text in
        let rec at i = i + nl <= tl && (String.sub text i nl = needle || at (i + 1)) in
        at 0
      in
      check Alcotest.bool "counters render" true (has "# TYPE gps_server_dispatches_total counter");
      check Alcotest.bool "endpoint histogram renders" true
        (has "gps_server_request_ns_bucket{endpoint=\"query\"");
      check Alcotest.bool "+Inf bucket present" true (has "le=\"+Inf\"")
  | r -> Alcotest.failf "expected prom dump, got %s" (P.response_to_string r)

let test_slow_query_log () =
  let c_slow = Gps_obs.Counter.make "server.slow_queries" in
  let before = Gps_obs.Counter.value c_slow in
  (* threshold 0: every query is slow *)
  let t = fresh ~slow_ms:0. () in
  ignore (load_fig1 t);
  ignore (Srv.handle t (P.Query { graph = "fig"; query = "bus"; explain = false; deadline_ms = None }));
  check Alcotest.int "slow query counted" (before + 1) (Gps_obs.Counter.value c_slow);
  (* no threshold: nothing logged *)
  let t = fresh () in
  ignore (load_fig1 t);
  ignore (Srv.handle t (P.Query { graph = "fig"; query = "bus"; explain = false; deadline_ms = None }));
  check Alcotest.int "no threshold, no log" (before + 1) (Gps_obs.Counter.value c_slow)

(* ------------------------------------------------------------------ *)
(* status *)

let test_status_endpoint () =
  let t = fresh () in
  ignore (load_fig1 t);
  ignore (Srv.handle t (P.Query { graph = "fig"; query = "bus"; explain = false; deadline_ms = None }));
  let line = Srv.handle_line t "{\"op\":\"status\",\"timings\":false}" in
  let doc = Json.value_of_string line in
  let s = Option.get (Json.member "status" doc) in
  check Alcotest.bool "no uptime without timings" true (Json.member "uptime_s" s = None);
  (match Json.member "graphs" s with
  | Some (Json.Array [ g ]) ->
      check Alcotest.bool "graph name" true (Json.member "name" g = Some (Json.String "fig"));
      check Alcotest.bool "graph version" true (Json.member "version" g = Some (Json.Number 1.))
  | _ -> Alcotest.fail "expected one graph in status");
  let cache = Option.get (Json.member "cache" s) in
  (match Json.member "size" cache with
  | Some (Json.Number f) -> check Alcotest.int "one cached result" 1 (int_of_float f)
  | _ -> Alcotest.fail "no cache.size");
  let sessions = Option.get (Json.member "sessions" s) in
  check Alcotest.bool "no active sessions" true
    (Json.member "active" sessions = Some (Json.Number 0.));
  (* with timings, uptime is present and non-negative *)
  let line = Srv.handle_line t "{\"op\":\"status\"}" in
  let s = Option.get (Json.member "status" (Json.value_of_string line)) in
  match Json.member "uptime_s" s with
  | Some (Json.Number f) -> check Alcotest.bool "uptime >= 0" true (f >= 0.)
  | _ -> Alcotest.fail "no uptime_s with timings"

(* ------------------------------------------------------------------ *)
(* wire envelope *)

let test_id_echo () =
  let t = fresh () in
  let line = Srv.handle_line t "{\"op\":\"list-graphs\",\"id\":\"abc\"}" in
  let doc = Json.value_of_string line in
  check Alcotest.bool "id echoed" true (Json.member "id" doc = Some (Json.String "abc"));
  let line = Srv.handle_line t "{\"op\":\"nope\",\"id\":42}" in
  let doc = Json.value_of_string line in
  check Alcotest.bool "id echoed on error" true (Json.member "id" doc = Some (Json.Number 42.));
  check Alcotest.bool "is error" true (Json.member "ok" doc = Some (Json.Bool false))

(* ------------------------------------------------------------------ *)
(* TCP frontend: real sockets, two concurrent connections *)

let test_tcp () =
  let t = fresh () in
  ignore (load_fig1 t);
  let tcp = Srv.start_tcp t ~port:0 () in
  let port = Srv.tcp_port tcp in
  Fun.protect
    ~finally:(fun () -> Srv.stop_tcp tcp)
    (fun () ->
      let connect () =
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        (Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)
      in
      let roundtrip (ic, oc) line =
        output_string oc (line ^ "\n");
        flush oc;
        input_line ic
      in
      let c1 = connect () in
      let c2 = connect () in
      let r1 = roundtrip c1 "{\"op\":\"query\",\"graph\":\"fig\",\"query\":\"bus\"}" in
      let r2 = roundtrip c2 "{\"op\":\"query\",\"graph\":\"fig\",\"query\":\"bus\"}" in
      let cache_of r =
        match Json.member "cache" (Json.value_of_string r) with
        | Some (Json.String s) -> s
        | _ -> "?"
      in
      check Alcotest.string "first miss" "miss" (cache_of r1);
      check Alcotest.string "second hit (shared cache)" "hit" (cache_of r2);
      let r = roundtrip c2 "garbage" in
      check Alcotest.bool "tcp structured error" true
        (Json.member "ok" (Json.value_of_string r) = Some (Json.Bool false));
      close_out (snd c1);
      close_out (snd c2))

(* ------------------------------------------------------------------ *)
(* protocol: QCheck round-trip and malformed-input fuzzing *)

let gen_name = QCheck.Gen.(oneofl [ "fig"; "city"; "g1"; "prod"; "a b"; "weird\"name" ])
let gen_label = QCheck.Gen.(oneofl [ "bus"; "tram"; "cinema"; "a"; "b" ])
let gen_word = QCheck.Gen.(list_size (int_range 1 4) gen_label)
let gen_query = QCheck.Gen.(oneofl [ "bus"; "(tram+bus)*.cinema"; "a.b*"; "(a+b).(a+b)*" ])
let gen_session = QCheck.Gen.int_range 0 1000

let gen_request =
  let open QCheck.Gen in
  oneof
    [
      (let* name = gen_name in
       let* source =
         oneof
           [
             map (fun b -> P.Builtin b) (oneofl [ "figure1"; "transpole" ]);
             map (fun p -> P.Path p) gen_name;
             map (fun t -> P.Text t) (oneofl [ "N1 tram N2"; ""; "x y z\nnode q" ]);
           ]
       in
       return (P.Load { name; source }));
      (let* name = gen_name in
       let* path = oneofl [ "g.csr"; "/tmp/big.csr"; "rel/graph.csr" ] in
       return (P.Load_file { name; path }));
      (let* graph = gen_name in
       let* edges = list_size (int_bound 4) (triple gen_name gen_label gen_name) in
       return (P.Add_edges { graph; edges }));
      return P.List_graphs;
      map (fun graph -> P.Stats { graph }) gen_name;
      (let* graph = gen_name in
       let* query = gen_query in
       let* explain = bool in
       (* integral floats: survive the JSON text round-trip exactly *)
       let* deadline_ms = opt (map float_of_int (int_range 1 10_000)) in
       return (P.Query { graph; query; explain; deadline_ms }));
      (let* graph = gen_name in
       let* pos = list_size (int_bound 3) gen_name in
       let* neg = list_size (int_bound 3) gen_name in
       let* deadline_ms = opt (map float_of_int (int_range 1 10_000)) in
       return (P.Learn { graph; pos; neg; deadline_ms }));
      (let* graph = gen_name in
       let* strategy = oneofl [ "smart"; "random"; "degree"; "sequential" ] in
       let* seed = int_bound 100 in
       let* budget = opt (int_bound 50) in
       return (P.Session_start { graph; strategy; seed; budget }));
      map (fun session -> P.Session_show { session }) gen_session;
      (let* session = gen_session in
       let* positive = bool in
       return (P.Session_label { session; positive }));
      map (fun session -> P.Session_zoom { session }) gen_session;
      (let* session = gen_session in
       let* path = opt gen_word in
       return (P.Session_validate { session; path }));
      (let* session = gen_session in
       let* accept = bool in
       return (P.Session_propose { session; accept }));
      map (fun session -> P.Session_stop { session }) gen_session;
      map (fun timings -> P.Metrics { timings }) bool;
      return P.Metrics_prom;
      map (fun timings -> P.Status { timings }) bool;
      (let* last = opt (int_range 1 1000) in
       let* downsample = opt (int_range 1 60) in
       return (P.Timeseries { last; downsample }));
    ]

let gen_view =
  let open QCheck.Gen in
  oneof
    [
      (let* node = gen_name in
       let* radius = int_range 1 5 in
       let* size = int_bound 50 in
       let* frontier = list_size (int_bound 3) gen_name in
       return (P.Ask_label { node; radius; size; frontier }));
      (let* node = gen_name in
       let* words = list_size (int_bound 4) gen_word in
       let* suggested = gen_word in
       return (P.Ask_path { node; words; suggested }));
      (let* query = gen_query in
       let* selects = list_size (int_bound 4) gen_name in
       return (P.Proposal { query; selects = P.Names.of_list selects }));
      (let* query = gen_query in
       let* reason =
         oneofl [ "satisfied"; "no-informative-nodes"; "budget-exhausted"; "inconsistent" ]
       in
       let* selects = list_size (int_bound 4) gen_name in
       return (P.Finished { query; reason; selects = P.Names.of_list selects }));
    ]

let gen_response =
  let open QCheck.Gen in
  oneof
    [
      (let* name = gen_name in
       let* nodes = int_bound 1000 in
       let* edges = int_bound 1000 in
       let* labels = int_bound 20 in
       let* version = int_range 1 9 in
       return (P.Loaded { name; nodes; edges; labels; version }));
      (let* name = gen_name in
       let* version = int_range 1 9 in
       let* added = int_bound 100 in
       let* new_nodes = int_bound 10 in
       let* overlay_edges = int_bound 1000 in
       let* invalidated = int_bound 20 in
       return (P.Edges_added { name; version; added; new_nodes; overlay_edges; invalidated }));
      (let* graphs = list_size (int_bound 4) (pair gen_name (int_range 1 9)) in
       return (P.Graphs { graphs }));
      (let* name = gen_name in
       let* nodes = int_bound 1000 in
       let* edges = int_bound 1000 in
       let* labels = list_size (int_bound 4) gen_label in
       let* version = int_range 1 9 in
       return (P.Stats_of { name; nodes; edges; labels; version }));
      (let* query = gen_query in
       let* nodes = list_size (int_bound 4) gen_name in
       let* cache = oneofl [ `Hit; `Miss ] in
       let* explain =
         opt
           (oneofl
              [
                Json.Object [ ("cache", Json.String "hit") ];
                Json.Object
                  [ ("cache", Json.String "miss"); ("product_states", Json.Number 42.) ];
              ])
       in
       return (P.Answer { query; nodes = P.Names.of_list nodes; cache; explain }));
      (let* query = gen_query in
       let* selects = list_size (int_bound 4) gen_name in
       return (P.Learned { query; selects = P.Names.of_list selects }));
      (let* session = gen_session in
       let* view = gen_view in
       return (P.Session { session; view }));
      (let* session = gen_session in
       let* questions = int_bound 100 in
       return (P.Stopped { session; questions }));
      (let* code = oneofl [ "parse"; "bad-request"; "unknown-graph"; "timeout" ] in
       let* message = gen_name in
       let* data =
         opt (oneofl [ Json.Object [ ("stop", Json.String "timed-out") ]; Json.Null ])
       in
       return (P.Err { code; message; data }));
      map
        (fun lines -> P.Prom_dump (String.concat "\n" lines))
        (list_size (int_bound 4)
           (oneofl
              [
                "# TYPE gps_eval_runs_total counter";
                "gps_eval_runs_total 3";
                "gps_server_request_ns_bucket{endpoint=\"query\",le=\"+Inf\"} 2";
              ]));
      (let* graphs = int_bound 5 in
       let* active = int_bound 9 in
       return
         (P.Status_dump
            (Json.Object
               [
                 ("graphs", Json.Number (float_of_int graphs));
                 ("sessions", Json.Object [ ("active", Json.Number (float_of_int active)) ]);
                 ("trace_enabled", Json.Bool false);
               ])));
      (let* samples = int_bound 100 in
       let* rate = map float_of_int (int_bound 500) in
       return
         (P.Timeseries_dump
            (Json.Object
               [
                 ("interval_s", Json.Number 1.0);
                 ("total_samples", Json.Number (float_of_int samples));
                 ( "points",
                   Json.Array
                     [
                       Json.Object
                         [
                           ("t_s", Json.Number 1.0);
                           ("dt_s", Json.Number 1.0);
                           ( "rates",
                             Json.Object [ ("server.dispatches", Json.Number rate) ] );
                           ("gauges", Json.Object []);
                           ("hist", Json.Object []);
                         ];
                     ] );
               ])));
    ]

let arb_request = QCheck.make ~print:P.request_to_string gen_request
let arb_response = QCheck.make ~print:(fun r -> P.response_to_string r) gen_response

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"protocol: decode (encode request) = request" ~count:500 arb_request
      (fun r -> ok_or_fail (P.decode_request (P.encode_request r)) = r);
    Test.make ~name:"protocol: request survives the wire (via text)" ~count:500 arb_request
      (fun r ->
        ok_or_fail (P.decode_request (Json.value_of_string (P.request_to_string r))) = r);
    Test.make ~name:"protocol: decode (encode response) = response" ~count:500 arb_response
      (fun r -> ok_or_fail (P.decode_response (P.encode_response r)) = r);
    Test.make ~name:"protocol: response survives the wire (via text)" ~count:500 arb_response
      (fun r ->
        ok_or_fail (P.decode_response (Json.value_of_string (P.response_to_string r))) = r);
    Test.make ~name:"protocol: names keep their list and print as the reference array"
      ~count:500
      (make ~print:(fun l -> String.concat " | " (List.map String.escaped l))
         Gen.(list_size (int_bound 8) Test_extensions_suite.gen_json_string))
      (fun l ->
        let names = P.Names.of_list l in
        let reference =
          Test_extensions_suite.reference_to_string (Json.Array (List.map (fun s -> Json.String s) l))
        in
        let spliced =
          Json.member "nodes"
            (P.encode_response (P.Answer { query = "q"; nodes = names; cache = `Hit; explain = None }))
        in
        P.Names.to_list names = l
        && P.Names.count names = List.length l
        && spliced = Some (Json.Raw reference));
    (* fuzz: truncating a valid request line anywhere never crashes the
       dispatch loop and always yields a structured error or answer *)
    Test.make ~name:"fuzz: truncated request lines get structured responses" ~count:300
      QCheck.(pair arb_request (make Gen.(float_bound_inclusive 1.)))
      (fun (r, frac) ->
        let t = fresh () in
        let line = P.request_to_string r in
        let cut = int_of_float (frac *. float_of_int (String.length line)) in
        let line = String.sub line 0 (min cut (String.length line)) in
        let out = Srv.handle_line t line in
        match Json.value_of_string out with
        | Json.Object fields -> List.mem_assoc "ok" fields
        | _ -> false);
    (* fuzz: arbitrary byte garbage *)
    Test.make ~name:"fuzz: garbage lines get structured errors" ~count:300
      QCheck.(string_of_size Gen.(int_bound 40))
      (fun s ->
        let t = fresh () in
        let out = Srv.handle_line t s in
        match Json.value_of_string out with
        | Json.Object fields -> List.mem_assoc "ok" fields
        | _ -> false
        | exception _ -> false);
    (* fuzz: well-formed JSON of the wrong shape is "bad-request", and a
       live server (graph + session loaded) survives any decodable
       request against it *)
    Test.make ~name:"fuzz: any decodable request is handled without raising" ~count:200
      arb_request
      (fun r ->
        let t = fresh () in
        ignore (load_fig1 t);
        ignore
          (Srv.handle t
             (P.Session_start { graph = "fig"; strategy = "smart"; seed = 1; budget = None }));
        match Srv.handle t r with _ -> true);
  ]

let wrong_shape_cases () =
  let t = fresh () in
  List.iter
    (fun line ->
      let out = Srv.handle_line t line in
      match Json.value_of_string out with
      | Json.Object fields -> (
          check Alcotest.bool "not ok" true (List.assoc_opt "ok" fields = Some (Json.Bool false));
          match List.assoc_opt "error" fields with
          | Some (Json.Object e) -> check Alcotest.bool "has code" true (List.mem_assoc "code" e)
          | _ -> Alcotest.fail "no error object")
      | _ -> Alcotest.fail "response is not an object")
    [
      "[]";
      "42";
      "null";
      "\"query\"";
      "{}";
      "{\"op\":12}";
      "{\"op\":\"query\"}";
      "{\"op\":\"query\",\"graph\":7,\"query\":\"a\"}";
      "{\"op\":\"session-label\",\"session\":1,\"answer\":\"maybe\"}";
      "{\"op\":\"session-propose\",\"session\":1}";
      "{\"op\":\"load\",\"name\":\"x\"}";
      "{\"op\":\"load\",\"name\":\"x\",\"path\":\"a\",\"text\":\"b\"}";
      "{\"op\":\"session-show\",\"session\":1.5}";
    ]


(* ------------------------------------------------------------------ *)
(* shared first questions: smart starts fork a per-graph template *)

let c_scores = Gps_obs.Counter.make "informative.scores"
let c_entries = Gps_obs.Counter.make "informative.memo_entries"

let load_text t name g =
  match Srv.handle t (P.Load { name; source = P.Text (Gps.Graph.Codec.to_string g) }) with
  | P.Loaded _ -> ()
  | r -> Alcotest.failf "expected loaded, got %s" (P.response_to_string r)

let selection t graph query =
  let _, nodes, _ =
    expect_answer (Srv.handle t (P.Query { graph; query; explain = false; deadline_ms = None }))
  in
  nodes

(* A response as bytes, with the session id blanked so that dialogs of
   different sessions compare byte for byte. *)
let dialog_bytes = function
  | P.Session { view; _ } -> P.response_to_string (P.Session { session = 0; view })
  | r -> P.response_to_string r

(* A deterministic user at the wire: "yes" on the nodes of [goal], the
   suggested path, and acceptance of a proposal selecting exactly
   [goal]. Returns every response of the dialog, the start's first. *)
let wire_dialog ?(yield = false) t ~graph ?(strategy = "smart") ?(seed = 0) ?budget goal =
  let sid, _ = expect_session (Srv.handle t (P.Session_start { graph; strategy; seed; budget })) in
  let rec go r k acc =
    if yield then Thread.yield ();
    let acc = dialog_bytes r :: acc in
    let next req = go (Srv.handle t req) (k - 1) acc in
    match r with
    | _ when k = 0 -> List.rev acc
    | P.Session { view = P.Ask_label { node; _ }; _ } ->
        next (P.Session_label { session = sid; positive = List.mem node goal })
    | P.Session { view = P.Ask_path _; _ } -> next (P.Session_validate { session = sid; path = None })
    | P.Session { view = P.Proposal { selects; _ }; _ } ->
        next (P.Session_propose { session = sid; accept = P.Names.to_list selects = goal })
    | _ -> List.rev acc
  in
  let transcript = go (Srv.handle t (P.Session_show { session = sid })) 40 [] in
  ignore (Srv.handle t (P.Session_stop { session = sid }));
  transcript

let city_graph () = Gps.Graph.Generators.city (Gps.Graph.Generators.default_city ~districts:8) ~seed:3

let test_template_shared_start () =
  let t = fresh () in
  load_text t "city" (city_graph ());
  let goal = selection t "city" "(tram+bus)*.cinema" in
  let first = wire_dialog t ~graph:"city" goal in
  let scores = Gps_obs.Counter.value c_scores and entries = Gps_obs.Counter.value c_entries in
  let sid, _ =
    expect_session
      (Srv.handle t (P.Session_start { graph = "city"; strategy = "smart"; seed = 0; budget = None }))
  in
  check Alcotest.int "a shared start scores no node" 0 (Gps_obs.Counter.value c_scores - scores);
  check Alcotest.int "a shared start adds no memo entry" 0
    (Gps_obs.Counter.value c_entries - entries);
  ignore (Srv.handle t (P.Session_stop { session = sid }));
  check Alcotest.(list string) "second dialog = first, byte for byte" first
    (wire_dialog t ~graph:"city" goal);
  List.iter
    (fun budget ->
      let alone = fresh () in
      load_text alone "city" (city_graph ());
      check Alcotest.(list string) "budgeted dialog = its run alone"
        (wire_dialog alone ~graph:"city" ?budget goal)
        (wire_dialog t ~graph:"city" ?budget goal))
    [ Some 0; Some 1; Some 3 ]

(* the wide event of a start names its graph and how its first question
   was served *)
let test_template_wide_event () =
  let t = fresh () in
  ignore (load_fig1 t);
  let first_step strategy =
    let ev = Gps_obs.Wide_event.create () in
    let sid, _ =
      expect_session
        (Srv.handle t ~ev (P.Session_start { graph = "fig"; strategy; seed = 1; budget = None }))
    in
    ignore (Srv.handle t (P.Session_stop { session = sid }));
    let field k = List.assoc_opt k (Gps_obs.Wide_event.fields ev) in
    check Alcotest.bool "graph" true (field "graph" = Some (Gps_obs.Wide_event.Str "fig"));
    match field "first_step" with
    | Some (Gps_obs.Wide_event.Str s) -> s
    | _ -> Alcotest.fail "no first_step field"
  in
  check Alcotest.string "first smart start" "computed" (first_step "smart");
  check Alcotest.string "second smart start" "shared" (first_step "smart");
  check Alcotest.string "random starts fresh" "computed" (first_step "random");
  check Alcotest.string "degree starts fresh" "computed" (first_step "degree")

(* a reload installs a new entry: its first start computes a new template *)
let test_template_reload () =
  let tiny = Gps.Graph.Codec.of_string "A go B\nB go C\nC stop D\nA stop C\n" in
  let t = fresh () in
  load_text t "x" (fig1 ());
  let before = wire_dialog t ~graph:"x" [ "N2" ] in
  load_text t "x" tiny;
  let after = wire_dialog t ~graph:"x" [ "A" ] in
  let alone = fresh () in
  load_text alone "x" tiny;
  check Alcotest.(list string) "after a reload = the new graph alone"
    (wire_dialog alone ~graph:"x" [ "A" ]) after;
  check Alcotest.bool "the two graphs ask different first questions" true
    (List.hd before <> List.hd after)

(* a file-backed entry's template goes with its materialization: the
   first start after add_edges computes a new one *)
let test_template_add_edges () =
  let path = Filename.temp_file "gps_template" ".csr" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Gps_graph.Disk_csr.pack_digraph (fig1 ()) ~path;
      let hub =
        List.map (fun l -> ("HUB", l, "N2")) [ "bus"; "tram"; "cinema"; "restaurant" ]
        @ [ ("HUB", "bus", "N1"); ("HUB", "tram", "N4") ]
      in
      let open_file t =
        match Srv.handle t (P.Load_file { name = "f"; path }) with
        | P.Loaded _ -> ()
        | r -> Alcotest.failf "expected loaded, got %s" (P.response_to_string r)
      in
      let add t =
        match Srv.handle t (P.Add_edges { graph = "f"; edges = hub }) with
        | P.Edges_added _ -> ()
        | r -> Alcotest.failf "expected edges-added, got %s" (P.response_to_string r)
      in
      let goal = [ "HUB"; "N2" ] in
      let t = fresh () in
      open_file t;
      let before = wire_dialog t ~graph:"f" goal in
      add t;
      let after = wire_dialog t ~graph:"f" goal in
      let alone = fresh () in
      open_file alone;
      add alone;
      check Alcotest.(list string) "after add_edges = the grown graph alone"
        (wire_dialog alone ~graph:"f" goal) after;
      check Alcotest.bool "the grown graph asks another first question" true
        (List.hd before <> List.hd after);
      check Alcotest.(list string) "and shares it from then on" after (wire_dialog t ~graph:"f" goal))

(* random's generator is its own state: its starts never share *)
let test_template_random () =
  let t = fresh () in
  load_text t "city" (city_graph ());
  let goal = selection t "city" "(tram+bus)*.cinema" in
  let firsts =
    List.map
      (fun seed ->
        let d = wire_dialog t ~graph:"city" ~strategy:"random" ~seed goal in
        let alone = fresh () in
        load_text alone "city" (city_graph ());
        check Alcotest.(list string) (Printf.sprintf "random seed %d = its run alone" seed)
          (wire_dialog alone ~graph:"city" ~strategy:"random" ~seed goal) d;
        List.hd d)
      [ 1; 2; 3; 1 ]
  in
  check Alcotest.bool "seeds ask different first questions" true
    (List.length (List.sort_uniq compare firsts) > 1)

(* four systhreads run dialogs on one graph at once, from before its
   template exists: every transcript equals its dialog run alone *)
let test_template_concurrent () =
  let g = city_graph () in
  let t = fresh () in
  load_text t "city" g;
  let dialogs =
    [
      ("(tram+bus)*.cinema", "smart", None);
      ("bus.bus*", "smart", Some 3);
      ("tram*.restaurant", "smart", None);
      ("(tram+bus)*.cinema", "random", None);
    ]
  in
  let goals = List.map (fun (q, _, _) -> selection t "city" q) dialogs in
  let results = Array.make (List.length dialogs) [] in
  let threads =
    List.mapi
      (fun i ((_, strategy, budget), goal) ->
        Thread.create
          (fun () ->
            results.(i) <- wire_dialog ~yield:true t ~graph:"city" ~strategy ~seed:i ?budget goal)
          ())
      (List.combine dialogs goals)
  in
  List.iter Thread.join threads;
  List.iteri
    (fun i ((q, strategy, budget), goal) ->
      let alone = fresh () in
      load_text alone "city" g;
      check Alcotest.(list string) (Printf.sprintf "%s dialog for %s" strategy q)
        (wire_dialog alone ~graph:"city" ~strategy ~seed:i ?budget goal)
        results.(i))
    (List.combine dialogs goals)

let suite =
  [
    ( "server.dispatch",
      [
        Alcotest.test_case "load, query, normalized cache hit" `Quick test_load_query_cache;
        Alcotest.test_case "reload bumps version and invalidates" `Quick test_reload_invalidates;
        Alcotest.test_case "errors are structured" `Quick test_errors_are_structured;
        Alcotest.test_case "learn endpoint" `Quick test_learn;
        Alcotest.test_case "full interactive session" `Quick test_full_session;
        Alcotest.test_case "bad-state answers don't disturb sessions" `Quick
          test_session_bad_state;
        Alcotest.test_case "per-session budget" `Quick test_session_budget;
        Alcotest.test_case "two sessions interleave independently" `Quick
          test_two_sessions_interleaved;
        Alcotest.test_case "session TTL and max-sessions eviction" `Quick
          test_session_ttl_and_eviction;
        Alcotest.test_case "id echo envelope" `Quick test_id_echo;
        Alcotest.test_case "malformed shapes get error envelopes" `Quick wrong_shape_cases;
      ] );
    ( "server.components",
      [
        Alcotest.test_case "catalog versions" `Quick test_catalog_versions;
        Alcotest.test_case "qcache LRU + invalidation" `Quick test_qcache_lru;
        Alcotest.test_case "qcache capacity 0 disables" `Quick test_qcache_disabled;
        Alcotest.test_case "qcache isolates versions" `Quick test_qcache_version_isolation;
        Alcotest.test_case "metrics histogram JSON" `Quick test_metrics_json;
        Alcotest.test_case "metrics count endpoints and cache" `Quick
          test_metrics_endpoint_counts;
        Alcotest.test_case "metrics histogram bucket edges" `Quick test_metrics_bucket_edges;
        Alcotest.test_case "query explain reports" `Quick test_query_explain;
        Alcotest.test_case "prometheus exposition lints" `Quick test_metrics_prom;
        Alcotest.test_case "slow-query log counts" `Quick test_slow_query_log;
        Alcotest.test_case "status endpoint" `Quick test_status_endpoint;
        Alcotest.test_case "tcp frontend, two connections" `Quick test_tcp;
      ] );
    ( "server.templates",
      [
        Alcotest.test_case "a second start shares the first's dialog" `Quick
          test_template_shared_start;
        Alcotest.test_case "session-start wide event" `Quick test_template_wide_event;
        Alcotest.test_case "a reload computes a new template" `Quick test_template_reload;
        Alcotest.test_case "add_edges computes a new template" `Quick test_template_add_edges;
        Alcotest.test_case "random starts fresh" `Quick test_template_random;
        Alcotest.test_case "concurrent dialogs equal their runs alone" `Quick
          test_template_concurrent;
      ] );
    ("server.protocol", List.map QCheck_alcotest.to_alcotest qcheck_tests);
  ]
