(* Resilience: monotonic deadlines and composable cancel tokens, the
   cooperative cancellation path through the evaluation kernel, the
   learner and the interactive session, deterministic fault injection,
   and the server-side enforcement — per-request deadlines with partial
   EXPLAIN reports, admission control (shedding), frame caps and
   graceful drain. *)

open Gps_graph
module D = Gps_obs.Deadline
module Fault = Gps_obs.Fault
module Eval = Gps_query.Eval
module Rpq = Gps_query.Rpq
module Learner = Gps_learning.Learner
module Sample = Gps_learning.Sample
module Session = Gps_interactive.Session
module Strategy = Gps_interactive.Strategy
module P = Gps_server.Protocol
module Srv = Gps_server.Server

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let q s = Rpq.of_string_exn s

let counter name =
  match List.assoc_opt name (Gps_obs.Counter.snapshot ()) with Some v -> v | None -> 0

(* ------------------------------------------------------------------ *)
(* deadline and token laws *)

let test_none_token () =
  check "none is none" true (D.is_none D.none);
  check "none never fires" true (D.check D.none = None);
  check "none not expired" false (D.expired D.none);
  check "none not cancelled" false (D.cancelled D.none);
  D.cancel D.none;
  (* cancelling the shared null token is a documented no-op *)
  check "cancel none is a no-op" false (D.cancelled D.none);
  check "none has no time deadline" true (D.remaining_ns D.none = None)

let test_cancel_token () =
  let t = D.token () in
  check "fresh token live" true (D.check t = None);
  check "fresh token not none" false (D.is_none t);
  check "token has no time deadline" true (D.remaining_ns t = None);
  D.cancel t;
  check "cancelled after cancel" true (D.cancelled t);
  check "check reports Cancelled" true (D.check t = Some D.Cancelled);
  D.cancel t;
  check "cancel idempotent" true (D.check t = Some D.Cancelled)

let test_after_ms () =
  let expired = D.after_ms (-5.0) in
  check "non-positive ms is pre-expired" true (D.expired expired);
  check "pre-expired reports Timed_out" true (D.check expired = Some D.Timed_out);
  check "pre-expired remaining clamps at 0" true (D.remaining_ns expired = Some 0L);
  let far = D.after_ms 1e7 in
  check "far deadline live" true (D.check far = None);
  (match D.remaining_ns far with
  | Some ns -> check "remaining positive and bounded" true (ns > 0L && ns <= 10_000_000_000_000L)
  | None -> Alcotest.fail "far deadline must carry a time limit")

let test_cancelled_wins_over_timeout () =
  let d = D.after_ms (-1.0) in
  check "expired" true (D.check d = Some D.Timed_out);
  D.cancel d;
  check "Cancelled wins when both apply" true (D.check d = Some D.Cancelled)

let test_combine () =
  (* identity on none, without allocation *)
  let d = D.after_ms 1e7 in
  check "combine none d == d" true (D.combine D.none d == d);
  check "combine d none == d" true (D.combine d D.none == d);
  (* cancellation propagates from either parent *)
  let p = D.token () in
  let c = D.combine p d in
  check "combined initially live" true (D.check c = None);
  D.cancel p;
  check "parent cancel reaches child" true (D.cancelled c && D.check c = Some D.Cancelled);
  check "sibling unaffected" false (D.cancelled d);
  (* the earlier deadline wins *)
  let near = D.after_ms 1e3 and far2 = D.after_ms 1e7 in
  (match D.remaining_ns (D.combine near far2) with
  | Some ns -> check "combine keeps the earlier deadline" true (ns <= 1_000_000_000L)
  | None -> Alcotest.fail "combined deadline lost its time limit");
  (* cancelling the combined token does not flow up to the parents *)
  let p2 = D.token () in
  let c2 = D.combine p2 (D.token ()) in
  D.cancel c2;
  check "child cancel does not reach parent" false (D.cancelled p2)

let test_reason_codec () =
  List.iter
    (fun r -> check "reason round-trips" true (D.reason_of_string (D.reason_to_string r) = Some r))
    [ D.Timed_out; D.Cancelled ];
  check "unknown reason rejected" true (D.reason_of_string "gave-up" = None);
  check "wire spelling" true
    (D.reason_to_string D.Timed_out = "timed-out" && D.reason_to_string D.Cancelled = "cancelled")

(* cancelling any leaf of an arbitrarily-shaped combine tree cancels the
   root — the law the server relies on to drain nested work *)
let prop_combine_tree_cancel =
  QCheck.Test.make ~name:"resilience: leaf cancel reaches combine root" ~count:200
    (QCheck.make QCheck.Gen.(pair (int_range 1 8) (int_bound 7)))
    (fun (n, i) ->
      let leaves = Array.init n (fun _ -> D.token ()) in
      let root = Array.fold_left D.combine D.none leaves in
      let leaf = leaves.(i mod n) in
      let before = D.cancelled root in
      D.cancel leaf;
      (not before) && D.cancelled root && D.check root = Some D.Cancelled)

let prop_combine_takes_earlier =
  QCheck.Test.make ~name:"resilience: combine keeps the earlier deadline" ~count:200
    (QCheck.make QCheck.Gen.(pair (int_range 0 1_000_000) (int_range 0 1_000_000)))
    (fun (a_us, b_us) ->
      let a = D.after_ns (Int64.of_int (a_us * 1000)) in
      let b = D.after_ns (Int64.of_int (b_us * 1000)) in
      let c = D.combine a b in
      match D.remaining_ns c with
      | None -> false
      | Some ns ->
          (* created after both parents, so it can only be tighter *)
          ns <= Int64.of_int (min a_us b_us * 1000))

(* ------------------------------------------------------------------ *)
(* cooperative cancellation in the evaluation kernel *)

let queries = [ "bus"; "(tram+bus)*.cinema"; "(bus+tram)*"; "tram.tram*" ]
let frozen g = Eval.Frozen (g, Csr.freeze g)

let test_eval_none_equivalence () =
  let g = Datasets.figure1 () in
  List.iter
    (fun qs ->
      let plain = Eval.select g (q qs) in
      (match Eval.run (frozen g) (q qs) with
      | Ok (sel, _) -> check "no deadline: Ok and equal" true (sel = plain)
      | Error _ -> Alcotest.fail "no deadline must not interrupt");
      match Eval.run ~deadline:(D.after_ms 1e7) (frozen g) (q qs) with
      | Ok (sel, _) -> check "far deadline: Ok and equal" true (sel = plain)
      | Error _ -> Alcotest.fail "far deadline must not interrupt")
    queries

let test_eval_pre_cancelled () =
  let g = Datasets.figure1 () in
  let tok = D.token () in
  D.cancel tok;
  match Eval.run ~deadline:tok (frozen g) (q "(tram+bus)*.cinema") with
  | Ok _ -> Alcotest.fail "pre-cancelled token must interrupt"
  | Error { Eval.reason; partial } ->
      check "reason is Cancelled" true (reason = D.Cancelled);
      check "partial report carries the stop" true (partial.Eval.stop = Eval.Cancelled);
      check "under-approximation only" true (partial.Eval.selected <= partial.Eval.graph_nodes)

let test_eval_pre_expired () =
  let g = Datasets.figure1 () in
  match Eval.run ~deadline:(D.after_ms 0.0) (frozen g) (q "(tram+bus)*.cinema") with
  | Ok _ -> Alcotest.fail "pre-expired deadline must interrupt"
  | Error { Eval.reason; partial } ->
      check "reason is Timed_out" true (reason = D.Timed_out);
      check "partial stop is Timed_out" true (partial.Eval.stop = Eval.Timed_out)

(* a deadline orders-of-magnitude under the work's cost terminates the
   evaluation promptly instead of running to completion *)
let test_eval_prompt_termination () =
  let g = Generators.uniform ~nodes:4000 ~edges:12_000 ~labels:[ "a"; "b"; "c" ] ~seed:7 in
  let heavy = q "(a+b+c)*.(a+b)*.(b+c)*.a" in
  let t0 = Gps_obs.Clock.now_ns () in
  (match Eval.run ~deadline:(D.after_ms 1.0) (frozen g) heavy with
  | Error { Eval.reason = D.Timed_out; partial } ->
      check "partial stop recorded" true (partial.Eval.stop = Eval.Timed_out)
  | Error { Eval.reason = D.Cancelled; _ } -> Alcotest.fail "nothing cancelled this run"
  | Ok _ -> () (* a very fast machine may finish inside 1ms; that is not a failure *));
  let elapsed_s = Gps_obs.Clock.ns_to_s (Gps_obs.Clock.elapsed_ns t0) in
  check "terminates promptly" true (elapsed_s < 5.0)

let test_eval_cancel_counters () =
  let g = Datasets.figure1 () in
  let before = counter "eval.cancel_checks" in
  (match Eval.run ~deadline:(D.after_ms 1e7) (frozen g) (q "(tram+bus)*.cinema") with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "far deadline must not interrupt");
  check "guarded run publishes cancel checks" true
    (counter "eval.cancel_checks" > before)

(* ------------------------------------------------------------------ *)
(* learner and session interruption *)

let test_learner_interrupted () =
  let g = Datasets.figure1 () in
  let s = Sample.of_names g ~pos:[ "N2"; "N6" ] ~neg:[ "N5" ] in
  let tok = D.token () in
  D.cancel tok;
  (match Learner.witness_words ~deadline:tok g s with
  | Error (Learner.Interrupted D.Cancelled) -> ()
  | _ -> Alcotest.fail "witness_words must report the interruption");
  (match Learner.learn ~deadline:tok g s with
  | Learner.Failed (Learner.Interrupted D.Cancelled) -> ()
  | _ -> Alcotest.fail "learn must report the interruption");
  (* no deadline: same sample still learns *)
  match Learner.learn g s with
  | Learner.Learned _ -> ()
  | Learner.Failed _ -> Alcotest.fail "the running example must learn without a deadline"

let test_session_interrupted () =
  let g = Datasets.figure1 () in
  let strategy = Result.get_ok (Strategy.by_name ~seed:1 "smart") in
  let tok = D.token () in
  D.cancel tok;
  let rec drive t steps =
    if steps > 50 then Alcotest.fail "session did not halt under a cancelled token"
    else
      match Session.request t with
      | Session.Finished outcome -> outcome
      | Session.Ask_label _ -> drive (Session.answer_label ~deadline:tok t `Pos) (steps + 1)
      | Session.Ask_path view ->
          drive
            (Session.answer_path ~deadline:tok t view.Gps_interactive.View.suggested)
            (steps + 1)
      | Session.Propose _ -> drive (Session.refine t) (steps + 1)
  in
  let outcome = drive (Session.start ~strategy g) 0 in
  match outcome.Session.reason with
  | Session.Interrupted D.Cancelled -> ()
  | _ -> Alcotest.fail "session must finish with Interrupted Cancelled"

(* ------------------------------------------------------------------ *)
(* deterministic fault injection *)

let with_faults spec f =
  Fault.configure_exn spec;
  Fun.protect ~finally:Fault.clear f

let test_fault_parse () =
  check "well-formed spec" true (Result.is_ok (Fault.configure "a:n3, b:once2, c:p0.5@7"));
  Fault.clear ();
  check "empty spec disarms" true (Fault.configure "" = Ok () && not (Fault.active ()));
  check "missing mode rejected" true (Result.is_error (Fault.configure "site"));
  check "unknown mode rejected" true (Result.is_error (Fault.configure "a:q3"));
  check "zero period rejected" true (Result.is_error (Fault.configure "a:n0"));
  check "empty site rejected" true (Result.is_error (Fault.configure ":n3"));
  check "probability over 1 rejected" true (Result.is_error (Fault.configure "a:p1.5"));
  (* a malformed spec leaves the previous configuration armed *)
  with_faults "x:n1" (fun () ->
      check "armed" true (Fault.active ());
      check "bad spec rejected" true (Result.is_error (Fault.configure "broken"));
      check "previous config survives" true (Fault.active () && Fault.should_fail "x"))

let test_fault_nth_once () =
  with_faults "x:n3" (fun () ->
      let decisions = List.init 9 (fun _ -> Fault.should_fail "x") in
      check "every 3rd call fails" true
        (decisions = [ false; false; true; false; false; true; false; false; true ]);
      check "unknown sites never fail" false (Fault.should_fail "other"));
  with_faults "x:once2" (fun () ->
      let decisions = List.init 5 (fun _ -> Fault.should_fail "x") in
      check "exactly the 2nd call fails" true
        (decisions = [ false; true; false; false; false ]))

let test_fault_prob_deterministic () =
  let run () = with_faults "x:p0.5@42" (fun () -> List.init 200 (fun _ -> Fault.should_fail "x")) in
  let a = run () and b = run () in
  check "same seed replays the same schedule" true (a = b);
  check "half-probability schedule is nontrivial" true
    (List.exists Fun.id a && List.exists (fun d -> not d) a);
  let c = with_faults "x:p0.5@43" (fun () -> List.init 200 (fun _ -> Fault.should_fail "x")) in
  check "different seed, different schedule" false (a = c)

let test_fault_trip_and_counters () =
  with_faults "x:once1" (fun () ->
      (match Fault.trip "x" with
      | () -> Alcotest.fail "first call must raise"
      | exception Fault.Injected site -> check "exception names the site" true (site = "x"));
      Fault.trip "x";
      (* call 2: passes *)
      check_int "one injection recorded" 1 (Fault.injected_count "x");
      check "sites lists the armed site" true (Fault.sites () = [ ("x", 1) ]))

(* the four compiled-in sites, each observed through the dispatch core *)

let fresh_server ?clock ?deadline_ms ?deadline_cap_ms ?(max_inflight = 0) ?max_frame_bytes () =
  let base = Srv.default_config in
  Srv.create
    ~config:
      {
        base with
        Srv.clock = (match clock with Some c -> c | None -> base.Srv.clock);
        Srv.deadline_ms;
        Srv.deadline_cap_ms;
        Srv.max_inflight;
        Srv.max_frame_bytes =
          (match max_frame_bytes with Some b -> b | None -> base.Srv.max_frame_bytes);
      }
    ()

let load_fig t = Srv.handle t (P.Load { name = "fig"; source = P.Builtin "figure1" })

let query_fig ?deadline_ms t =
  Srv.handle t (P.Query { graph = "fig"; query = "(tram+bus)*.cinema"; explain = false; deadline_ms })

let expect_code code = function
  | P.Err e -> Alcotest.(check string) "error code" code e.P.code
  | r -> Alcotest.failf "expected %s, got %s" code (P.response_to_string r)

let test_fault_site_catalog () =
  let t = fresh_server () in
  ignore (load_fig t);
  with_faults "catalog.lookup:once1" (fun () ->
      expect_code "unavailable" (query_fig t);
      match query_fig t with
      | P.Answer _ -> ()
      | r -> Alcotest.failf "second lookup must succeed, got %s" (P.response_to_string r))

let test_fault_site_qcache () =
  let t = fresh_server () in
  ignore (load_fig t);
  with_faults "qcache.insert:n1" (fun () ->
      (match query_fig t with
      | P.Answer { cache = `Miss; _ } -> ()
      | r -> Alcotest.failf "expected a served miss, got %s" (P.response_to_string r));
      (* every insert dropped: the same query misses again *)
      (match query_fig t with
      | P.Answer { cache = `Miss; _ } -> ()
      | r -> Alcotest.failf "expected a second miss, got %s" (P.response_to_string r));
      check "insert drops recorded" true (Fault.injected_count "qcache.insert" >= 2))

let test_fault_site_session () =
  let t = fresh_server () in
  ignore (load_fig t);
  with_faults "session.step:once1" (fun () ->
      expect_code "unavailable" (Srv.handle t (P.Session_show { session = 1 }));
      (* next step passes through to the normal (unknown-session) answer *)
      expect_code "unknown-session" (Srv.handle t (P.Session_show { session = 1 })))

let test_fault_site_sock_write () =
  let t = fresh_server () in
  with_faults "sock.write:once1" (fun () ->
      let req_r, req_w = Unix.pipe () and resp_r, resp_w = Unix.pipe () in
      let ic = Unix.in_channel_of_descr req_r and oc = Unix.out_channel_of_descr resp_w in
      let server =
        Thread.create
          (fun () ->
            (try Srv.serve_channels t ic oc with _ -> ());
            try close_out oc with Sys_error _ -> ())
          ()
      in
      let wr = Unix.out_channel_of_descr req_w in
      output_string wr "{\"op\":\"list-graphs\"}\n{\"op\":\"list-graphs\"}\n";
      close_out wr;
      Thread.join server;
      (* first response write tripped: the connection closed with nothing
         written and the disconnect was counted *)
      let rd = Unix.in_channel_of_descr resp_r in
      let got = try Some (input_line rd) with End_of_file -> None in
      close_in rd;
      (try close_in ic with _ -> ());
      check "no response escaped the tripped socket" true (got = None);
      check_int "one injection at sock.write" 1 (Fault.injected_count "sock.write"))

(* ------------------------------------------------------------------ *)
(* server-side deadline enforcement *)

let decode_report_data = function
  | Some j -> (
      match Eval.report_of_json j with
      | Ok r -> r
      | Error e -> Alcotest.failf "error data is not a report: %s" e)
  | None -> Alcotest.fail "timeout error must attach the partial report"

let test_server_default_deadline () =
  let t = fresh_server ~deadline_ms:0.0001 () in
  ignore (load_fig t);
  match query_fig t with
  | P.Err e ->
      Alcotest.(check string) "typed timeout" "timeout" e.P.code;
      let r = decode_report_data e.P.data in
      check "partial report stop" true (r.Eval.stop = Eval.Timed_out)
  | r -> Alcotest.failf "expected timeout, got %s" (P.response_to_string r)

let test_server_client_deadline_and_cap () =
  let t = fresh_server () in
  ignore (load_fig t);
  (* no default: an unbounded request answers *)
  (match query_fig t with
  | P.Answer _ -> ()
  | r -> Alcotest.failf "expected answer, got %s" (P.response_to_string r));
  (* a client-supplied deadline is honored (a query the cache has not
     seen — a cached result would satisfy any deadline instantly) *)
  expect_code "timeout"
    (Srv.handle t
       (P.Query
          { graph = "fig"; query = "tram.(bus+tram)*"; explain = false; deadline_ms = Some 0.0001 }));
  (* the cap bounds what a client may ask for *)
  let capped = fresh_server ~deadline_cap_ms:0.0001 () in
  ignore (load_fig capped);
  expect_code "timeout" (query_fig ~deadline_ms:60_000.0 capped)

let test_server_learn_deadline () =
  let t = fresh_server () in
  ignore (load_fig t);
  expect_code "timeout"
    (Srv.handle t
       (P.Learn { graph = "fig"; pos = [ "N2"; "N6" ]; neg = [ "N5" ]; deadline_ms = Some 0.0001 }))

(* ------------------------------------------------------------------ *)
(* overload shedding and drain *)

let test_shed_under_load () =
  let has s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  (* hold the admission slot deterministically: the worker's request is a
     session-start whose injected session clock blocks on [gate] until we
     release it -- no dependence on how long a real evaluation takes *)
  let gate = Mutex.create () in
  let gated = Atomic.make false in
  let clock () =
    if Atomic.get gated then begin
      Mutex.lock gate;
      Mutex.unlock gate
    end;
    0.0
  in
  let t = fresh_server ~clock ~max_inflight:1 () in
  ignore (load_fig t);
  Mutex.lock gate;
  Atomic.set gated true;
  let slow =
    P.Session_start { graph = "fig"; strategy = "smart"; seed = 1; budget = Some 5 }
  in
  (* admission control lives in the wire layer (handle_value), so drive
     it through handle_line *)
  let slow_response = ref "" in
  let worker =
    Thread.create (fun () -> slow_response := Srv.handle_line t (P.request_to_string slow)) ()
  in
  let t0 = Gps_obs.Clock.now_ns () in
  while
    Srv.inflight t < 1 && Gps_obs.Clock.ns_to_s (Gps_obs.Clock.elapsed_ns t0) < 10.0
  do
    Thread.yield ()
  done;
  (* the slot cannot be released while we hold the gate *)
  check_int "worker admitted" 1 (Srv.inflight t);
  (* the second concurrent request is shed before it is even decoded *)
  let shed = Srv.handle_line t (P.request_to_string P.List_graphs) in
  check "shed response is a typed overloaded error" true (has shed "\"overloaded\"");
  check "shed counted" true (counter "server.sheds" >= 1);
  check "not draining yet" false (Srv.draining t);
  Srv.begin_drain t;
  check "draining" true (Srv.draining t);
  (* release the gate: the held request completes and frees its slot *)
  Atomic.set gated false;
  Mutex.unlock gate;
  Thread.join worker;
  check "held request completed" true (has !slow_response "\"ok\":true");
  check_int "slot released" 0 (Srv.inflight t);
  (* the drain token pre-cancels any evaluation dispatched afterwards *)
  expect_code "cancelled"
    (Srv.handle t
       (P.Query { graph = "fig"; query = "bus.(tram+bus)*"; explain = false; deadline_ms = None }));
  (* ...while non-evaluating requests still answer -- a draining server
     refuses new work at the transports, not in the dispatch core *)
  match Srv.handle t P.List_graphs with
  | P.Graphs _ -> ()
  | r -> Alcotest.failf "expected graphs, got %s" (P.response_to_string r)

let test_frame_too_large () =
  let t = fresh_server ~max_frame_bytes:1024 () in
  let req_r, req_w = Unix.pipe () and resp_r, resp_w = Unix.pipe () in
  let ic = Unix.in_channel_of_descr req_r and oc = Unix.out_channel_of_descr resp_w in
  let server =
    Thread.create
      (fun () ->
        (try Srv.serve_channels t ic oc with _ -> ());
        try close_out oc with Sys_error _ -> ())
      ()
  in
  let wr = Unix.out_channel_of_descr req_w in
  (* an oversized frame, then a well-formed one that must never be read *)
  output_string wr (String.make 4096 'x');
  output_string wr "\n{\"op\":\"list-graphs\"}\n";
  close_out wr;
  Thread.join server;
  let rd = Unix.in_channel_of_descr resp_r in
  let first = try Some (input_line rd) with End_of_file -> None in
  let second = try Some (input_line rd) with End_of_file -> None in
  close_in rd;
  (try close_in ic with _ -> ());
  (match first with
  | Some line ->
      check "frame-too-large error" true
        (let n = String.length line in
         let rec go i =
           i + 15 <= n && (String.sub line i 15 = "frame-too-large" || go (i + 1))
         in
         go 0)
  | None -> Alcotest.fail "expected one frame-too-large error line");
  check "connection closed after the oversized frame" true (second = None);
  check "rejection counted" true (counter "server.frame_rejections" >= 1)

(* ------------------------------------------------------------------ *)

let qcheck_tests = [ prop_combine_tree_cancel; prop_combine_takes_earlier ]

let suite =
  [
    ( "resilience.deadline",
      [
        Alcotest.test_case "none token" `Quick test_none_token;
        Alcotest.test_case "cancel token" `Quick test_cancel_token;
        Alcotest.test_case "after_ms" `Quick test_after_ms;
        Alcotest.test_case "cancelled wins over timeout" `Quick test_cancelled_wins_over_timeout;
        Alcotest.test_case "combine" `Quick test_combine;
        Alcotest.test_case "reason codec" `Quick test_reason_codec;
      ] );
    ( "resilience.eval",
      [
        Alcotest.test_case "none-deadline equivalence" `Quick test_eval_none_equivalence;
        Alcotest.test_case "pre-cancelled interrupts" `Quick test_eval_pre_cancelled;
        Alcotest.test_case "pre-expired interrupts" `Quick test_eval_pre_expired;
        Alcotest.test_case "prompt termination" `Slow test_eval_prompt_termination;
        Alcotest.test_case "cancel checks counted" `Quick test_eval_cancel_counters;
      ] );
    ( "resilience.learning",
      [
        Alcotest.test_case "learner interrupted" `Quick test_learner_interrupted;
        Alcotest.test_case "session interrupted" `Quick test_session_interrupted;
      ] );
    ( "resilience.fault",
      [
        Alcotest.test_case "spec parsing" `Quick test_fault_parse;
        Alcotest.test_case "nth and once modes" `Quick test_fault_nth_once;
        Alcotest.test_case "probabilistic replay" `Quick test_fault_prob_deterministic;
        Alcotest.test_case "trip and counters" `Quick test_fault_trip_and_counters;
        Alcotest.test_case "site: catalog.lookup" `Quick test_fault_site_catalog;
        Alcotest.test_case "site: qcache.insert" `Quick test_fault_site_qcache;
        Alcotest.test_case "site: session.step" `Quick test_fault_site_session;
        Alcotest.test_case "site: sock.write" `Quick test_fault_site_sock_write;
      ] );
    ( "resilience.server",
      [
        Alcotest.test_case "default deadline" `Quick test_server_default_deadline;
        Alcotest.test_case "client deadline and cap" `Quick test_server_client_deadline_and_cap;
        Alcotest.test_case "learn deadline" `Quick test_server_learn_deadline;
        Alcotest.test_case "shed under load" `Slow test_shed_under_load;
        Alcotest.test_case "frame too large" `Quick test_frame_too_large;
      ] );
    ("resilience.properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
  ]
