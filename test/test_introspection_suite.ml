(* Introspection: the in-process timeseries sampler, wide-event audit
   stream and their server/CLI surfaces.

   The metric registries are process-global, so every test works with
   its own uniquely-named counters/gauges and reads *deltas* between
   samples it took itself — concurrent suites bumping other metrics
   cannot interfere. *)

module Timeseries = Gps_obs.Timeseries
module Wide_event = Gps_obs.Wide_event
module Counter = Gps_obs.Counter
module Gauge = Gps_obs.Gauge
module Histogram = Gps_obs.Histogram
module Prom = Gps_obs.Prom
module Json = Gps_graph.Json
module Srv = Gps_server.Server
module P = Gps_server.Protocol

let check = Alcotest.check

(* a gated fake clock: time only moves when the test says so *)
let fake_clock start =
  let now = ref start in
  let clock () = !now in
  let advance_s s = now := Int64.add !now (Int64.of_float (s *. 1e9)) in
  (clock, advance_s)

let rate_of point key = List.assoc_opt key point.Timeseries.rates
let counter_of point key = List.assoc_opt key point.Timeseries.counters

(* ------------------------------------------------------------------ *)
(* timeseries: ring, rates, windows *)

let test_ring_wraparound () =
  let clock, advance = fake_clock 1_000_000_000L in
  let ts = Timeseries.create ~capacity:4 ~interval_s:1.0 ~clock () in
  for _ = 1 to 7 do
    Timeseries.sample ts;
    advance 1.0
  done;
  check Alcotest.int "total_samples counts beyond capacity" 7 (Timeseries.total_samples ts);
  let points = Timeseries.window ts in
  (* 4 retained samples -> 3 points *)
  check Alcotest.int "window spans the retained ring" 3 (List.length points);
  let stamps = List.map (fun p -> p.Timeseries.at_ns) points in
  check Alcotest.bool "timestamps strictly increase" true
    (List.for_all2 (fun a b -> Int64.compare a b < 0)
       (List.filteri (fun i _ -> i < List.length stamps - 1) stamps)
       (List.tl stamps))

let test_rate_math () =
  let c = Counter.make "introspect.rate_reqs" in
  let g = Gauge.make "introspect.rate_depth" in
  let clock, advance = fake_clock 5_000_000_000L in
  let ts = Timeseries.create ~capacity:16 ~interval_s:1.0 ~clock () in
  Timeseries.sample ts;
  Counter.add c 10;
  Gauge.set g 3.5;
  advance 2.0;
  Timeseries.sample ts;
  Counter.add c 5;
  advance 0.5;
  Timeseries.sample ts;
  match Timeseries.window ts with
  | [ p1; p2 ] ->
      check (Alcotest.float 1e-9) "dt from the fake clock" 2.0 p1.Timeseries.dt_s;
      check (Alcotest.option (Alcotest.float 1e-9)) "10 in 2s = 5/s" (Some 5.0)
        (rate_of p1 "introspect.rate_reqs");
      check (Alcotest.option (Alcotest.float 1e-9)) "gauge carried verbatim" (Some 3.5)
        (List.assoc_opt "introspect.rate_depth" p1.Timeseries.gauges);
      check (Alcotest.float 1e-9) "second interval dt" 0.5 p2.Timeseries.dt_s;
      check (Alcotest.option (Alcotest.float 1e-9)) "5 in 0.5s = 10/s" (Some 10.0)
        (rate_of p2 "introspect.rate_reqs");
      check Alcotest.bool "cumulative counter is monotone" true
        (counter_of p1 "introspect.rate_reqs" <= counter_of p2 "introspect.rate_reqs")
  | points -> Alcotest.failf "expected 2 points, got %d" (List.length points)

let test_window_selection () =
  let clock, advance = fake_clock 0L in
  let ts = Timeseries.create ~capacity:32 ~interval_s:1.0 ~clock () in
  for _ = 1 to 10 do
    Timeseries.sample ts;
    advance 1.0
  done;
  check Alcotest.int "last 3 samples -> 2 points" 2
    (List.length (Timeseries.window ~last:3 ts));
  check Alcotest.int "last beyond stored clamps" 9
    (List.length (Timeseries.window ~last:100 ts));
  check Alcotest.int "one sample -> no points" 0 (List.length (Timeseries.window ~last:1 ts));
  Alcotest.check_raises "last 0 refused"
    (Invalid_argument "Timeseries.window: last must be >= 1") (fun () ->
      ignore (Timeseries.window ~last:0 ts));
  (* downsampling always keeps the newest sample *)
  let newest sel =
    match List.rev sel with p :: _ -> p.Timeseries.at_ns | [] -> Alcotest.fail "empty"
  in
  let full = Timeseries.window ts in
  List.iter
    (fun k ->
      check Alcotest.bool
        (Printf.sprintf "downsample %d ends on the latest sample" k)
        true
        (newest (Timeseries.window ~downsample:k ts) = newest full))
    [ 2; 3; 4; 7 ]

(* the telescoping invariant: summing rate*dt over the window recovers
   the total counter delta no matter how the window is downsampled *)
let test_downsample_telescopes () =
  QCheck.Test.make ~name:"timeseries: counter delta is downsample-invariant" ~count:60
    QCheck.(
      make
        Gen.(
          pair
            (list_size (int_range 2 40) (int_bound 50))
            (int_range 1 8)))
    (fun (increments, k) ->
      (* the invariant needs the oldest sample retained under
         downsampling (every k-th counting back from the newest), so
         trim to a whole number of strides *)
      let keep = List.length increments - (List.length increments mod k) in
      let increments = List.filteri (fun i _ -> i < keep) increments in
      let c = Counter.make "introspect.telescope" in
      let clock, advance = fake_clock 0L in
      let ts = Timeseries.create ~capacity:64 ~interval_s:1.0 ~clock () in
      Timeseries.sample ts;
      List.iter
        (fun n ->
          Counter.add c n;
          advance 1.0;
          Timeseries.sample ts)
        increments;
      let delta points =
        List.fold_left
          (fun acc p ->
            acc
            +. (Option.value ~default:0.0 (rate_of p "introspect.telescope")
               *. p.Timeseries.dt_s))
          0.0 points
      in
      let full = delta (Timeseries.window ts) in
      let sampled = delta (Timeseries.window ~downsample:k ts) in
      Float.abs (full -. sampled) < 1e-6)

let test_concurrent_record_vs_snapshot () =
  let c = Counter.make "introspect.concurrent" in
  let ts = Timeseries.create ~capacity:128 ~interval_s:0.001 () in
  let stop = Atomic.make false in
  let writer =
    Thread.create
      (fun () ->
        while not (Atomic.get stop) do
          Counter.incr c;
          Thread.yield ()
        done)
      ()
  in
  for _ = 1 to 50 do
    Timeseries.sample ts
  done;
  Atomic.set stop true;
  Thread.join writer;
  let points = Timeseries.window ts in
  check Alcotest.bool "sampling under fire yields points" true (List.length points > 0);
  let values =
    List.filter_map (fun p -> counter_of p "introspect.concurrent") points
  in
  let rec monotone = function
    | a :: (b :: _ as rest) -> a <= b && monotone rest
    | _ -> true
  in
  check Alcotest.bool "cumulative counter never regresses" true (monotone values)

let test_hist_interval_stats () =
  let h = Histogram.make "introspect.lat_ns" in
  let clock, advance = fake_clock 0L in
  let ts = Timeseries.create ~capacity:8 ~interval_s:1.0 ~clock () in
  Timeseries.sample ts;
  List.iter (Histogram.record h) [ 100; 100; 100; 100 ];
  advance 2.0;
  Timeseries.sample ts;
  match Timeseries.window ts with
  | [ p ] -> (
      match
        List.find_opt (fun hp -> hp.Timeseries.hkey = "introspect.lat_ns") p.Timeseries.hists
      with
      | None -> Alcotest.fail "histogram missing from the point"
      | Some hp ->
          check Alcotest.int "interval count" 4 hp.Timeseries.hcount;
          check (Alcotest.float 1e-9) "interval rate" 2.0 hp.Timeseries.hrate;
          check Alcotest.bool "p50 lands in the recorded bucket" true
            (hp.Timeseries.hp50 >= 64. && hp.Timeseries.hp50 <= 256.))
  | points -> Alcotest.failf "expected 1 point, got %d" (List.length points)

let test_sampler_thread () =
  let ts = Timeseries.create ~capacity:16 ~interval_s:0.01 () in
  check Alcotest.bool "not running before start" false (Timeseries.running ts);
  Timeseries.start ts;
  Timeseries.start ts;
  check Alcotest.bool "running after start" true (Timeseries.running ts);
  let deadline = Unix.gettimeofday () +. 5.0 in
  while Timeseries.total_samples ts < 3 && Unix.gettimeofday () < deadline do
    Thread.delay 0.01
  done;
  Timeseries.stop ts;
  Timeseries.stop ts;
  check Alcotest.bool "stopped" false (Timeseries.running ts);
  check Alcotest.bool "took several samples" true (Timeseries.total_samples ts >= 3);
  match Timeseries.last_age_s ts with
  | None -> Alcotest.fail "no last sample after running"
  | Some age -> check Alcotest.bool "age is sane" true (age >= 0.0 && age < 60.0)

let test_csv_export () =
  let c = Counter.make "introspect.csv_reqs" in
  let clock, advance = fake_clock 0L in
  let ts = Timeseries.create ~capacity:8 ~interval_s:1.0 ~clock () in
  Timeseries.sample ts;
  Counter.add c 3;
  advance 1.0;
  Timeseries.sample ts;
  let csv = Timeseries.window_to_csv ts in
  match String.split_on_char '\n' (String.trim csv) with
  | header :: rows ->
      check Alcotest.bool "header leads with t_s,dt_s" true
        (String.length header >= 8 && String.sub header 0 8 = "t_s,dt_s");
      check Alcotest.bool "rate column present" true
        (List.exists
           (fun col -> col = "rate:introspect.csv_reqs")
           (String.split_on_char ',' header));
      check Alcotest.int "one row per point" 1 (List.length rows)
  | [] -> Alcotest.fail "empty csv"

let test_create_validation () =
  Alcotest.check_raises "capacity 0 refused"
    (Invalid_argument "Timeseries.create: capacity must be positive") (fun () ->
      ignore (Timeseries.create ~capacity:0 ()));
  Alcotest.check_raises "interval 0 refused"
    (Invalid_argument "Timeseries.create: interval must be positive") (fun () ->
      ignore (Timeseries.create ~interval_s:0.0 ()))

(* ------------------------------------------------------------------ *)
(* wide events *)

let test_event_accumulation () =
  let ev = Wide_event.create ~id:7 () in
  Wide_event.set_str ev "endpoint" "query";
  Wide_event.set_int ev "nodes" 3;
  Wide_event.set_bool ev "ok" true;
  Wide_event.set_float ev "ms" 1.5;
  (* overwrite keeps first-set position, last-set value *)
  Wide_event.set_int ev "nodes" 9;
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.bool))
    "field order is first-set, value is last-set"
    [ ("endpoint", true); ("nodes", true); ("ok", true); ("ms", true) ]
    (List.map (fun (k, _) -> (k, true)) (Wide_event.fields ev));
  (match List.assoc_opt "nodes" (Wide_event.fields ev) with
  | Some (Wide_event.Int 9) -> ()
  | _ -> Alcotest.fail "overwrite must keep the newest value");
  match Wide_event.to_json ev with
  | Json.Object (("event", Json.String "request") :: ("id", Json.Number 7.0) :: rest) ->
      check Alcotest.int "all fields serialized" 4 (List.length rest)
  | _ -> Alcotest.fail "canonical envelope is {event, id, ...fields}"

let test_ids_monotonic () =
  let a = Wide_event.next_id () in
  let b = Wide_event.next_id () in
  check Alcotest.bool "ids increase" true (b > a);
  let ev = Wide_event.create () in
  check Alcotest.bool "create allocates past the last raw id" true (Wide_event.id ev > b);
  check Alcotest.int "last_id tracks the newest allocation" (Wide_event.id ev)
    (Wide_event.last_id ())

let with_temp_sink ?sample ?slow_ms f =
  let path = Filename.temp_file "gps_audit" ".jsonl" in
  let oc = open_out path in
  let sink = Wide_event.sink ?sample ?slow_ms oc in
  Fun.protect
    ~finally:(fun () ->
      close_out_noerr oc;
      Sys.remove path)
    (fun () -> f sink (fun () -> In_channel.with_open_bin path In_channel.input_all))

let test_sampling_determinism () =
  with_temp_sink ~sample:3 ~slow_ms:100.0 @@ fun sink _read ->
  (* fast, ok events: kept iff id mod 3 = 0 *)
  for id = 1 to 12 do
    let ev = Wide_event.create ~id () in
    check Alcotest.bool
      (Printf.sprintf "id %d sampling" id)
      (id mod 3 = 0)
      (Wide_event.keep sink ev ~ok:true ~ms:1.0)
  done;
  (* errors and slow requests always survive sampling *)
  let ev = Wide_event.create ~id:1 () in
  check Alcotest.bool "errors always kept" true (Wide_event.keep sink ev ~ok:false ~ms:1.0);
  check Alcotest.bool "slow always kept" true (Wide_event.keep sink ev ~ok:true ~ms:100.0)

let test_sink_emit_and_load () =
  with_temp_sink ~sample:2 @@ fun sink read ->
  for id = 1 to 5 do
    let ev = Wide_event.create ~id () in
    Wide_event.set_str ev "endpoint" "query";
    Wide_event.emit sink ev ~ok:true ~ms:0.5
  done;
  Wide_event.flush_sink sink;
  let lines =
    List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' (read ()))
  in
  check Alcotest.int "ids 2 and 4 of 1..5 survive 1-in-2" 2 (List.length lines);
  let events, malformed =
    let path = Filename.temp_file "gps_audit_load" ".jsonl" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Out_channel.with_open_bin path (fun oc ->
            output_string oc (String.concat "\n" lines);
            output_string oc "\nnot json at all\n");
        In_channel.with_open_bin path Wide_event.load_jsonl)
  in
  check Alcotest.int "parsed events" 2 (List.length events);
  check Alcotest.int "malformed tolerated, tallied" 1 malformed

let test_sink_validation () =
  Alcotest.check_raises "sample 0 refused"
    (Invalid_argument "Wide_event.sink: sample must be >= 1") (fun () ->
      with_temp_sink ~sample:0 (fun _ _ -> ()))

(* ------------------------------------------------------------------ *)
(* audit summary *)

let event ~id ~endpoint ?(ok = true) ?cache ~ms () =
  let fields =
    [
      ("event", Json.String "request");
      ("id", Json.Number (float_of_int id));
      ("endpoint", Json.String endpoint);
      ("ok", Json.Bool ok);
      ("ms", Json.Number ms);
    ]
    @ match cache with None -> [] | Some c -> [ ("cache", Json.String c) ]
  in
  Json.Object fields

let test_summarize () =
  let events =
    [
      event ~id:1 ~endpoint:"query" ~cache:"miss" ~ms:4.0 ();
      event ~id:2 ~endpoint:"query" ~cache:"hit" ~ms:1.0 ();
      event ~id:3 ~endpoint:"query" ~cache:"hit" ~ms:2.0 ();
      event ~id:4 ~endpoint:"load" ~ms:10.0 ();
      event ~id:5 ~endpoint:"query" ~ok:false ~cache:"miss" ~ms:8.0 ();
    ]
  in
  let s = Wide_event.summarize ~top:2 ~malformed:1 events in
  check Alcotest.int "total" 5 s.Wide_event.s_total;
  check Alcotest.int "malformed carried through" 1 s.Wide_event.s_malformed;
  check Alcotest.int "errors" 1 s.Wide_event.s_errors;
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "cache tally" [ ("hit", 2); ("miss", 2) ] s.Wide_event.s_cache;
  (match s.Wide_event.s_endpoints with
  | [ load; query ] ->
      check Alcotest.string "endpoints sorted" "load" load.Wide_event.e_endpoint;
      check Alcotest.int "query count" 4 query.Wide_event.e_count;
      check Alcotest.int "query errors" 1 query.Wide_event.e_errors;
      check (Alcotest.float 1e-9) "query max ms" 8.0 query.Wide_event.e_ms_max
  | rows -> Alcotest.failf "expected 2 endpoint rows, got %d" (List.length rows));
  let slow_ids =
    List.filter_map
      (fun v ->
        match Json.member "id" v with Some (Json.Number n) -> Some (int_of_float n) | _ -> None)
      s.Wide_event.s_slowest
  in
  check (Alcotest.list Alcotest.int) "top-2 slowest, ms desc" [ 4; 5 ] slow_ids;
  (* table + json renderings agree on the headline number *)
  let rendered = Format.asprintf "%a" Wide_event.pp_summary s in
  check Alcotest.bool "table mentions the total" true
    (List.exists
       (fun line -> String.trim line <> "" && String.length line > 6)
       (String.split_on_char '\n' rendered));
  match Wide_event.summary_to_json s with
  | Json.Object fields -> (
      match List.assoc_opt "total" fields with
      | Some (Json.Number 5.0) -> ()
      | _ -> Alcotest.fail "json total mismatch")
  | _ -> Alcotest.fail "summary_to_json must be an object"

let test_summarize_determinism () =
  QCheck.Test.make ~name:"audit: summarize is permutation-invariant" ~count:50
    QCheck.(
      make
        Gen.(
          list_size (int_range 0 30)
            (triple (int_range 1 1000) (oneofl [ "query"; "load"; "metrics" ])
               (map (fun n -> float_of_int n /. 4.) (int_bound 200)))))
    (fun entries ->
      (* distinct ids keep the slowest-tiebreak deterministic; dyadic
         ms values (quarters) keep float sums order-independent *)
      let entries =
        List.mapi (fun i (_, ep, ms) -> (i + 1, ep, Float.abs ms)) entries
      in
      let events =
        List.map (fun (id, ep, ms) -> event ~id ~endpoint:ep ~ms ()) entries
      in
      let shuffled =
        List.map snd
          (List.sort compare (List.mapi (fun i e -> ((i * 7919) mod 104729, i), e) events))
      in
      Wide_event.summarize events = Wide_event.summarize shuffled)

(* ------------------------------------------------------------------ *)
(* the server's timeseries endpoint *)

let test_endpoint_unavailable () =
  let server = Srv.create () in
  match Srv.handle server (P.Timeseries { last = None; downsample = None }) with
  | P.Err e -> check Alcotest.string "typed error" "unavailable" e.P.code
  | _ -> Alcotest.fail "no sampler -> typed unavailable error"

let test_endpoint_window () =
  let server =
    Srv.create ~config:{ Srv.default_config with Srv.sample_every_s = Some 3600.0 } ()
  in
  Fun.protect ~finally:(fun () -> Srv.stop_sampler server) @@ fun () ->
  let ts = match Srv.sampler server with Some ts -> ts | None -> Alcotest.fail "no sampler" in
  (* drive the sampler by hand: deterministic, no sleeping. Requests go
     through the wire path — the dispatch counter lives there. *)
  let dispatch () =
    ignore (Srv.handle_value server (Json.Object [ ("op", Json.String "list-graphs") ]))
  in
  dispatch ();
  Timeseries.sample ts;
  dispatch ();
  dispatch ();
  Timeseries.sample ts;
  match Srv.handle server (P.Timeseries { last = Some 10; downsample = None }) with
  | P.Timeseries_dump v -> (
      match Json.member "points" v with
      | Some (Json.Array (_ :: _ as points)) ->
          let last = List.nth points (List.length points - 1) in
          let rates = match Json.member "rates" last with Some o -> o | None -> Json.Null in
          check Alcotest.bool "dispatch rate shows up" true
            (Json.member "server.dispatches" rates <> None)
      | _ -> Alcotest.fail "expected a non-empty points array")
  | P.Err e -> Alcotest.failf "unexpected error %s: %s" e.P.code e.P.message
  | _ -> Alcotest.fail "expected a timeseries dump"

let test_protocol_roundtrip () =
  List.iter
    (fun req ->
      match P.decode_request (P.encode_request req) with
      | Ok r -> check Alcotest.bool "decode(encode) is identity" true (r = req)
      | Error e -> Alcotest.failf "roundtrip failed: %s" e.P.message)
    [
      P.Timeseries { last = None; downsample = None };
      P.Timeseries { last = Some 60; downsample = Some 5 };
    ];
  match
    P.decode_request
      (Json.Object [ ("op", Json.String "timeseries"); ("last", Json.Number 0.0) ])
  with
  | Error e -> check Alcotest.string "last 0 refused on the wire" "bad-request" e.P.code
  | Ok _ -> Alcotest.fail "last=0 must be a wire error"

(* ------------------------------------------------------------------ *)
(* prometheus compat families *)

let test_prom_compat () =
  let h = Histogram.make "introspect.prom_ns" in
  Histogram.record h 1000;
  Histogram.record h 2000;
  let plain = Prom.render () in
  let compat = Prom.render ~compat:true () in
  let has s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    m > 0 && go 0
  in
  check Alcotest.bool "plain render has the histogram family" true
    (has plain "# TYPE gps_introspect_prom_ns histogram");
  check Alcotest.bool "plain render has no quantile gauges" false
    (has plain "gps_introspect_prom_ns_p50");
  check Alcotest.bool "compat adds _p50 gauge family" true
    (has compat "# TYPE gps_introspect_prom_ns_p50 gauge");
  check Alcotest.bool "compat adds _mean gauge family" true
    (has compat "# TYPE gps_introspect_prom_ns_mean gauge");
  (* lint: one TYPE line per family, even with compat on *)
  let type_lines =
    List.filter
      (fun l -> String.length l > 7 && String.sub l 0 7 = "# TYPE ")
      (String.split_on_char '\n' compat)
  in
  check Alcotest.int "no duplicate TYPE lines" (List.length type_lines)
    (List.length (List.sort_uniq compare type_lines))

(* Four threads send distinct cache misses through one server with an
   audit sink. Each audit line's [d_product_states]/[d_frontier_visits]
   must be its own evaluation's work (the query's report when run
   alone), and the lines must sum to the global counters' delta: no
   request absorbs a neighbor's work. The graph is sized so that a
   request spans several scheduler ticks' worth of kernel time in all,
   so the threads interleave inside evaluations. *)
let test_concurrent_eval_accounting () =
  let module Rpq = Gps_query.Rpq in
  let module Eval = Gps_query.Eval in
  let labels = [ "a"; "b"; "c"; "d" ] in
  let g0 = Gps_graph.Generators.uniform ~nodes:6000 ~edges:18000 ~labels ~seed:3 in
  let text = Gps_graph.Codec.to_string g0 in
  let g = Gps_graph.Codec.of_string text in
  let known l = Gps_graph.Digraph.label_of_name g l <> None in
  let normalized q = Rpq.to_string (Gps_query.Rewrite.specialize_known ~known q) in
  (* distinct cache keys, drawn round-robin over the PathForge shapes *)
  let by_key = Hashtbl.create 64 in
  let texts = ref [] in
  List.iter
    (fun p ->
      List.iter
        (fun (a, b, c) ->
          let t =
            Gps_regex.Regex.to_string (Gps_workload.Pattern.instantiate p ~a ~b ~c)
          in
          let key = normalized (Rpq.of_string_exn t) in
          if (not (Hashtbl.mem by_key key)) && List.length !texts < 48 then begin
            Hashtbl.add by_key key t;
            texts := t :: !texts
          end)
        [ ("a", "b", "c"); ("b", "c", "d"); ("d", "a", "b") ])
    Gps_workload.Pattern.all;
  let texts = Array.of_list (List.rev !texts) in
  let path = Filename.temp_file "gps_audit_eval" ".jsonl" in
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc; Sys.remove path) @@ fun () ->
  let sink = Wide_event.sink oc in
  let server = Srv.create ~config:{ Srv.default_config with Srv.audit = Some sink } () in
  (match Srv.handle server (P.Load { name = "u"; source = P.Text text }) with
  | P.Loaded _ -> ()
  | _ -> Alcotest.fail "load failed");
  let states = Counter.make "eval.product_states" and visits = Counter.make "eval.frontier_visits" in
  let states0 = Counter.value states and visits0 = Counter.value visits in
  let threads = 4 in
  let worker k =
    Array.iteri
      (fun i t ->
        if i mod threads = k then
          ignore
            (Srv.handle_line server
               (P.request_to_string
                  (P.Query { graph = "u"; query = t; explain = false; deadline_ms = None }))))
      texts
  in
  List.iter Thread.join (List.init threads (fun k -> Thread.create worker k));
  let d_states = Counter.value states - states0 and d_visits = Counter.value visits - visits0 in
  Wide_event.flush_sink sink;
  let events, malformed = In_channel.with_open_bin path Wide_event.load_jsonl in
  check Alcotest.int "no malformed lines" 0 malformed;
  check Alcotest.int "one line per request" (Array.length texts) (List.length events);
  let field name ev =
    match Json.member name ev with
    | Some (Json.Number f) -> int_of_float f
    | _ -> Alcotest.failf "audit line without %s" name
  in
  let source = Eval.Frozen (g, Gps_graph.Csr.freeze g) in
  let sum_states = ref 0 and sum_visits = ref 0 in
  List.iter
    (fun ev ->
      let key = match Json.member "query" ev with Some (Json.String q) -> q | _ -> "" in
      let original =
        match Hashtbl.find_opt by_key key with
        | Some t -> t
        | None -> Alcotest.failf "audit line for an unsent query %S" key
      in
      let alone =
        match Eval.run source (Rpq.of_string_exn original) with
        | Ok (_, r) -> r
        | Error _ -> Alcotest.fail "no deadline, no interruption"
      in
      check Alcotest.string "a miss" "miss"
        (match Json.member "cache" ev with Some (Json.String c) -> c | _ -> "");
      check Alcotest.int (key ^ ": product states") alone.Eval.product_states
        (field "d_product_states" ev);
      check Alcotest.int (key ^ ": frontier visits") alone.Eval.frontier_visits
        (field "d_frontier_visits" ev);
      sum_states := !sum_states + field "d_product_states" ev;
      sum_visits := !sum_visits + field "d_frontier_visits" ev)
    events;
  check Alcotest.int "lines sum to the product-states delta" d_states !sum_states;
  check Alcotest.int "lines sum to the frontier-visits delta" d_visits !sum_visits

(* ------------------------------------------------------------------ *)

let suite =
  [
    ( "introspection.timeseries",
      [
        Alcotest.test_case "ring wrap-around" `Quick test_ring_wraparound;
        Alcotest.test_case "rate math on a gated clock" `Quick test_rate_math;
        Alcotest.test_case "window selection" `Quick test_window_selection;
        Alcotest.test_case "interval histogram stats" `Quick test_hist_interval_stats;
        Alcotest.test_case "background sampler thread" `Quick test_sampler_thread;
        Alcotest.test_case "csv export" `Quick test_csv_export;
        Alcotest.test_case "creation validation" `Quick test_create_validation;
        Alcotest.test_case "concurrent record vs snapshot" `Quick
          test_concurrent_record_vs_snapshot;
      ] );
    ( "introspection.wide_events",
      [
        Alcotest.test_case "field accumulation" `Quick test_event_accumulation;
        Alcotest.test_case "monotonic ids" `Quick test_ids_monotonic;
        Alcotest.test_case "sampling determinism" `Quick test_sampling_determinism;
        Alcotest.test_case "sink emit and load" `Quick test_sink_emit_and_load;
        Alcotest.test_case "sink validation" `Quick test_sink_validation;
        Alcotest.test_case "audit summary" `Quick test_summarize;
      ] );
    ( "introspection.server",
      [
        Alcotest.test_case "endpoint without sampler" `Quick test_endpoint_unavailable;
        Alcotest.test_case "endpoint window" `Quick test_endpoint_window;
        Alcotest.test_case "protocol roundtrip" `Quick test_protocol_roundtrip;
        Alcotest.test_case "prometheus compat families" `Quick test_prom_compat;
        Alcotest.test_case "exact per-request eval work under concurrent misses" `Quick
          test_concurrent_eval_accounting;
      ] );
    ( "introspection.properties",
      List.map QCheck_alcotest.to_alcotest
        [ test_downsample_telescopes (); test_summarize_determinism () ] );
  ]
