(* Wide events: one canonical JSON line per request.

   A [t] is a per-request accumulator that layers fill in as the
   request flows through them — the dispatcher stamps the endpoint, the
   cache layer its hit/miss, the eval kernel its counter deltas, the
   framing layer bytes in/out — and that is serialized once, at the end
   of the request, as a single JSONL line. Request ids come from one
   process-wide monotonic source, and the same id is stamped into trace
   spans and slow-query log lines so the three streams join. *)

module Json = Gps_graph.Json

type value = Int of int | Float of float | Str of string | Bool of bool

type t = {
  id : int;
  created_ns : int64;
  mutable fields : (string * value) list;  (* reverse insertion order *)
}

let id_source = Atomic.make 0
let next_id () = 1 + Atomic.fetch_and_add id_source 1
let last_id () = Atomic.get id_source

let create ?id () =
  let id = match id with Some i -> i | None -> next_id () in
  { id; created_ns = Clock.now_ns (); fields = [] }

let id t = t.id
let created_ns t = t.created_ns
let set t k v = t.fields <- (k, v) :: t.fields
let set_int t k v = set t k (Int v)
let set_float t k v = set t k (Float v)
let set_str t k v = set t k (Str v)
let set_bool t k v = set t k (Bool v)

(* first-set position, last-set value — same dedup contract as trace
   span attrs, so re-stamping a field (e.g. endpoint refined from
   "query" to "overloaded") updates in place *)
let fields t =
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (k, v) -> if not (Hashtbl.mem seen k) then Hashtbl.add seen k v)
    t.fields;
  let emitted = Hashtbl.create 8 in
  List.filter_map
    (fun (k, _) ->
      if Hashtbl.mem emitted k then None
      else begin
        Hashtbl.add emitted k ();
        Some (k, Hashtbl.find seen k)
      end)
    (List.rev t.fields)

let value_to_json = function
  | Int i -> Json.Number (float_of_int i)
  | Float f -> Json.Number f
  | Str s -> Json.String s
  | Bool b -> Json.Bool b

let to_json t =
  Json.Object
    (("event", Json.String "request")
    :: ("id", Json.Number (float_of_int t.id))
    :: List.map (fun (k, v) -> (k, value_to_json v)) (fields t))

(* ------------------------------------------------------------------ *)
(* the JSONL sink *)

let c_emitted = Counter.make "audit.emitted"
let c_sampled_out = Counter.make "audit.sampled_out"

type sink = {
  oc : out_channel;
  sample : int;
  slow_ms : float option;
  lock : Mutex.t;
}

let sink ?(sample = 1) ?slow_ms oc =
  if sample < 1 then invalid_arg "Wide_event.sink: sample must be >= 1";
  { oc; sample; slow_ms; lock = Mutex.create () }

(* head-based: the keep decision depends only on the request id (so
   a given sample rate is deterministic and reconcilable), except that
   errors and slow requests are always kept. *)
let keep sink t ~ok ~ms =
  (not ok)
  || (match sink.slow_ms with Some s -> ms >= s | None -> false)
  || t.id mod sink.sample = 0

let emit sink t ~ok ~ms =
  if keep sink t ~ok ~ms then begin
    let line = Json.value_to_string (to_json t) in
    Mutex.lock sink.lock;
    (* line-buffered on purpose: an audit log must be tail-able and
       must survive a crash right after the request it describes *)
    (try
       output_string sink.oc line;
       output_char sink.oc '\n';
       flush sink.oc
     with Sys_error _ -> ());
    Mutex.unlock sink.lock;
    Counter.incr c_emitted
  end
  else Counter.incr c_sampled_out

let flush_sink sink =
  Mutex.lock sink.lock;
  (try flush sink.oc with Sys_error _ -> ());
  Mutex.unlock sink.lock

(* ------------------------------------------------------------------ *)
(* offline aggregation: the engine behind [gps audit summary] *)

type erow = {
  e_endpoint : string;
  e_count : int;
  e_errors : int;
  e_ms_sum : float;
  e_ms_max : float;
  e_p50_ms : float;
  e_p99_ms : float;
}

type summary = {
  s_total : int;
  s_malformed : int;
  s_errors : int;
  s_recovered : int;  (* events stamped recovered:true (post-restart window) *)
  s_endpoints : erow list;  (* sorted by endpoint name *)
  s_cache : (string * int) list;  (* cache-state counts, sorted *)
  s_slowest : Json.value list;  (* top-k events by ms desc, id asc *)
}

let load_jsonl ic =
  let events = ref [] and malformed = ref 0 in
  (try
     while true do
       let line = input_line ic in
       if String.trim line <> "" then
         match Json.value_of_string line with
         | Json.Object _ as v -> events := v :: !events
         | _ -> incr malformed
         | exception Json.Parse_error _ -> incr malformed
     done
   with End_of_file -> ());
  (List.rev !events, !malformed)

let jstr v k =
  match Json.member k v with Some (Json.String s) -> Some s | _ -> None

let jnum v k =
  match Json.member k v with Some (Json.Number n) -> Some n | _ -> None

let jbool v k =
  match Json.member k v with Some (Json.Bool b) -> Some b | _ -> None

let summarize ?(top = 5) ?(malformed = 0) events =
  let by_endpoint = Hashtbl.create 8 in
  let cache = Hashtbl.create 4 in
  let errors = ref 0 and recovered = ref 0 in
  let accumulate endpoint ~ok ~ms =
    let count, errs, sum, mx, hist =
      match Hashtbl.find_opt by_endpoint endpoint with
      | Some r -> r
      | None -> (0, 0, 0.0, 0.0, Histogram.create "audit.ms_x1000")
    in
    (* percentile substrate: latencies at microsecond resolution *)
    Histogram.record hist (int_of_float (Float.max 0.0 (ms *. 1000.)));
    Hashtbl.replace by_endpoint endpoint
      (count + 1, (errs + if ok then 0 else 1), sum +. ms, Float.max mx ms, hist)
  in
  List.iter
    (fun ev ->
      let endpoint = Option.value ~default:"?" (jstr ev "endpoint") in
      let ok = Option.value ~default:true (jbool ev "ok") in
      let ms = Option.value ~default:0.0 (jnum ev "ms") in
      if not ok then incr errors;
      if Option.value ~default:false (jbool ev "recovered") then incr recovered;
      accumulate endpoint ~ok ~ms;
      (match jstr ev "cache" with
      | Some state ->
          Hashtbl.replace cache state
            (1 + Option.value ~default:0 (Hashtbl.find_opt cache state))
      | None -> ()))
    events;
  let endpoints =
    Hashtbl.fold
      (fun endpoint (count, errs, sum, mx, hist) acc ->
        let s = Histogram.snapshot hist in
        {
          e_endpoint = endpoint;
          e_count = count;
          e_errors = errs;
          e_ms_sum = sum;
          e_ms_max = mx;
          e_p50_ms = Histogram.quantile s 0.5 /. 1000.;
          e_p99_ms = Histogram.quantile s 0.99 /. 1000.;
        }
        :: acc)
      by_endpoint []
    |> List.sort (fun a b -> compare a.e_endpoint b.e_endpoint)
  in
  let slowest =
    List.stable_sort
      (fun a b ->
        let ma = Option.value ~default:0.0 (jnum a "ms")
        and mb = Option.value ~default:0.0 (jnum b "ms") in
        match compare mb ma with
        | 0 ->
            compare
              (Option.value ~default:0.0 (jnum a "id"))
              (Option.value ~default:0.0 (jnum b "id"))
        | c -> c)
      events
    |> List.filteri (fun i _ -> i < top)
  in
  {
    s_total = List.length events;
    s_malformed = malformed;
    s_errors = !errors;
    s_recovered = !recovered;
    s_endpoints = endpoints;
    s_cache = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) cache []);
    s_slowest = slowest;
  }

let round2 f = Float.round (f *. 100.) /. 100.

let summary_to_json s =
  Json.Object
    [
      ("total", Json.Number (float_of_int s.s_total));
      ("malformed", Json.Number (float_of_int s.s_malformed));
      ("errors", Json.Number (float_of_int s.s_errors));
      ("recovered", Json.Number (float_of_int s.s_recovered));
      ( "endpoints",
        Json.Object
          (List.map
             (fun r ->
               ( r.e_endpoint,
                 Json.Object
                   [
                     ("count", Json.Number (float_of_int r.e_count));
                     ("errors", Json.Number (float_of_int r.e_errors));
                     ("mean_ms", Json.Number
                        (round2 (if r.e_count = 0 then 0.0
                                 else r.e_ms_sum /. float_of_int r.e_count)));
                     ("p50_ms", Json.Number (round2 r.e_p50_ms));
                     ("p99_ms", Json.Number (round2 r.e_p99_ms));
                     ("max_ms", Json.Number (round2 r.e_ms_max));
                   ] ))
             s.s_endpoints) );
      ( "cache",
        Json.Object (List.map (fun (k, v) -> (k, Json.Number (float_of_int v))) s.s_cache)
      );
      ("slowest", Json.Array s.s_slowest);
    ]

let pp_summary ppf s =
  Fmt.pf ppf "events: %d  (errors: %d, malformed lines: %d%s)@." s.s_total
    s.s_errors s.s_malformed
    (if s.s_recovered > 0 then
       Printf.sprintf ", post-recovery: %d" s.s_recovered
     else "");
  if s.s_endpoints <> [] then begin
    Fmt.pf ppf "@.%-14s %8s %7s %9s %9s %9s %9s@." "endpoint" "count"
      "errors" "mean ms" "p50 ms" "p99 ms" "max ms";
    List.iter
      (fun r ->
        Fmt.pf ppf "%-14s %8d %7d %9.2f %9.2f %9.2f %9.2f@." r.e_endpoint
          r.e_count r.e_errors
          (if r.e_count = 0 then 0.0 else r.e_ms_sum /. float_of_int r.e_count)
          r.e_p50_ms r.e_p99_ms r.e_ms_max)
      s.s_endpoints
  end;
  if s.s_cache <> [] then begin
    Fmt.pf ppf "@.cache:";
    List.iter (fun (k, v) -> Fmt.pf ppf " %s=%d" k v) s.s_cache;
    Fmt.pf ppf "@."
  end;
  if s.s_slowest <> [] then begin
    Fmt.pf ppf "@.slowest:@.";
    List.iter
      (fun ev ->
        Fmt.pf ppf "  #%d %8.2f ms  %s%s@."
          (int_of_float (Option.value ~default:0.0 (jnum ev "id")))
          (Option.value ~default:0.0 (jnum ev "ms"))
          (Option.value ~default:"?" (jstr ev "endpoint"))
          (match jstr ev "query" with
          | Some q -> "  " ^ q
          | None -> ""))
      s.s_slowest
  end
