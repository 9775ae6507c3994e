(* The end-to-end runs: the real `gps serve` binary as its own process,
   driven over TCP by this process alone, tracing off. *)

module I = Inputs
module S = Streams

(* A run whose generator fell behind its schedule by more than this at
   the p99 measured the client, not the server: it is invalid. *)
let lag_bound_ms = 25.

(* what one run measured, end to end *)
type outcome = {
  p50_ms : float;
  p99_ms : float;
  sat_rps : float;
  peak_rss_mb : float;
  lag_p99_ms : float;  (** 0 for closed loops: they have no schedule *)
  extra : (string * Gps.Graph.Json.value) list;  (** workload-specific figures *)
}

let percentile p a =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let median l = percentile 0.5 (Array.of_list l)

(* The tail of a run: the median of the p99s of consecutive windows of
   at least [window] samples. One stall of the host lands in one window
   instead of setting the whole run's p99. *)
let window = 500

let windowed p a =
  let n = Array.length a in
  let k = max 1 (n / window) in
  let size = n / k in
  median (List.init k (fun w -> percentile p (Array.sub a (w * size) size)))

let windowed_p99 = windowed 0.99

let num x = Gps.Graph.Json.Number x

(* ------------------------------------------------------------------ *)
(* set-up: spawn → first correct answer, several times; the last
   server is kept for the run *)

let setup_reps = 11

let start_server ~cpus ~gps ~args ~fresh ~probe ~probe_ok =
  let samples = ref [] in
  let rec go k =
    fresh ();
    let t0 = Wire.now_ns () in
    let srv = Wire.spawn ~cpus ~gps args in
    match
      let c = Wire.connect srv.Wire.port in
      let answer = Wire.round_trip c probe in
      let dt = Int64.to_float (Int64.sub (Wire.now_ns ()) t0) /. 1e9 in
      if not (probe_ok answer) then failwith ("set-up probe answered wrongly: " ^ answer);
      (c, dt)
    with
    | exception e ->
        Wire.stop srv;
        raise e
    | c, dt ->
        samples := dt :: !samples;
        if k = 1 then (srv, c)
        else begin
          Wire.close c;
          Wire.stop srv;
          go (k - 1)
        end
  in
  let srv, c = go setup_reps in
  (srv, c, List.rev !samples)

(* at most one connection per core of the host *)
let connections ~cores = max 1 (min 2 cores)

(* ------------------------------------------------------------------ *)
(* open-loop storms: q-hot, q-cold, rw-overlay *)

type tally = { mutable attempted : int; mutable failed : int }

let account tally (run : Wire.run) =
  tally.attempted <- tally.attempted + run.Wire.n;
  tally.failed <- tally.failed + Wire.failures run;
  if Wire.failures run > 0 then Printf.eprintf "%d wrong or missing responses\n%!" (Wire.failures run)

let kind_code = function S.Read -> 0 | S.Write -> 1

(* saturation: requests kept outstanding per connection *)
let depth = 8

(* sat_rps is the median of these windows' completion rates, the first
   (ramp-up) window left out *)
let sat_window_s = 0.5

(* [rate]: the fixed offered rate of the latency phase, requests/s;
   [widen ()] runs between the latency and the saturation phase *)
let storm ~rate ~seconds ~srv ~conns ~(stream : S.t) ~tally ~widen =
  let cursor = ref 0 in
  let fire ~rate ~n =
    let run =
      Wire.open_loop conns ~rate ~n ~first:!cursor ~line:stream.S.line
        ~kind:(fun i -> kind_code (stream.S.kind i))
        ~check:stream.S.check ~drain_s:5.
    in
    cursor := !cursor + n;
    account tally run;
    if not (Wire.settled run) then failwith "responses still outstanding after the drain deadline";
    run
  in
  (* the distinct pass fills the cache where the workload is meant to hit it *)
  if stream.S.warm > 0 then ignore (fire ~rate:(Float.min rate 500.) ~n:stream.S.warm);
  ignore (fire ~rate ~n:(int_of_float (rate *. 0.5)));
  (* latency at the fixed offered rate, open loop *)
  let run = fire ~rate ~n:(int_of_float (rate *. seconds *. 0.55)) in
  let reads = Wire.latencies_ms run ~kind:0 and writes = Wire.latencies_ms run ~kind:1 in
  (* throughput at saturation, closed loop *)
  widen ();
  let wins, completed, bad, issued =
    Wire.saturate conns ~depth ~duration_s:(seconds *. 0.35) ~window_s:sat_window_s ~first:!cursor
      ~line:stream.S.line ~check:stream.S.check
  in
  cursor := !cursor + issued;
  tally.attempted <- tally.attempted + completed;
  tally.failed <- tally.failed + bad;
  let wl = Array.to_list wins in
  {
    p50_ms = percentile 0.5 reads;
    p99_ms = windowed_p99 reads;
    sat_rps = median (List.tl wl);
    peak_rss_mb = Wire.peak_rss_mb srv;
    lag_p99_ms = percentile 0.99 (Wire.lags_ms run);
    extra =
      [
        ("offered_rps", num rate);
        ("samples", num (float_of_int (Array.length reads)));
        ("p90_ms", num (windowed 0.90 reads));
        ("service_p50_ms", num (percentile 0.5 (Wire.service_ms run ~kind:0)));
        ("lag_p50_ms", num (percentile 0.5 (Wire.lags_ms run)));
        ("sat_windows_rps", Gps.Graph.Json.Array (List.map num wl));
      ]
      @
      if Array.length writes > 0 then
        [ ("write_p50_ms", num (percentile 0.5 writes)); ("write_p99_ms", num (windowed_p99 writes)) ]
      else [];
  }

(* ------------------------------------------------------------------ *)
(* session: a closed loop, one simulated user per connection *)

type user = {
  mutable script : I.script option;
  mutable id : int;
  mutable k : int;  (** the op of the script just answered *)
}

let sessions ~seconds ~conns ~(scripts : I.script array) ~order ~tally =
  let cursor = ref 0 in
  let questions = ref [] in
  let run_loop ~more ~count =
    let users = Array.of_list (List.map (fun _ -> { script = None; id = 0; k = 0 }) conns) in
    let rec step u ~resp =
      let st = users.(u) in
      match (st.script, resp) with
      | None, _ ->
          if not (more ()) then None
          else begin
            let s = scripts.(order.(!cursor mod Array.length order)) in
            incr cursor;
            st.script <- Some s;
            st.k <- 0;
            Some (S.script_line s ~id:0 0)
          end
      | Some s, Some l ->
          tally.attempted <- tally.attempted + 1;
          let ok = S.script_check s st.k l in
          if st.k = 0 then st.id <- Option.value ~default:(-1) (S.session_id l);
          if not ok then tally.failed <- tally.failed + 1;
          if st.k = S.script_ops s - 1 then begin
            if ok && count then questions := float_of_int s.I.questions :: !questions;
            st.script <- None;
            step u ~resp:None
          end
          else if not ok then begin
            (* abandon the dialog: stop it and move on *)
            st.k <- S.script_ops s - 1;
            Some (I.stop_line st.id)
          end
          else begin
            st.k <- st.k + 1;
            Some (S.script_line s ~id:st.id st.k)
          end
      | Some _, None -> assert false
    in
    Wire.closed_loop conns ~step
  in
  (* warm-up: every goal once, not measured *)
  let n = Array.length scripts in
  ignore (run_loop ~more:(fun () -> !cursor < n) ~count:false);
  let t0 = Wire.now_ns () in
  let until_ns = Int64.add t0 (Int64.of_float (seconds *. 1e9)) in
  (* whole cycles only, so every run measures the same multiset of
     dialog steps whatever the seed's order *)
  let lat = run_loop ~more:(fun () -> Wire.now_ns () < until_ns || !cursor mod n <> 0) ~count:true in
  let elapsed = Int64.to_float (Int64.sub (Wire.now_ns ()) t0) /. 1e9 in
  (lat, float_of_int (Array.length lat) /. elapsed, !questions)
