(* Tests for Obs.Runtime: GC pause histograms off the stdlib
   Runtime_events ring.

   The tests are guarded on Runtime.start () succeeding — a host without
   a writable ring directory degrades the whole feature to a no-op, and
   the tests degrade with it. *)

module Runtime = Gps_obs.Runtime
module Counter = Gps_obs.Counter
module Histogram = Gps_obs.Histogram

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_forced_gc_pauses () =
  if not (Runtime.start ()) then check "ring unavailable: feature degrades to no-op" true true
  else begin
    ignore (Runtime.poll ());
    let minors0 = Counter.value (Counter.make "gc.minor_collections") in
    let pauses0 = (Runtime.gc_pause_merged "minor").Histogram.count in
    (* force a handful of real minor collections *)
    for _ = 1 to 5 do
      let junk = ref [] in
      for i = 1 to 20_000 do
        junk := (i, string_of_int i) :: !junk
      done;
      ignore (Sys.opaque_identity !junk);
      Gc.minor ()
    done;
    ignore (Runtime.poll ());
    let minors1 = Counter.value (Counter.make "gc.minor_collections") in
    let pauses1 = (Runtime.gc_pause_merged "minor").Histogram.count in
    check "minor collections counted" true (minors1 > minors0);
    check "pause samples recorded" true (pauses1 > pauses0);
    let snap = Runtime.gc_pause_merged "minor" in
    check "pause time is nonzero" true (snap.Histogram.sum > 0);
    let msum, _ = Runtime.gc_pause_ns () in
    check_int "readback agrees with merged snapshot" snap.Histogram.sum msum
  end

let test_runtime_poll_idempotent_when_quiet () =
  if not (Runtime.start ()) then check "ring unavailable" true true
  else begin
    (* drain, then poll twice without allocating: the second drain sees
       nothing new worth crashing over (events may still trickle from
       the test runner itself, so only the API contract is checked) *)
    ignore (Runtime.poll ());
    let n1 = Runtime.poll () in
    let n2 = Runtime.poll () in
    check "poll returns non-negative counts" true (n1 >= 0 && n2 >= 0);
    check "started stays true" true (Runtime.started ())
  end

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  [
    ( "runtime.gc",
      [
        t "forced GC records pauses and counts" test_forced_gc_pauses;
        t "poll is safe when quiet" test_runtime_poll_idempotent_when_quiet;
      ] );
  ]
