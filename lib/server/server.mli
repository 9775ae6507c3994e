(** The GPS service: dispatch core and wire frontends.

    The core is pure request/response: {!handle} maps a typed
    {!Protocol.request} to a typed {!Protocol.response} against the
    server's state (catalog, query cache, session manager, metrics) and
    never raises — malformed or ill-timed input becomes a structured
    [Err], internal bugs are caught and reported as [code = "internal"].
    The whole protocol is therefore unit-testable as plain OCaml.

    Two thin transports wrap the core in newline-delimited JSON:
    {!serve_channels} (stdio — cram tests, subprocess embedding) and a
    TCP listener with one thread per connection ({!start_tcp}). The
    concurrency model: catalog/cache/session-manager each guard their
    maps with a mutex; graph snapshots are immutable (CSR-frozen), so
    query evaluation runs without any lock; each session has its own
    lock so answers on one session serialize while different sessions
    progress in parallel. *)

type config = {
  cache_capacity : int;            (** {!Qcache} capacity; 0 disables *)
  sessions : Sessions.config;
  clock : unit -> float;
      (** clock (in seconds) for session idle-TTL, injected for
          deterministic tests; defaults to the shared {!Gps_obs.Clock}
          monotonic source so a stepped wall clock cannot mass-expire or
          immortalize sessions. Latency measurement also shares
          {!Gps_obs.Clock}. *)
  slow_ms : float option;
      (** queries at or over this many milliseconds are logged to stderr
          as one JSON line each — including the EXPLAIN report of the
          offending evaluation, whether or not the client asked for it —
          and counted under ["server.slow_queries"]; [None] disables the
          log *)
  deadline_ms : float option;
      (** default per-request deadline applied when the client sends
          none; a typed ["timeout"] error (with the partial EXPLAIN
          report as [data]) replaces the answer when it fires. [None]:
          unbounded unless the request asks. *)
  deadline_cap_ms : float option;
      (** server-side ceiling on client-requested [deadline_ms] (and on
          the default) — a client cannot buy more time than the operator
          allows *)
  max_inflight : int;
      (** admission-control budget: requests beyond this many
          concurrently dispatching ones are refused with a fast typed
          ["overloaded"] error (counted under ["server.sheds"]).
          [0] = unbounded. *)
  max_frame_bytes : int;
      (** per-request wire frame cap for both transports; an oversized
          frame draws ["frame-too-large"] and closes the connection
          (counted under ["server.frame_rejections"]) *)
  io_timeout_s : float option;
      (** per-connection socket read/write timeout (TCP transport): a
          peer that stops feeding or draining us cannot hold its thread
          forever *)
  audit : Gps_obs.Wide_event.sink option;
      (** wide-event audit sink: one canonical JSON line per wire
          request (see {!handle_line}), head-sampled by the sink's
          configuration with errors and slow requests always kept *)
  sample_every_s : float option;
      (** start a background {!Gps_obs.Timeseries} sampler at this
          interval ([Some s], [s > 0]); it feeds the ["timeseries"]
          endpoint and the [status] sampler-health block. [None] (the
          default): no sampler thread — the endpoint answers a typed
          ["unavailable"] error. *)
  prom_compat : bool;
      (** also emit the legacy quantile-gauge families
          ([_p50]/[_p90]/[_p99]/[_mean]) from the Prometheus endpoint,
          for one release of dashboard overlap *)
  profile : bool;
      (** runtime observability ([gps serve --profile]): start
          {!Gps_obs.Runtime} (GC pause histograms, domain lifecycle)
          with events drained on each sampler tick, so the [gc.*]
          families carry data in the metrics/Prometheus/timeseries
          surfaces. Off (the default) costs zero on every path. *)
  state_dir : string option;
      (** session durability ([gps serve --state-dir DIR]): journal
          every acknowledged session mutation to a per-session
          checksummed WAL under [DIR] (see {!Durability}), so a crashed
          server rebuilds its live dialogs on restart via {!recover}.
          [None] (the default): sessions are memory-only. *)
  fsync : Gps_graph.Wal.fsync_policy;
      (** when journaled state is forced to disk before a mutation is
          acknowledged: [Always] (default — acked steps survive power
          loss), [Every n] (bounded loss window), [Never] (page cache
          only). Applies to the session journals; a failed append or
          fsync surfaces as a typed ["durability"] error (counted under
          ["server.durability_errors"]) with the session state
          unchanged. *)
}

val default_config : config
(** Cache capacity 256, {!Sessions.default_config}, monotonic clock, no
    slow-query log, no deadline or cap, unbounded in-flight, 8 MiB
    frames, no socket timeout, no audit sink, no sampler, no Prometheus
    compat, no state dir, [fsync = Always]. *)

type t

val create : ?config:config -> unit -> t
(** When [config.sample_every_s] is set, the background sampler thread
    starts here; {!stop_sampler} (or process exit) ends it. With
    [config.state_dir], the directory is created and opened for
    journaling — but existing journals are only replayed by an explicit
    {!recover} call, so the caller can preload the catalog first.
    @raise Failure when the state dir cannot be created. *)

val sampler : t -> Gps_obs.Timeseries.t option
val stop_sampler : t -> unit

(** {1 Crash recovery} *)

type recovery_summary = {
  sessions_restored : int;
  sessions_failed : int;  (** journals that could not be replayed (quarantined) *)
  entries_discarded : int;  (** truncated journal tails *)
  bytes_discarded : int;
  duration_ms : float;
}

val recover : t -> recovery_summary option
(** Replay every session journal in the state dir and re-register the
    resulting sessions under their pre-crash ids; see {!Durability}.
    Call after preloading the catalog — a journal whose graph is absent
    counts as failed. Updates the ["recovery.*"] counters and the
    ["recovery.duration_ns"] histogram, surfaces the summary in the
    [status] endpoint's [durability] block, and stamps wide events
    [recovered:true] for the first post-restart sample window. [None]
    when the server has no state dir. *)

val last_recovery : t -> recovery_summary option
val state_dir : t -> string option

val handle : t -> ?ev:Gps_obs.Wide_event.t -> Protocol.request -> Protocol.response
(** Never raises. The request's effective deadline is its wire
    [deadline_ms] capped by [deadline_cap_ms] (falling back to the
    server default), combined with the drain token. [ev], when given,
    accumulates the request's wide-event fields (graph, cache verdict,
    eval counter deltas, result size) as dispatch proceeds. *)

val begin_drain : t -> unit
(** Fire the server-wide cancel token: every in-flight request's
    deadline observes it, so running evaluations unwind with a typed
    ["cancelled"] error. New requests still dispatch (they fail fast the
    same way if they evaluate anything) — stop the transports to refuse
    them. Idempotent. *)

val draining : t -> bool

val inflight : t -> int
(** Requests currently inside {!handle_value}. *)

val handle_value :
  t -> ?ev:Gps_obs.Wide_event.t -> Gps_graph.Json.value -> Gps_graph.Json.value
(** Decode, dispatch, encode; echoes any ["id"] field of the request and
    records metrics (endpoint ["invalid"] for undecodable requests).
    [ev]'s request id is stamped into the dispatch trace span as
    ["request_id"], and the event collects endpoint/ok/shed/error
    fields. *)

val handle_line : t -> ?recv_ns:int64 -> string -> string
(** One request line in, one response line out (no trailing newline).
    JSON parse failures yield the [code = "parse"] error envelope.

    This is the wire entry point: it allocates the request's
    {!Gps_obs.Wide_event} (so every wire request gets a monotonic id,
    visible as [last_request_id] in the metrics [server] block) and,
    when the server has an audit sink, emits the finished event with
    [bytes_in]/[bytes_out], the [wait_us]/[service_us] split measured
    from [recv_ns] (the transport's frame-arrival stamp; defaults to
    entry time), and total [ms]. *)

val serve_channels : t -> in_channel -> out_channel -> unit
(** Serve newline-delimited JSON until EOF. Whitespace-only lines are
    skipped; every response is flushed. Frames over
    [config.max_frame_bytes] draw one ["frame-too-large"] error and end
    the loop; write failures (peer gone, injected ["sock.write"] fault)
    end it quietly with a counted, logged disconnect. SIGPIPE is ignored
    process-wide on first use. *)

(** {1 TCP} *)

type tcp_server

val start_tcp : t -> ?host:string -> port:int -> unit -> tcp_server
(** Listen on [host] (default ["127.0.0.1"]) : [port] (0 picks an
    ephemeral port) and serve each accepted connection on its own
    thread. Returns immediately. *)

val tcp_port : tcp_server -> int
(** The bound port (useful with [port:0]). *)

val stop_tcp : tcp_server -> unit
(** Stop accepting and join the accept loop. Established connections
    finish on their own threads. *)

val request_stop : tcp_server -> unit
(** Stop accepting without joining the accept loop — safe to call from a
    signal handler; follow with {!wait_tcp} (or {!drain_tcp}). *)

val wait_tcp : tcp_server -> unit
(** Block until the accept loop exits — the [gps serve --port] main
    loop. *)

val live_connections : tcp_server -> int

val drain_tcp : t -> tcp_server -> ?grace_s:float -> unit -> int
(** Graceful shutdown: stop accepting, {!begin_drain} (cancelling
    in-flight evaluations), half-close every live connection's read side
    so pending responses still flush, wait up to [grace_s] (default 5s)
    for connection threads to finish, then force-close stragglers.
    Returns how many connections had to be force-closed. *)
