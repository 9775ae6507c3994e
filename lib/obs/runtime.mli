(** GC and domain telemetry from the OCaml runtime's own event ring.

    A self-monitoring consumer of the stdlib [Runtime_events] tracing
    system (OCaml ≥ 5.1). {!start} enables the per-domain ring buffers
    and opens a cursor on this process; each {!poll} drains pending
    events into the ordinary observability registries, so GC behaviour
    flows through the same Prometheus exposition, {!Timeseries}
    sampler and [gps top] panels as every other metric:

    - [gps_gc_pause_ns{domain="d",gc="minor"|"major"}] — histogram of
      stop-the-world minor pauses / major slices, per domain;
    - [gps_gc_minor_collections], [gps_gc_major_slices] — counters;
    - [gps_gc_minor_promoted_words], [gps_gc_minor_allocated_words];
    - [gps_runtime_domains_live] — gauge, from domain lifecycle events;
    - [gps_runtime_events_consumed], [gps_runtime_events_lost].

    Overhead discipline: until {!start} is called nothing exists — no
    ring file, no cursor, no polling, zero cost on every hot path.
    Once started, producers (the GC itself) write to lock-free
    per-domain rings; the cost of consumption is borne entirely by
    whoever calls {!poll} (the server wires it into the timeseries
    sampler tick). If {!poll} is called too rarely the ring wraps and
    overwritten events are counted in [runtime.events_lost] rather
    than blocking anyone. *)

val start : unit -> bool
(** Enable runtime events and open a self-monitoring cursor.
    Idempotent. Points [OCAML_RUNTIME_EVENTS_DIR] at the temp
    directory first (unless already set) so the ring file does not
    land in the working directory. Returns [false] if the runtime
    refuses (no permissions for the ring file, unsupported runtime);
    the process then simply runs without GC telemetry. *)

val started : unit -> bool

val poll : ?max:int -> unit -> int
(** Drain pending events (at most [max], default unlimited) through
    the registry, returning the number consumed. 0 when not started.
    Thread-safe; concurrent polls serialize. *)

(** {1 Reading GC pauses back}

    Conveniences over {!Histogram.snapshot_all} for consumers that
    want pause distributions without scraping Prometheus text. *)

val gc_pause_snapshots : unit -> Histogram.snapshot list
(** Every [gc.pause_ns] series (one per (domain, kind) observed). *)

val gc_pause_merged : string -> Histogram.snapshot
(** [gc_pause_merged kind] for [kind] ["minor"] or ["major"]: all
    domains' series of that kind merged into one distribution (empty
    snapshot if none observed yet). *)

val gc_pause_ns : unit -> int * int
(** Total (minor, major) pause nanoseconds observed so far. Take a
    before/after difference to attribute GC time to a region. *)
