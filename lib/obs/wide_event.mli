(** Wide events: one canonical JSON log line per request.

    Stripe-style request audit: a per-request accumulator that every
    layer stamps fields onto — endpoint, graph×version, cache hit/miss,
    eval counter deltas, shed/timeout outcome, bytes in/out, queue-wait
    vs service split, latency — serialized once per request as a JSONL
    line to the server's [--audit FILE] sink. Request ids come from one
    process-wide monotonic source; the same id goes into trace spans
    and slow-query log lines, so the three streams join on [id].

    The sink applies head-based sampling: keep 1-in-N by id
    (deterministic, so a storm can reconcile the audit line count with
    its client-observed request count), with errors and slow requests
    always kept. *)

type t

type value = Int of int | Float of float | Str of string | Bool of bool

(** {1 Request ids} *)

val next_id : unit -> int
(** Allocate the next request id (1, 2, 3, ...). *)

val last_id : unit -> int
(** The most recently allocated id — 0 before any. Surfaced in the
    metrics response's [server] block as [last_request_id]. *)

(** {1 The accumulator} *)

val create : ?id:int -> unit -> t
(** Fresh event; allocates via {!next_id} unless [id] is given. Also
    records its creation time on the shared monotonic clock. *)

val id : t -> int
val created_ns : t -> int64

val set_int : t -> string -> int -> unit
val set_float : t -> string -> float -> unit
val set_str : t -> string -> string -> unit
val set_bool : t -> string -> bool -> unit

val fields : t -> (string * value) list
(** Canonical field list: first-set position, last-set value — setting
    a key again updates the value without reordering (same contract as
    trace span attrs). Not thread-safe: one request, one thread. *)

val to_json : t -> Gps_graph.Json.value
(** [{"event":"request","id":N, ...fields in insertion order}]. *)

(** {1 The JSONL sink} *)

type sink

val sink : ?sample:int -> ?slow_ms:float -> out_channel -> sink
(** [sample] keeps 1-in-N events by id (default 1 = everything);
    [slow_ms] marks the always-keep latency threshold. The caller owns
    the channel. Raises [Invalid_argument] if [sample < 1]. *)

val keep : sink -> t -> ok:bool -> ms:float -> bool
(** The (deterministic) sampling decision: errors ([not ok]) and slow
    requests ([ms >= slow_ms]) are always kept; otherwise kept iff
    [id mod sample = 0]. *)

val emit : sink -> t -> ok:bool -> ms:float -> unit
(** Serialize and append one line if {!keep} says so (under the sink's
    lock — safe from concurrent connection threads); bumps the
    [audit.emitted] / [audit.sampled_out] counters. *)

val flush_sink : sink -> unit

(** {1 Offline aggregation — the engine behind [gps audit summary]} *)

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
  s_recovered : int;
      (** events stamped [recovered:true] — served inside the first
          post-restart sample window after a crash recovery, so a
          latency anomaly there can be attributed to cold caches *)
  s_endpoints : erow list;  (** sorted by endpoint name *)
  s_cache : (string * int) list;  (** cache-state counts, sorted *)
  s_slowest : Gps_graph.Json.value list;
      (** top-k raw events by [ms] descending, ties by id ascending *)
}

val load_jsonl : in_channel -> Gps_graph.Json.value list * int
(** Parse a JSONL audit stream: the events (in file order) and the
    count of malformed/non-object lines (tolerated, tallied). *)

val summarize :
  ?top:int -> ?malformed:int -> Gps_graph.Json.value list -> summary
(** Deterministic aggregation; [top] (default 5) bounds [s_slowest]. *)

val summary_to_json : summary -> Gps_graph.Json.value
val pp_summary : Format.formatter -> summary -> unit
