(** The GPS service wire protocol.

    Requests and responses are single JSON objects; on the wire each is
    one line (newline-delimited JSON). The codec is total in both
    directions: {!decode_request} turns any {!Gps_graph.Json.value} into
    either a typed request or a structured {!error} — it never raises —
    and [decode_request (encode_request r) = Ok r] for every request (the
    QCheck property suite pins this down, and the same round-trip holds
    for responses).

    A request object carries an ["op"] discriminator plus operands, e.g.
    {v
    {"op":"query","graph":"fig","query":"(tram+bus)*.cinema"}
    v}
    A response object carries ["ok"] plus either a ["kind"]-tagged payload
    or an ["error"] object with ["code"] and ["message"]. An optional
    ["id"] request field is echoed verbatim by the server (see
    {!Server.handle_value}); it is transport envelope, not part of the
    typed protocol.

    A response's node list ({!Names.t}) is held encoded: the server
    prints a selection's names into one JSON array when it computes
    the answer, caches those bytes, and {!encode_response} splices
    them into the tree as a {!Gps_graph.Json.Raw} leaf, so answering
    from the cache prints no name again. {!decode_response} accepts
    the leaf as well as a parsed array. *)

(** A node-name list held as its encoded JSON array and its length. *)
module Names : sig
  type t

  val of_iter : ((string -> unit) -> unit) -> t
  (** The names [iter] yields, in that order, encoded once at their
      final size. [iter] runs twice and must yield the same names both
      times (see {!Gps_graph.Json.string_array}). *)

  val of_list : string list -> t

  val to_list : t -> string list
  (** Decodes the bytes again; the server never does. *)

  val count : t -> int
end

type load_source =
  | Builtin of string  (** a built-in dataset: ["figure1"] or ["transpole"] *)
  | Path of string     (** edge-list or JSON file on the server's disk *)
  | Text of string     (** inline edge-list text *)

type request =
  | Load of { name : string; source : load_source }
  | Load_file of { name : string; path : string }
      (** map a packed binary CSR file ({!Gps_graph.Disk_csr}) in place —
          no parse, no heap graph; answered with [Loaded] like [Load] *)
  | Add_edges of { graph : string; edges : (string * string * string) list }
      (** append [(src, label, dst)] triples to a file-backed graph's
          delta overlay; unknown names intern as new nodes/labels. The
          catalog version does {e not} change — the cache invalidates
          label-aware instead (see {!Qcache.invalidate_delta}) *)
  | List_graphs
  | Stats of { graph : string }
  | Query of { graph : string; query : string; explain : bool; deadline_ms : float option }
      (** [explain] asks the server for the evaluation's EXPLAIN report
          (see {!Gps_query.Eval.report}) on the answer; [deadline_ms]
          bounds the evaluation (subject to the server's cap — see
          {!Server.config}) *)
  | Learn of { graph : string; pos : string list; neg : string list; deadline_ms : float option }
  | Session_start of {
      graph : string;
      strategy : string;
      seed : int;
      budget : int option;  (** per-session cap on user answers *)
    }
  | Session_show of { session : int }
  | Session_label of { session : int; positive : bool }
  | Session_zoom of { session : int }
  | Session_validate of { session : int; path : string list option }
      (** [None] validates the system-suggested path *)
  | Session_propose of { session : int; accept : bool }
  | Session_stop of { session : int }
  | Metrics of { timings : bool }
      (** [timings = false] omits latency data (deterministic output, for
          tests) *)
  | Metrics_prom
      (** Prometheus text exposition of every registry the process
          carries (counters, gauges, histograms incl. per-endpoint
          latency) — what a scraper reads *)
  | Status of { timings : bool }
      (** one-document service health: uptime, catalog versions, session
          count, cache totals, sampler health; [timings = false] omits
          uptime and sample ages so the document is fully
          deterministic *)
  | Timeseries of { last : int option; downsample : int option }
      (** the sampler's derived window (see {!Gps_obs.Timeseries}):
          [last] restricts to the most recent n samples, [downsample]
          keeps every k-th (both >= 1). Answered with a typed
          ["unavailable"] error when the server runs without a sampler
          ([--sample-every 0]). *)

type error = { code : string; message : string; data : Gps_graph.Json.value option }
(** Stable machine-readable [code] (["parse"], ["bad-request"],
    ["unknown-graph"], ["unknown-session"], ["bad-query"], ["bad-state"],
    ["bad-path"], ["bad-file"], ["inconsistent"], ["timeout"],
    ["cancelled"], ["overloaded"], ["frame-too-large"], ["unavailable"],
    ["io"], ["internal"]) plus a human message. [load_file] answers
    ["io"] for a missing or non-regular path and ["bad-file"] for bytes
    that fail packed-graph validation (magic, version, size, offsets —
    see {!Gps_graph.Disk_csr.open_error}). [data] optionally attaches
    structured context — a ["timeout"]/["cancelled"] error on a query
    carries the {e partial} EXPLAIN report of the work done before the
    deadline fired. *)

(** What an interactive session asks next — the server-side image of
    {!Gps_interactive.Session.request}. *)
type session_view =
  | Ask_label of {
      node : string;
      radius : int;
      size : int;          (** fragment node count *)
      frontier : string list;  (** the "…" nodes, sorted *)
    }
  | Ask_path of { node : string; words : string list list; suggested : string list }
  | Proposal of { query : string; selects : Names.t }
  | Finished of { query : string; reason : string; selects : Names.t }

type response =
  | Loaded of { name : string; nodes : int; edges : int; labels : int; version : int }
  | Edges_added of {
      name : string;
      version : int;  (** unchanged by the ingest — echoed for clients *)
      added : int;  (** edges actually appended (duplicates skipped) *)
      new_nodes : int;
      overlay_edges : int;  (** overlay total after this batch *)
      invalidated : int;  (** cache entries dropped by the delta *)
    }
  | Graphs of { graphs : (string * int) list }  (** (name, version), sorted by name *)
  | Stats_of of { name : string; nodes : int; edges : int; labels : string list; version : int }
  | Answer of {
      query : string;
      nodes : Names.t;  (** sorted by byte order ([String.compare]) *)
      cache : [ `Hit | `Miss ];
      explain : Gps_graph.Json.value option;
    }
      (** [query] is the normalized (graph-specialized) form used as the
          cache key; [explain] is present iff the request asked for it —
          {!Gps_query.Eval.report_to_json} on a miss, the one-field
          object [{"cache":"hit"}] on a hit (a hit runs no evaluation,
          so there is nothing to narrate) *)
  | Learned of { query : string; selects : Names.t }
  | Session of { session : int; view : session_view }
  | Stopped of { session : int; questions : int }
  | Metrics_dump of Gps_graph.Json.value
  | Prom_dump of string
      (** Prometheus exposition text (it travels as a JSON string field
          ["text"] — the transport stays one-line JSON) *)
  | Status_dump of Gps_graph.Json.value
  | Timeseries_dump of Gps_graph.Json.value
      (** {!Gps_obs.Timeseries.window_to_json} output: [interval_s],
          [total_samples], and derived [points] *)
  | Err of error

val op_name : request -> string
(** The ["op"] string, used as the metrics endpoint key. *)

val encode_request : request -> Gps_graph.Json.value
val decode_request : Gps_graph.Json.value -> (request, error) result

val encode_response : ?id:Gps_graph.Json.value -> response -> Gps_graph.Json.value
(** [id], when given, is echoed as an ["id"] field. *)

val decode_response : Gps_graph.Json.value -> (response, error) result

val request_to_string : request -> string
(** One-line JSON. *)

val response_to_string : ?id:Gps_graph.Json.value -> response -> string

val halt_reason_to_string : Gps_interactive.Session.halt_reason -> string
(** ["satisfied"], ["no-informative-nodes"], ["budget-exhausted"],
    ["inconsistent"], ["timed-out"], ["cancelled"]. *)
