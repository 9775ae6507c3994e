module Json = Gps_graph.Json

module Names = struct
  type t = { json : string; count : int }

  let of_iter iter =
    let count, json = Json.string_array iter in
    { json; count }

  let of_list l = of_iter (fun f -> List.iter f l)
  let count t = t.count
  let to_json t = Json.Raw t.json

  let to_list t =
    let fail () = invalid_arg "Protocol.Names.to_list" in
    match Json.value_of_string t.json with
    | Json.Array items -> List.map (function Json.String s -> s | _ -> fail ()) items
    | _ -> fail ()
end

type load_source = Builtin of string | Path of string | Text of string

type request =
  | Load of { name : string; source : load_source }
  | Load_file of { name : string; path : string }
  | Add_edges of { graph : string; edges : (string * string * string) list }
  | List_graphs
  | Stats of { graph : string }
  | Query of { graph : string; query : string; explain : bool; deadline_ms : float option }
  | Learn of { graph : string; pos : string list; neg : string list; deadline_ms : float option }
  | Session_start of { graph : string; strategy : string; seed : int; budget : int option }
  | Session_show of { session : int }
  | Session_label of { session : int; positive : bool }
  | Session_zoom of { session : int }
  | Session_validate of { session : int; path : string list option }
  | Session_propose of { session : int; accept : bool }
  | Session_stop of { session : int }
  | Metrics of { timings : bool }
  | Metrics_prom
  | Status of { timings : bool }
  | Timeseries of { last : int option; downsample : int option }

type error = { code : string; message : string; data : Json.value option }

type session_view =
  | Ask_label of { node : string; radius : int; size : int; frontier : string list }
  | Ask_path of { node : string; words : string list list; suggested : string list }
  | Proposal of { query : string; selects : Names.t }
  | Finished of { query : string; reason : string; selects : Names.t }

type response =
  | Loaded of { name : string; nodes : int; edges : int; labels : int; version : int }
  | Edges_added of {
      name : string;
      version : int;
      added : int;
      new_nodes : int;
      overlay_edges : int;
      invalidated : int;
    }
  | Graphs of { graphs : (string * int) list }
  | Stats_of of { name : string; nodes : int; edges : int; labels : string list; version : int }
  | Answer of {
      query : string;
      nodes : Names.t;
      cache : [ `Hit | `Miss ];
      explain : Json.value option;
    }
  | Learned of { query : string; selects : Names.t }
  | Session of { session : int; view : session_view }
  | Stopped of { session : int; questions : int }
  | Metrics_dump of Json.value
  | Prom_dump of string
  | Status_dump of Json.value
  | Timeseries_dump of Json.value
  | Err of error

let op_name = function
  | Load _ -> "load"
  | Load_file _ -> "load_file"
  | Add_edges _ -> "add_edges"
  | List_graphs -> "list-graphs"
  | Stats _ -> "stats"
  | Query _ -> "query"
  | Learn _ -> "learn"
  | Session_start _ -> "session-start"
  | Session_show _ -> "session-show"
  | Session_label _ -> "session-label"
  | Session_zoom _ -> "session-zoom"
  | Session_validate _ -> "session-validate"
  | Session_propose _ -> "session-propose"
  | Session_stop _ -> "session-stop"
  | Metrics _ -> "metrics"
  | Metrics_prom -> "metrics_prom"
  | Status _ -> "status"
  | Timeseries _ -> "timeseries"

(* ------------------------------------------------------------------ *)
(* JSON building blocks *)

let int n = Json.Number (float_of_int n)
let str s = Json.String s
let strings l = Json.Array (List.map str l)
let word w = str (String.concat "." w)

(* ------------------------------------------------------------------ *)
(* encoding *)

let deadline_field = function
  | None -> []
  | Some ms -> [ ("deadline_ms", Json.Number ms) ]

let encode_request r =
  let op = str (op_name r) in
  let fields =
    match r with
    | Load { name; source } ->
        let src =
          match source with
          | Builtin b -> ("builtin", str b)
          | Path p -> ("path", str p)
          | Text t -> ("text", str t)
        in
        [ ("name", str name); src ]
    | Load_file { name; path } -> [ ("name", str name); ("file", str path) ]
    | Add_edges { graph; edges } ->
        [
          ("graph", str graph);
          ( "edges",
            Json.Array
              (List.map
                 (fun (s, l, d) -> Json.Array [ str s; str l; str d ])
                 edges) );
        ]
    | List_graphs -> []
    | Stats { graph } -> [ ("graph", str graph) ]
    | Query { graph; query; explain; deadline_ms } ->
        [ ("graph", str graph); ("query", str query) ]
        @ (if explain then [ ("explain", Json.Bool true) ] else [])
        @ deadline_field deadline_ms
    | Learn { graph; pos; neg; deadline_ms } ->
        [ ("graph", str graph); ("pos", strings pos); ("neg", strings neg) ]
        @ deadline_field deadline_ms
    | Session_start { graph; strategy; seed; budget } ->
        [ ("graph", str graph); ("strategy", str strategy); ("seed", int seed) ]
        @ (match budget with None -> [] | Some b -> [ ("budget", int b) ])
    | Session_show { session } -> [ ("session", int session) ]
    | Session_label { session; positive } ->
        [ ("session", int session); ("answer", str (if positive then "yes" else "no")) ]
    | Session_zoom { session } -> [ ("session", int session) ]
    | Session_validate { session; path } ->
        [ ("session", int session) ]
        @ (match path with None -> [] | Some p -> [ ("path", strings p) ])
    | Session_propose { session; accept } ->
        [ ("session", int session); ("accept", Json.Bool accept) ]
    | Session_stop { session } -> [ ("session", int session) ]
    | Metrics { timings } -> [ ("timings", Json.Bool timings) ]
    | Metrics_prom -> []
    | Status { timings } -> [ ("timings", Json.Bool timings) ]
    | Timeseries { last; downsample } ->
        (match last with None -> [] | Some n -> [ ("last", int n) ])
        @ (match downsample with None -> [] | Some k -> [ ("downsample", int k) ])
  in
  Json.Object (("op", op) :: fields)

let encode_view = function
  | Ask_label { node; radius; size; frontier } ->
      [
        ("ask", str "label");
        ("node", str node);
        ("radius", int radius);
        ("size", int size);
        ("frontier", strings frontier);
      ]
  | Ask_path { node; words; suggested } ->
      [
        ("ask", str "path");
        ("node", str node);
        ("words", Json.Array (List.map word words));
        ("suggested", word suggested);
      ]
  | Proposal { query; selects } ->
      [ ("ask", str "propose"); ("query", str query); ("selects", Names.to_json selects) ]
  | Finished { query; reason; selects } ->
      [
        ("ask", str "finished");
        ("query", str query);
        ("reason", str reason);
        ("selects", Names.to_json selects);
      ]

let encode_response ?id r =
  let ok_fields kind fields = (("ok", Json.Bool true) :: ("kind", str kind) :: fields) in
  let fields =
    match r with
    | Loaded { name; nodes; edges; labels; version } ->
        ok_fields "loaded"
          [
            ("name", str name);
            ("nodes", int nodes);
            ("edges", int edges);
            ("labels", int labels);
            ("version", int version);
          ]
    | Edges_added { name; version; added; new_nodes; overlay_edges; invalidated } ->
        ok_fields "edges_added"
          [
            ("name", str name);
            ("version", int version);
            ("added", int added);
            ("new_nodes", int new_nodes);
            ("overlay_edges", int overlay_edges);
            ("invalidated", int invalidated);
          ]
    | Graphs { graphs } ->
        ok_fields "graphs"
          [
            ( "graphs",
              Json.Array
                (List.map
                   (fun (name, version) ->
                     Json.Object [ ("name", str name); ("version", int version) ])
                   graphs) );
          ]
    | Stats_of { name; nodes; edges; labels; version } ->
        ok_fields "stats"
          [
            ("name", str name);
            ("nodes", int nodes);
            ("edges", int edges);
            ("labels", strings labels);
            ("version", int version);
          ]
    | Answer { query; nodes; cache; explain } ->
        ok_fields "answer"
          ([
             ("query", str query);
             ("nodes", Names.to_json nodes);
             ("cache", str (match cache with `Hit -> "hit" | `Miss -> "miss"));
           ]
          @ match explain with None -> [] | Some e -> [ ("explain", e) ])
    | Learned { query; selects } ->
        ok_fields "learned" [ ("query", str query); ("selects", Names.to_json selects) ]
    | Session { session; view } ->
        ok_fields "session" (("session", int session) :: encode_view view)
    | Stopped { session; questions } ->
        ok_fields "stopped" [ ("session", int session); ("questions", int questions) ]
    | Metrics_dump v -> ok_fields "metrics" [ ("metrics", v) ]
    | Prom_dump text -> ok_fields "metrics_prom" [ ("text", str text) ]
    | Status_dump v -> ok_fields "status" [ ("status", v) ]
    | Timeseries_dump v -> ok_fields "timeseries" [ ("series", v) ]
    | Err { code; message; data } ->
        let body =
          [ ("code", str code); ("message", str message) ]
          @ match data with None -> [] | Some d -> [ ("data", d) ]
        in
        [ ("ok", Json.Bool false); ("error", Json.Object body) ]
  in
  let fields = match id with None -> fields | Some id -> ("id", id) :: fields in
  Json.Object fields

(* ------------------------------------------------------------------ *)
(* decoding *)

let bad fmt =
  Printf.ksprintf (fun message -> Error { code = "bad-request"; message; data = None }) fmt

let ( let* ) = Result.bind

let field obj name =
  match Json.member name obj with
  | Some v -> Ok v
  | None -> bad "missing field %S" name

let opt_field obj name = Json.member name obj

let as_string what = function
  | Json.String s -> Ok s
  | _ -> bad "field %S must be a string" what

let as_bool what = function
  | Json.Bool b -> Ok b
  | _ -> bad "field %S must be a boolean" what

let as_int what = function
  | Json.Number f when Float.is_integer f && Float.abs f < 1e9 -> Ok (int_of_float f)
  | _ -> bad "field %S must be an integer" what

let as_string_list what = function
  | Json.Array items ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | Json.String s :: rest -> go (s :: acc) rest
        | _ -> bad "field %S must be an array of strings" what
      in
      go [] items
  | _ -> bad "field %S must be an array of strings" what

let str_field obj name =
  let* v = field obj name in
  as_string name v

let int_field obj name =
  let* v = field obj name in
  as_int name v

let list_field obj name =
  let* v = field obj name in
  as_string_list name v

(* A node list arrives as a parsed array off the wire, or as the splice
   leaf when an encoded response is decoded without printing it. *)
let names_field obj name =
  let* v = field obj name in
  let* v =
    match v with
    | Json.Raw text -> (
        try Ok (Json.value_of_string text)
        with Json.Parse_error _ -> bad "field %S must be an array of strings" name)
    | v -> Ok v
  in
  let* l = as_string_list name v in
  Ok (Names.of_list l)

let opt_int_field obj name =
  match opt_field obj name with
  | None | Some Json.Null -> Ok None
  | Some v ->
      let* n = as_int name v in
      Ok (Some n)

let opt_ms_field obj name =
  match opt_field obj name with
  | None | Some Json.Null -> Ok None
  | Some (Json.Number f) when f > 0.0 && Float.is_finite f -> Ok (Some f)
  | Some _ -> bad "field %S must be a positive number of milliseconds" name

let session_field obj = int_field obj "session"

let decode_word = function
  | Json.String "" -> Ok []
  | Json.String s -> Ok (String.split_on_char '.' s)
  | _ -> bad "words must be strings"

let decode_request v =
  match v with
  | Json.Object _ -> (
      let* op = str_field v "op" in
      match op with
      | "load" ->
          let* name = str_field v "name" in
          let* source =
            match (opt_field v "builtin", opt_field v "path", opt_field v "text") with
            | Some b, None, None ->
                let* b = as_string "builtin" b in
                Ok (Builtin b)
            | None, Some p, None ->
                let* p = as_string "path" p in
                Ok (Path p)
            | None, None, Some t ->
                let* t = as_string "text" t in
                Ok (Text t)
            | None, None, None -> bad "load needs one of \"builtin\", \"path\" or \"text\""
            | _ -> bad "load takes exactly one of \"builtin\", \"path\" or \"text\""
          in
          Ok (Load { name; source })
      | "load_file" ->
          let* name = str_field v "name" in
          let* path = str_field v "file" in
          Ok (Load_file { name; path })
      | "add_edges" ->
          let* graph = str_field v "graph" in
          let* edges =
            let* es = field v "edges" in
            match es with
            | Json.Array items ->
                let triple = function
                  | Json.Array [ Json.String s; Json.String l; Json.String d ] -> Ok (s, l, d)
                  | _ -> bad "each edge must be a [src, label, dst] array of strings"
                in
                let rec go acc = function
                  | [] -> Ok (List.rev acc)
                  | e :: rest ->
                      let* e = triple e in
                      go (e :: acc) rest
                in
                go [] items
            | _ -> bad "field \"edges\" must be an array"
          in
          Ok (Add_edges { graph; edges })
      | "list-graphs" -> Ok List_graphs
      | "stats" ->
          let* graph = str_field v "graph" in
          Ok (Stats { graph })
      | "query" ->
          let* graph = str_field v "graph" in
          let* query = str_field v "query" in
          let* explain =
            match opt_field v "explain" with
            | None -> Ok false
            | Some e -> as_bool "explain" e
          in
          let* deadline_ms = opt_ms_field v "deadline_ms" in
          Ok (Query { graph; query; explain; deadline_ms })
      | "learn" ->
          let* graph = str_field v "graph" in
          let* pos = list_field v "pos" in
          let* neg = list_field v "neg" in
          let* deadline_ms = opt_ms_field v "deadline_ms" in
          Ok (Learn { graph; pos; neg; deadline_ms })
      | "session-start" ->
          let* graph = str_field v "graph" in
          let* strategy =
            match opt_field v "strategy" with
            | None -> Ok "smart"
            | Some s -> as_string "strategy" s
          in
          let* seed =
            match opt_field v "seed" with None -> Ok 1 | Some s -> as_int "seed" s
          in
          let* budget = opt_int_field v "budget" in
          Ok (Session_start { graph; strategy; seed; budget })
      | "session-show" ->
          let* session = session_field v in
          Ok (Session_show { session })
      | "session-label" ->
          let* session = session_field v in
          let* answer = str_field v "answer" in
          let* positive =
            match String.lowercase_ascii answer with
            | "yes" | "y" | "pos" -> Ok true
            | "no" | "n" | "neg" -> Ok false
            | other -> bad "unknown answer %S (yes or no)" other
          in
          Ok (Session_label { session; positive })
      | "session-zoom" ->
          let* session = session_field v in
          Ok (Session_zoom { session })
      | "session-validate" ->
          let* session = session_field v in
          let* path =
            match opt_field v "path" with
            | None | Some Json.Null -> Ok None
            | Some p ->
                let* p = as_string_list "path" p in
                Ok (Some p)
          in
          Ok (Session_validate { session; path })
      | "session-propose" ->
          let* session = session_field v in
          let* accept =
            let* a = field v "accept" in
            as_bool "accept" a
          in
          Ok (Session_propose { session; accept })
      | "session-stop" ->
          let* session = session_field v in
          Ok (Session_stop { session })
      | "metrics" ->
          let* timings =
            match opt_field v "timings" with
            | None -> Ok true
            | Some t -> as_bool "timings" t
          in
          Ok (Metrics { timings })
      | "metrics_prom" -> Ok Metrics_prom
      | "status" ->
          let* timings =
            match opt_field v "timings" with
            | None -> Ok true
            | Some t -> as_bool "timings" t
          in
          Ok (Status { timings })
      | "timeseries" ->
          let pos what = function
            | Ok (Some n) when n < 1 -> bad "field %S must be >= 1" what
            | r -> r
          in
          let* last = pos "last" (opt_int_field v "last") in
          let* downsample = pos "downsample" (opt_int_field v "downsample") in
          Ok (Timeseries { last; downsample })
      | other -> bad "unknown op %S" other)
  | _ -> Error { code = "bad-request"; message = "request must be a JSON object"; data = None }

let decode_view v =
  let* ask = str_field v "ask" in
  match ask with
  | "label" ->
      let* node = str_field v "node" in
      let* radius = int_field v "radius" in
      let* size = int_field v "size" in
      let* frontier = list_field v "frontier" in
      Ok (Ask_label { node; radius; size; frontier })
  | "path" ->
      let* node = str_field v "node" in
      let* words =
        let* ws = field v "words" in
        match ws with
        | Json.Array items ->
            let rec go acc = function
              | [] -> Ok (List.rev acc)
              | w :: rest ->
                  let* w = decode_word w in
                  go (w :: acc) rest
            in
            go [] items
        | _ -> bad "field \"words\" must be an array"
      in
      let* suggested =
        let* s = field v "suggested" in
        decode_word s
      in
      Ok (Ask_path { node; words; suggested })
  | "propose" ->
      let* query = str_field v "query" in
      let* selects = names_field v "selects" in
      Ok (Proposal { query; selects })
  | "finished" ->
      let* query = str_field v "query" in
      let* reason = str_field v "reason" in
      let* selects = names_field v "selects" in
      Ok (Finished { query; reason; selects })
  | other -> bad "unknown view %S" other

let decode_response v =
  match v with
  | Json.Object _ -> (
      let* ok =
        let* b = field v "ok" in
        as_bool "ok" b
      in
      if not ok then
        let* e = field v "error" in
        let* code = str_field e "code" in
        let* message = str_field e "message" in
        let data = opt_field e "data" in
        Ok (Err { code; message; data })
      else
        let* kind = str_field v "kind" in
        match kind with
        | "loaded" ->
            let* name = str_field v "name" in
            let* nodes = int_field v "nodes" in
            let* edges = int_field v "edges" in
            let* labels = int_field v "labels" in
            let* version = int_field v "version" in
            Ok (Loaded { name; nodes; edges; labels; version })
        | "edges_added" ->
            let* name = str_field v "name" in
            let* version = int_field v "version" in
            let* added = int_field v "added" in
            let* new_nodes = int_field v "new_nodes" in
            let* overlay_edges = int_field v "overlay_edges" in
            let* invalidated = int_field v "invalidated" in
            Ok (Edges_added { name; version; added; new_nodes; overlay_edges; invalidated })
        | "graphs" ->
            let* gs = field v "graphs" in
            let* graphs =
              match gs with
              | Json.Array items ->
                  let rec go acc = function
                    | [] -> Ok (List.rev acc)
                    | item :: rest ->
                        let* name = str_field item "name" in
                        let* version = int_field item "version" in
                        go ((name, version) :: acc) rest
                  in
                  go [] items
              | _ -> bad "field \"graphs\" must be an array"
            in
            Ok (Graphs { graphs })
        | "stats" ->
            let* name = str_field v "name" in
            let* nodes = int_field v "nodes" in
            let* edges = int_field v "edges" in
            let* labels = list_field v "labels" in
            let* version = int_field v "version" in
            Ok (Stats_of { name; nodes; edges; labels; version })
        | "answer" ->
            let* query = str_field v "query" in
            let* nodes = names_field v "nodes" in
            let* cache =
              let* c = str_field v "cache" in
              match c with
              | "hit" -> Ok `Hit
              | "miss" -> Ok `Miss
              | other -> bad "unknown cache state %S" other
            in
            let explain = opt_field v "explain" in
            Ok (Answer { query; nodes; cache; explain })
        | "learned" ->
            let* query = str_field v "query" in
            let* selects = names_field v "selects" in
            Ok (Learned { query; selects })
        | "session" ->
            let* session = session_field v in
            let* view = decode_view v in
            Ok (Session { session; view })
        | "stopped" ->
            let* session = session_field v in
            let* questions = int_field v "questions" in
            Ok (Stopped { session; questions })
        | "metrics" ->
            let* m = field v "metrics" in
            Ok (Metrics_dump m)
        | "metrics_prom" ->
            let* text = str_field v "text" in
            Ok (Prom_dump text)
        | "status" ->
            let* s = field v "status" in
            Ok (Status_dump s)
        | "timeseries" ->
            let* s = field v "series" in
            Ok (Timeseries_dump s)
        | other -> bad "unknown response kind %S" other)
  | _ -> Error { code = "bad-request"; message = "response must be a JSON object"; data = None }

let request_to_string r = Json.value_to_string (encode_request r)
let response_to_string ?id r = Json.value_to_string (encode_response ?id r)

let halt_reason_to_string = function
  | Gps_interactive.Session.Satisfied -> "satisfied"
  | Gps_interactive.Session.No_informative_nodes -> "no-informative-nodes"
  | Gps_interactive.Session.Budget_exhausted -> "budget-exhausted"
  | Gps_interactive.Session.Inconsistent _ -> "inconsistent"
  | Gps_interactive.Session.Interrupted r -> Gps_obs.Deadline.reason_to_string r
