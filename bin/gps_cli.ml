(* gps — command-line front end to the GPS system.

   Subcommands:
     generate   synthesize a graph database (city / bio / uniform / scale-free)
     stats      describe a graph
     query      evaluate a path query, with optional witness explanations
     learn      learn a query from labeled node names (static scenario)
     session    run the interactive scenario: simulated oracle or real stdin user
     dot        export a graph (or a node neighborhood) to GraphViz
     serve      the multi-session service: newline-delimited JSON over
                stdio or TCP
     top        live dashboard off a serving instance's timeseries
     audit      offline aggregation of --audit wide-event logs *)

open Cmdliner
module Digraph = Gps.Graph.Digraph
module Proto = Gps.Server.Protocol

(* ---------------------------------------------------------------- *)
(* shared argument parsers *)

let graph_arg =
  let doc = "Graph database file (edge list: 'src label dst' per line)." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"GRAPH" ~doc)

let load_graph path =
  try Ok (Gps.Graph.Codec.load path) with
  | Gps.Graph.Codec.Parse_error (line, msg) ->
      Error (Printf.sprintf "%s:%d: %s" path line msg)
  | Sys_error msg -> Error msg

let or_die = function
  | Ok v -> v
  | Error msg ->
      prerr_endline ("gps: " ^ msg);
      exit 1

let query_pos n =
  let doc = "Path query in the paper's notation, e.g. '(tram+bus)*.cinema'." in
  Arg.(required & pos n (some string) None & info [] ~docv:"QUERY" ~doc)

(* --trace FILE: record a JSONL span trace of the whole run. The option
   rides on every command that exercises the engine; 'gps trace summary'
   aggregates the file afterwards. *)
let trace_arg =
  let doc =
    "Record a JSONL span trace of this run to $(docv) (aggregate it with \
     'gps trace summary $(docv)')."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let with_trace trace f =
  match trace with
  | None -> f ()
  | Some path ->
      let oc =
        try open_out path
        with Sys_error msg -> or_die (Error msg)
      in
      Gps.Obs.Trace.enable (Gps.Obs.Trace.Jsonl oc);
      let finish () =
        Gps.Obs.Trace.disable ();
        close_out oc
      in
      (match f () with
      | v ->
          finish ();
          v
      | exception e ->
          finish ();
          raise e)

(* ---------------------------------------------------------------- *)
(* wire helpers: one-request round trips against a running server,
   shared by metrics / top / workload storm *)

let parse_hostport ?(flag = "--connect") addr =
  match String.rindex_opt addr ':' with
  | Some i -> (
      let h = String.sub addr 0 i in
      let p = String.sub addr (i + 1) (String.length addr - i - 1) in
      match int_of_string_opt p with
      | Some p -> ((if h = "" then "127.0.0.1" else h), p)
      | None -> or_die (Error (Printf.sprintf "bad port in %S" addr)))
  | None -> or_die (Error (Printf.sprintf "%s wants HOST:PORT, got %S" flag addr))

(* connect with a real timeout: nonblocking connect + select, then
   SO_RCVTIMEO/SO_SNDTIMEO so a stalled server cannot hang the client *)
let connect_timed host port timeout =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  let fail msg =
    (try Unix.close fd with _ -> ());
    Error msg
  in
  match
    Unix.set_nonblock fd;
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port))
  with
  | () | (exception Unix.Unix_error (Unix.EINPROGRESS, _, _)) -> (
      match Unix.select [] [ fd ] [] timeout with
      | _, [ _ ], _ -> (
          match Unix.getsockopt_error fd with
          | None ->
              Unix.clear_nonblock fd;
              (try
                 Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout;
                 Unix.setsockopt_float fd Unix.SO_SNDTIMEO timeout
               with Unix.Unix_error _ -> ());
              Ok fd
          | Some e -> fail (Unix.error_message e))
      | _ -> fail "connect timed out"
      | exception Unix.Unix_error (e, _, _) -> fail (Unix.error_message e))
  | exception Unix.Unix_error (e, _, _) -> fail (Unix.error_message e)

(* Send one typed request, read the one typed response. [retries] extra
   attempts with jittered exponential backoff absorb a restarting
   server; protocol-level errors come back as [Proto.Err] for the
   caller to interpret. Transport failure past the retries is fatal. *)
let round_trip ~host ~port ~timeout ?(retries = 0) req =
  let attempt () =
    match connect_timed host port timeout with
    | Error msg -> Error (Printf.sprintf "cannot connect to %s:%d: %s" host port msg)
    | Ok fd -> (
        let oc = Unix.out_channel_of_descr fd and ic = Unix.in_channel_of_descr fd in
        let finish r =
          (try close_out oc with _ -> ());
          r
        in
        match
          output_string oc (Proto.request_to_string req);
          output_char oc '\n';
          flush oc;
          input_line ic
        with
        | exception End_of_file -> finish (Error "connection closed")
        | exception Sys_error msg -> finish (Error msg)
        | exception Unix.Unix_error (e, _, _) -> finish (Error (Unix.error_message e))
        | line -> finish (Ok line))
  in
  let rec go attempt_no =
    match attempt () with
    | Ok line -> line
    | Error msg when attempt_no < retries ->
        let backoff = 0.2 *. Float.of_int (1 lsl attempt_no) in
        let jittered = backoff *. (0.5 +. Random.float 0.5) in
        Printf.eprintf "gps: %s; retrying in %.2fs (%d left)\n%!" msg jittered
          (retries - attempt_no);
        Unix.sleepf jittered;
        go (attempt_no + 1)
    | Error msg -> or_die (Error msg)
  in
  Random.self_init ();
  let line = go 0 in
  match Gps.Graph.Json.value_of_string line with
  | exception Gps.Graph.Json.Parse_error (pos, msg) ->
      or_die (Error (Printf.sprintf "bad response at %d: %s" pos msg))
  | v -> (
      match Proto.decode_response v with
      | Ok r -> r
      | Error e -> Proto.Err e)

(* ---------------------------------------------------------------- *)
(* generate *)

let generate_cmd =
  let kind =
    let doc = "Graph family: city, bio, uniform or scalefree." in
    Arg.(value & opt string "city" & info [ "kind"; "k" ] ~docv:"KIND" ~doc)
  in
  let nodes =
    let doc = "Approximate node count." in
    Arg.(value & opt int 100 & info [ "nodes"; "n" ] ~docv:"N" ~doc)
  in
  let seed =
    let doc = "PRNG seed (generation is deterministic)." in
    Arg.(value & opt int 42 & info [ "seed"; "s" ] ~docv:"SEED" ~doc)
  in
  let output =
    let doc = "Output file (default: stdout)." in
    Arg.(value & opt (some string) None & info [ "output"; "o" ] ~docv:"FILE" ~doc)
  in
  let run kind nodes seed output =
    let g =
      match kind with
      | "city" ->
          (* districts + facilities sum to roughly [nodes] *)
          let districts = max 2 (nodes / 2) in
          Gps.Graph.Generators.city (Gps.Graph.Generators.default_city ~districts) ~seed
      | "bio" -> Gps.Graph.Generators.bio ~nodes:(max 10 nodes) ~seed
      | "uniform" ->
          Gps.Graph.Generators.uniform ~nodes ~edges:(nodes * 3)
            ~labels:[ "a"; "b"; "c"; "d" ] ~seed
      | "scalefree" ->
          Gps.Graph.Generators.preferential ~nodes ~attach:2 ~labels:[ "a"; "b"; "c" ] ~seed
      | other -> or_die (Error (Printf.sprintf "unknown kind %S" other))
    in
    let text = Gps.Graph.Codec.to_string g in
    match output with
    | Some path ->
        let oc = open_out path in
        output_string oc text;
        close_out oc;
        Printf.printf "wrote %d nodes, %d edges to %s\n" (Digraph.n_nodes g) (Digraph.n_edges g)
          path
    | None -> print_string text
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Synthesize a graph database")
    Term.(const run $ kind $ nodes $ seed $ output)

(* ---------------------------------------------------------------- *)
(* stats *)

let stats_cmd =
  let run path =
    let g = or_die (load_graph path) in
    print_endline (Gps.Viz.Ascii.graph_summary g)
  in
  Cmd.v (Cmd.info "stats" ~doc:"Describe a graph database") Term.(const run $ graph_arg)

(* ---------------------------------------------------------------- *)
(* query *)

let query_cmd =
  let witness =
    let doc = "Also print a shortest witness walk per selected node." in
    Arg.(value & flag & info [ "witness"; "w" ] ~doc)
  in
  let explain =
    let doc =
      "Also print the evaluation's EXPLAIN report: automaton and product sizes, per-level \
       frontier sizes and the stop reason."
    in
    Arg.(value & flag & info [ "explain" ] ~doc)
  in
  let deadline_ms =
    let doc =
      "Abort the evaluation after $(docv) milliseconds (cooperative: the kernel polls a \
       monotonic deadline between expansions). On timeout the partial EXPLAIN report is \
       printed and the exit status is 3."
    in
    Arg.(value & opt (some float) None & info [ "deadline-ms" ] ~docv:"MS" ~doc)
  in
  let run path qs witness explain deadline_ms trace =
    let g = or_die (load_graph path) in
    let q = or_die (Gps.parse_query qs) in
    with_trace trace @@ fun () ->
    let sel, report =
      if deadline_ms = None && not explain then (Gps.Query.Eval.select g q, None)
      else begin
        let deadline, ms =
          match deadline_ms with
          | Some ms ->
              if ms <= 0. then or_die (Error "--deadline-ms must be positive");
              (Gps.Obs.Deadline.after_ms ms, ms)
          | None -> (Gps.Obs.Deadline.none, 0.)
        in
        match Gps.Query.Eval.(run ~deadline (Frozen (g, Gps.Graph.Csr.freeze g)) q) with
        | Ok (sel, r) -> (sel, if explain then Some r else None)
        | Error { Gps.Query.Eval.reason; partial } ->
            Printf.eprintf "gps: query %s after %g ms (visited %d product states)\n"
              (Gps.Obs.Deadline.reason_to_string reason)
              ms partial.Gps.Query.Eval.frontier_visits;
            Format.eprintf "partial explain:@.%a@?" Gps.Query.Eval.pp_report partial;
            exit 3
      end
    in
    let selected = List.filter (fun v -> sel.(v)) (List.init (Array.length sel) Fun.id) in
    Printf.printf "%s selects %d node(s)\n" (Gps.Query.Rpq.to_string q) (List.length selected);
    List.iter
      (fun v ->
        if witness then
          match Gps.Query.Witness.find g q v with
          | Some w -> Printf.printf "  %-12s %s\n" (Digraph.node_name g v)
                        (Gps.Viz.Ascii.witness g w)
          | None -> ()
        else Printf.printf "  %s\n" (Digraph.node_name g v))
      selected;
    match report with
    | None -> ()
    | Some r -> Format.printf "@.explain:@.%a" Gps.Query.Eval.pp_report r
  in
  Cmd.v
    (Cmd.info "query" ~doc:"Evaluate a path query")
    Term.(
      const run $ graph_arg $ query_pos 1 $ witness $ explain $ deadline_ms $ trace_arg)

(* ---------------------------------------------------------------- *)
(* learn *)

let names_opt name doc =
  Arg.(value & opt (list string) [] & info [ name ] ~docv:"NODES" ~doc)

let learn_cmd =
  let pos = names_opt "pos" "Comma-separated positive node names." in
  let neg = names_opt "neg" "Comma-separated negative node names." in
  let run path pos neg trace =
    let g = or_die (load_graph path) in
    with_trace trace @@ fun () ->
    match Gps.learn g ~pos ~neg with
    | Ok q ->
        Printf.printf "learned: %s\n" (Gps.Query.Rpq.to_string q);
        Printf.printf "selects: %s\n" (String.concat ", " (Gps.evaluate g q))
    | Error msg ->
        Printf.printf "no consistent query: %s\n" msg;
        exit 2
  in
  Cmd.v
    (Cmd.info "learn" ~doc:"Learn a query from labeled nodes (static scenario)")
    Term.(const run $ graph_arg $ pos $ neg $ trace_arg)

(* ---------------------------------------------------------------- *)
(* session *)

let strategy_arg =
  let doc = "Node-proposal strategy: smart, random or degree." in
  Arg.(value & opt string "smart" & info [ "strategy" ] ~docv:"NAME" ~doc)

(* A real user on stdin, driven through History so [u] undoes the last
   answer. Returns the finished session. *)
let stdin_session ~config ~strategy g =
  let module H = Gps.Interactive.History in
  let module S = Gps.Interactive.Session in
  let module V = Gps.Interactive.View in
  let read_line_opt () = try Some (read_line ()) with End_of_file -> None in
  let try_undo h =
    match H.undo h with
    | Some h' ->
        print_endline "(undone)";
        h'
    | None ->
        print_endline "(nothing to undo)";
        h
  in
  let rec loop h =
    match H.request h with
    | S.Finished _ -> H.current h
    | S.Ask_label view ->
        print_string (Gps.Viz.Ascii.neighborhood g view);
        print_string "label this node? [y]es / [n]o / [z]oom / [u]ndo: ";
        (match Option.map String.lowercase_ascii (read_line_opt ()) with
        | Some ("y" | "yes") -> loop (H.answer_label h `Pos)
        | Some ("n" | "no") -> loop (H.answer_label h `Neg)
        | Some ("z" | "zoom") -> loop (H.answer_label h `Zoom)
        | Some ("u" | "undo") -> loop (try_undo h)
        | Some _ -> loop h
        | None -> loop (H.answer_label h `Neg))
    | S.Ask_path tree ->
        print_string (Gps.Viz.Ascii.path_tree tree);
        List.iteri
          (fun i w -> Printf.printf "  [%d] %s\n" i (String.concat "." w))
          tree.V.words;
        print_string "path of interest? [number, enter = suggested, u = undo]: ";
        (match read_line_opt () with
        | None | Some "" -> loop (H.answer_path h tree.V.suggested)
        | Some "u" -> loop (try_undo h)
        | Some s -> (
            match int_of_string_opt s with
            | Some i when i >= 0 && i < List.length tree.V.words ->
                loop (H.answer_path h (List.nth tree.V.words i))
            | _ -> loop h))
    | S.Propose q ->
        Printf.printf "current query: %s -- satisfied? [y/N/u]: " (Gps.Query.Rpq.to_string q);
        (match Option.map String.lowercase_ascii (read_line_opt ()) with
        | Some ("y" | "yes") -> loop (H.accept h)
        | Some ("u" | "undo") -> loop (try_undo h)
        | _ -> loop (H.refine h))
  in
  loop (H.start ~config ~strategy g)

(* A scripted user for --goal / --replay runs (no undo). *)
let stdin_user () =
  let read_line_opt () = try Some (read_line ()) with End_of_file -> None in
  let rec ask_label g view =
    print_string (Gps.Viz.Ascii.neighborhood g view);
    print_string "label this node? [y]es / [n]o / [z]oom: ";
    match Option.map String.lowercase_ascii (read_line_opt ()) with
    | Some ("y" | "yes") -> `Pos
    | Some ("n" | "no") -> `Neg
    | Some ("z" | "zoom") -> `Zoom
    | Some _ -> ask_label g view
    | None -> `Neg
  in
  let rec ask_path _g (tree : Gps.Interactive.View.path_tree) =
    print_string (Gps.Viz.Ascii.path_tree tree);
    List.iteri
      (fun i w -> Printf.printf "  [%d] %s\n" i (String.concat "." w))
      tree.Gps.Interactive.View.words;
    Printf.printf "path of interest? [number, enter = suggested]: ";
    match read_line_opt () with
    | None | Some "" -> tree.Gps.Interactive.View.suggested
    | Some s -> (
        match int_of_string_opt s with
        | Some i when i >= 0 && i < List.length tree.Gps.Interactive.View.words ->
            List.nth tree.Gps.Interactive.View.words i
        | _ -> ask_path _g tree)
  in
  let satisfied _g q =
    Printf.printf "current query: %s -- satisfied? [y/N]: " (Gps.Query.Rpq.to_string q);
    match Option.map String.lowercase_ascii (read_line_opt ()) with
    | Some ("y" | "yes") -> true
    | _ -> false
  in
  { Gps.Interactive.Oracle.name = "stdin"; label = ask_label; validate = ask_path; satisfied }

let session_cmd =
  let goal =
    let doc =
      "Goal query for a simulated oracle user. Omit to drive the session yourself on stdin."
    in
    Arg.(value & opt (some string) None & info [ "goal" ] ~docv:"QUERY" ~doc)
  in
  let seed =
    let doc = "Seed for the random strategy." in
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let budget =
    let doc = "Maximum number of user answers." in
    Arg.(value & opt (some int) None & info [ "budget" ] ~docv:"N" ~doc)
  in
  let record =
    let doc = "Record the session's answers to this journal file (JSON)." in
    Arg.(value & opt (some string) None & info [ "record" ] ~docv:"FILE" ~doc)
  in
  let replay =
    let doc = "Replay answers from this journal file instead of asking anyone." in
    Arg.(value & opt (some string) None & info [ "replay" ] ~docv:"FILE" ~doc)
  in
  let explain =
    let doc = "After an oracle session, explain how every node ended up classified." in
    Arg.(value & flag & info [ "explain" ] ~doc)
  in
  let run path strategy goal seed budget record replay explain trace =
    let g = or_die (load_graph path) in
    let strategy = or_die (Gps.Interactive.Strategy.by_name ~seed strategy) in
    with_trace trace @@ fun () ->
    let config =
      { Gps.Interactive.Session.default_config with
        Gps.Interactive.Session.max_questions = budget }
    in
    let summarize outcome questions pruned =
      Printf.printf "\nsession finished (%s)\n"
        (match outcome.Gps.Interactive.Session.reason with
        | Gps.Interactive.Session.Satisfied -> "user satisfied"
        | Gps.Interactive.Session.No_informative_nodes -> "no informative nodes left"
        | Gps.Interactive.Session.Budget_exhausted -> "budget exhausted"
        | Gps.Interactive.Session.Inconsistent _ -> "labels inconsistent"
        | Gps.Interactive.Session.Interrupted r ->
            "interrupted: " ^ Gps.Obs.Deadline.reason_to_string r);
      Printf.printf "learned query: %s\n"
        (Gps.Query.Rpq.to_string outcome.Gps.Interactive.Session.query);
      Printf.printf "selects: %s\n"
        (String.concat ", " (Gps.evaluate g outcome.Gps.Interactive.Session.query));
      Printf.printf "answers: %d  pruned: %d\n" questions pruned
    in
    match (replay, goal, record) with
    | None, None, None ->
        (* a real user on stdin, with undo support *)
        let final = stdin_session ~config ~strategy g in
        (match Gps.Interactive.Session.request final with
        | Gps.Interactive.Session.Finished outcome ->
            summarize outcome
              (Gps.Interactive.Session.questions final)
              (List.length (Gps.Interactive.Session.implied_neg final))
        | _ -> assert false)
    | _ ->
        let base_user =
          match (replay, goal) with
          | Some file, _ ->
              Gps.Interactive.Journal.replayer (or_die (Gps.Interactive.Journal.load file))
          | None, Some qs -> Gps.Interactive.Oracle.perfect ~goal:(or_die (Gps.parse_query qs))
          | None, None -> stdin_user ()
        in
        let user, journal_of =
          match record with
          | Some _ ->
              let u, j = Gps.Interactive.Journal.recording base_user in
              (u, Some j)
          | None -> (base_user, None)
        in
        let trace = Gps.Interactive.Simulate.run ~config g ~strategy ~user in
        (match (record, journal_of) with
        | Some file, Some j ->
            Gps.Interactive.Journal.save file (j ());
            Printf.printf "journal written to %s\n" file
        | _ -> ());
        summarize trace.Gps.Interactive.Simulate.outcome
          trace.Gps.Interactive.Simulate.questions trace.Gps.Interactive.Simulate.pruned;
        if explain then begin
          (* re-drive deterministically to recover the final state, then
             narrate every classified node *)
          match (replay, goal) with
          | None, Some qs ->
              let user = Gps.Interactive.Oracle.perfect ~goal:(or_die (Gps.parse_query qs)) in
              let final = Gps.Interactive.Simulate.final_state ~config g ~strategy ~user in
              print_endline "\nwhy each node ended up where it did:";
              Digraph.iter_nodes
                (fun v ->
                  match Gps.Interactive.Explain.explain final v with
                  | Gps.Interactive.Explain.Unconstrained -> ()
                  | reason ->
                      Printf.printf "  %-14s %s\n" (Digraph.node_name g v)
                        (Format.asprintf "%a" (Gps.Interactive.Explain.render g) reason))
                g
          | _ -> prerr_endline "gps: --explain requires --goal (and no --replay)"
        end
  in
  Cmd.v
    (Cmd.info "session" ~doc:"Run the interactive specification scenario")
    Term.(
      const run $ graph_arg $ strategy_arg $ goal $ seed $ budget $ record $ replay $ explain
      $ trace_arg)

(* ---------------------------------------------------------------- *)
(* dot *)

let dot_cmd =
  let center =
    let doc = "Restrict to the neighborhood of this node." in
    Arg.(value & opt (some string) None & info [ "around" ] ~docv:"NODE" ~doc)
  in
  let radius =
    let doc = "Neighborhood radius (with --around)." in
    Arg.(value & opt int 2 & info [ "radius"; "r" ] ~docv:"R" ~doc)
  in
  let run path center radius =
    let g = or_die (load_graph path) in
    match center with
    | None -> print_string (Gps.Graph.Dot.of_graph g)
    | Some name ->
        let v =
          match Digraph.node_of_name g name with
          | Some v -> v
          | None -> or_die (Error (Printf.sprintf "unknown node %S" name))
        in
        let view = Gps.Interactive.View.make_neighborhood g v ~radius in
        print_string (Gps.Viz.Dotviz.neighborhood g view)
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Export a graph or neighborhood to GraphViz")
    Term.(const run $ graph_arg $ center $ radius)

(* ---------------------------------------------------------------- *)
(* convert *)

let convert_cmd =
  let format =
    let doc = "Output format: 'json' or 'edges'." in
    Arg.(value & opt string "json" & info [ "to" ] ~docv:"FORMAT" ~doc)
  in
  let run path format =
    (* input format is sniffed: JSON starts with '{' *)
    let ic = open_in path in
    let len = in_channel_length ic in
    let text = really_input_string ic len in
    close_in ic;
    let is_json =
      let rec first i =
        if i >= String.length text then '\000'
        else
          match text.[i] with ' ' | '\t' | '\n' | '\r' -> first (i + 1) | c -> c
      in
      first 0 = '{'
    in
    let g =
      try if is_json then Gps.Graph.Json.of_string text else Gps.Graph.Codec.of_string text with
      | Gps.Graph.Json.Parse_error (pos, msg) ->
          or_die (Error (Printf.sprintf "%s: json error at %d: %s" path pos msg))
      | Gps.Graph.Codec.Parse_error (line, msg) ->
          or_die (Error (Printf.sprintf "%s:%d: %s" path line msg))
    in
    match format with
    | "json" -> print_string (Gps.Graph.Json.to_string ~pretty:true g)
    | "edges" -> print_string (Gps.Graph.Codec.to_string g)
    | other -> or_die (Error (Printf.sprintf "unknown format %S (json or edges)" other))
  in
  Cmd.v
    (Cmd.info "convert" ~doc:"Convert a graph between edge-list and JSON formats")
    Term.(const run $ graph_arg $ format)

(* ---------------------------------------------------------------- *)
(* graph: packed binary CSR files (pack / info) *)

let graph_cmd =
  let module D = Gps.Graph.Disk_csr in
  let pack_cmd =
    let input =
      let doc =
        "Graph database file (edge list: 'src label dst' per line) to pack. Omit it and \
         pass $(b,--generate) to stream a synthetic graph straight to disk instead."
      in
      Arg.(value & pos 0 (some file) None & info [] ~docv:"GRAPH" ~doc)
    in
    let output =
      let doc = "Output packed file (conventionally $(b,.csr))." in
      Arg.(required & opt (some string) None & info [ "output"; "o" ] ~docv:"FILE" ~doc)
    in
    let generate =
      let doc =
        "Stream a uniform random graph of $(b,--nodes)/$(b,--edges) size directly into \
         the packed file — no in-heap graph is ever built, so million-node files pack \
         in O(file) memory. The only supported family is 'uniform'."
      in
      Arg.(value & opt (some string) None & info [ "generate" ] ~docv:"FAMILY" ~doc)
    in
    let nodes =
      let doc = "Node count for --generate." in
      Arg.(value & opt int 1_000_000 & info [ "nodes"; "n" ] ~docv:"N" ~doc)
    in
    let edges =
      let doc = "Edge count for --generate (default: 4x nodes)." in
      Arg.(value & opt (some int) None & info [ "edges"; "e" ] ~docv:"M" ~doc)
    in
    let labels =
      let doc = "Comma-separated label alphabet for --generate." in
      Arg.(value & opt (list string) [ "a"; "b"; "c"; "d" ] & info [ "labels" ] ~docv:"LS" ~doc)
    in
    let seed =
      let doc = "PRNG seed for --generate (packing is deterministic)." in
      Arg.(value & opt int 42 & info [ "seed"; "s" ] ~docv:"SEED" ~doc)
    in
    let run input generate nodes edges labels seed output =
      (match (input, generate) with
      | Some path, None ->
          let g = or_die (load_graph path) in
          D.pack_digraph g ~path:output
      | None, Some "uniform" ->
          let edges = Option.value edges ~default:(nodes * 4) in
          Gps.Graph.Generators.pack_uniform ~path:output ~nodes ~edges ~labels ~seed
      | None, Some other ->
          or_die (Error (Printf.sprintf "unknown --generate family %S (uniform)" other))
      | Some _, Some _ -> or_die (Error "pass either a GRAPH file or --generate, not both")
      | None, None -> or_die (Error "pack wants a GRAPH file or --generate"));
      match D.open_map output with
      | Error e -> or_die (Error (D.open_error_to_string e))
      | Ok d ->
          Printf.printf "packed %d nodes, %d edges, %d labels into %s (%d bytes)\n"
            (D.base_nodes d) (D.base_edges d) (D.base_labels d) output (D.file_bytes d)
    in
    Cmd.v
      (Cmd.info "pack"
         ~doc:
           "Pack a graph into the mmap-ready binary CSR format served by 'load_file' \
            and 'gps serve --load'")
      Term.(const run $ input $ generate $ nodes $ edges $ labels $ seed $ output)
  in
  let info_cmd =
    let file =
      let doc = "Packed binary CSR file." in
      Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)
    in
    let do_verify =
      let doc =
        "Recompute the payload CRC32 and check it against the checksum trailer — an \
         O(file) read; exit 1 on mismatch. Files packed before trailers existed report \
         'absent'."
      in
      Arg.(value & flag & info [ "verify" ] ~doc)
    in
    let run path do_verify =
      match D.open_map path with
      | Error e -> or_die (Error (Printf.sprintf "%s: %s" path (D.open_error_to_string e)))
      | Ok d ->
          let v = D.snapshot d in
          Printf.printf "path   : %s\n" path;
          Printf.printf "bytes  : %d\n" (D.file_bytes d);
          Printf.printf "nodes  : %d\n" (D.base_nodes d);
          Printf.printf "edges  : %d\n" (D.base_edges d);
          Printf.printf "labels : %d" (D.base_labels d);
          let shown = min 12 (D.base_labels d) in
          if shown > 0 then begin
            print_string "  (";
            for l = 0 to shown - 1 do
              if l > 0 then print_string " ";
              print_string (D.label_name v l)
            done;
            if shown < D.base_labels d then print_string " ...";
            print_string ")"
          end;
          print_newline ();
          if do_verify then
            match D.verify d with
            | D.Verified { crc; bytes } ->
                Printf.printf "crc    : ok (crc32 0x%08x over %d payload bytes)\n" crc bytes
            | D.No_trailer ->
                Printf.printf "crc    : absent (packed before checksum trailers; repack to add one)\n"
            | D.Crc_mismatch { stored; computed } ->
                Printf.printf "crc    : MISMATCH (trailer 0x%08x, computed 0x%08x)\n" stored
                  computed;
                or_die (Error (Printf.sprintf "%s: payload corrupt" path))
    in
    Cmd.v
      (Cmd.info "info"
         ~doc:
           "Validate a packed binary CSR file and print its header facts; --verify also \
            checks the payload checksum")
      Term.(const run $ file $ do_verify)
  in
  Cmd.group
    (Cmd.info "graph" ~doc:"Pack and inspect out-of-core binary CSR graph files")
    [ pack_cmd; info_cmd ]

(* ---------------------------------------------------------------- *)
(* store: integrity tooling for mutation logs *)

let store_cmd =
  let module St = Gps.Graph.Store in
  let log_arg =
    let doc = "Store mutation log (the file passed to Store.openfile)." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"LOG" ~doc)
  in
  let format_name = function
    | St.Text_v1 -> "text (v1)"
    | St.Framed_v2 -> "framed (v2, checksummed)"
  in
  let outcome_name = function
    | `Clean -> "clean"
    | `Torn_tail -> "torn tail (normal crash recovery)"
    | `Corrupt_record -> "CORRUPT RECORD"
  in
  let print_info (r : St.recovery_info) =
    Printf.printf "format   : %s\n" (format_name r.St.format);
    Printf.printf "records  : %d\n" r.St.entries_replayed;
    Printf.printf "tail     : %s" (outcome_name r.St.outcome);
    if r.St.bytes_discarded > 0 then
      Printf.printf " (%d bytes past the last valid record)" r.St.bytes_discarded;
    print_newline ()
  in
  let verify_cmd =
    let run path =
      match St.verify path with
      | Error msg -> or_die (Error (Printf.sprintf "%s: %s" path msg))
      | Ok r ->
          print_info r;
          if r.St.outcome = `Corrupt_record then
            or_die
              (Error
                 (Printf.sprintf
                    "%s: checksum failure mid-log — 'gps store recover %s' truncates at \
                     the last valid record"
                    path path))
    in
    Cmd.v
      (Cmd.info "verify"
         ~doc:
           "Read-only integrity check of a store log: replay every record's framing and \
            checksum without touching the file; exit 1 on a corrupt record")
      Term.(const run $ log_arg)
  in
  let recover_cmd =
    let run path =
      let st =
        try St.openfile ~recover:true path
        with Failure msg | Sys_error msg -> or_die (Error (Printf.sprintf "%s: %s" path msg))
      in
      let r = St.recovery st in
      let g = St.graph st in
      St.close st;
      print_info r;
      Printf.printf "graph    : %d nodes, %d edges\n" (Digraph.n_nodes g)
        (Digraph.n_edges g);
      if r.St.bytes_discarded > 0 then
        Printf.printf "truncated %d unrecoverable bytes\n" r.St.bytes_discarded
      else print_endline "nothing to repair"
    in
    Cmd.v
      (Cmd.info "recover"
         ~doc:
           "Repair a store log in place: truncate at the last record with a valid \
            checksum (discarding any torn or corrupt tail) and report what survived")
      Term.(const run $ log_arg)
  in
  Cmd.group
    (Cmd.info "store"
       ~doc:"Verify and repair persistent graph store mutation logs (CRC-framed WAL)")
    [ verify_cmd; recover_cmd ]

(* ---------------------------------------------------------------- *)
(* identify: L* against a known query (a teacher demo) *)

let identify_cmd =
  let run qs =
    let q = or_die (Gps.parse_query qs) in
    match Gps.Learning.Lstar.learn_query q with
    | Ok (learned, stats) ->
        Printf.printf "target      : %s\n" (Gps.Query.Rpq.to_string q);
        Printf.printf "identified  : %s\n" (Gps.Query.Rpq.to_string learned);
        Printf.printf "equal       : %b\n" (Gps.Query.Rpq.equal_lang learned q);
        Printf.printf "queries     : %d membership, %d equivalence\n"
          stats.Gps.Learning.Lstar.membership_queries
          stats.Gps.Learning.Lstar.equivalence_queries;
        Printf.printf "minimal DFA : %d states\n" stats.Gps.Learning.Lstar.states
    | Error e ->
        prerr_endline ("gps: " ^ e);
        exit 1
  in
  Cmd.v
    (Cmd.info "identify"
       ~doc:"Identify a query's language with Angluin's L* (membership-query demo)")
    Term.(const run $ query_pos 0)

(* ---------------------------------------------------------------- *)
(* trace: offline work on JSONL span traces *)

let trace_file_arg =
  let doc = "JSONL trace file written by --trace, or '-' for stdin." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)

let load_trace = function
  | "-" -> Gps.Obs.Summary.load_channel ~name:"<stdin>" stdin
  | file -> Gps.Obs.Summary.load_file file

let trace_cmd =
  let summary_cmd =
    let timings =
      let doc =
        "Include the duration columns (mean_us/max_us). Pass --timings=false for output \
         that only depends on the work done, not on how fast it ran."
      in
      Arg.(value & opt bool true & info [ "timings" ] ~docv:"BOOL" ~doc)
    in
    let json =
      let doc = "Emit the summary as one JSON object instead of a table." in
      Arg.(value & flag & info [ "json" ] ~doc)
    in
    let sort =
      let doc =
        "Row order: 'name' (ascending, the default) or 'count' / 'total' / 'max' / 'mean' \
         (descending — biggest first)."
      in
      Arg.(value & opt string "name" & info [ "sort" ] ~docv:"KEY" ~doc)
    in
    let run file timings json sort =
      let by = or_die (Gps.Obs.Summary.order_of_string sort) in
      let spans = or_die (load_trace file) in
      let rows = Gps.Obs.Summary.sort ~by (Gps.Obs.Summary.aggregate spans) in
      if json then
        print_endline
          (Gps.Graph.Json.value_to_string ~pretty:true (Gps.Obs.Summary.to_json ~timings rows))
      else Format.printf "%a" (Gps.Obs.Summary.pp ~timings) rows
    in
    Cmd.v
      (Cmd.info "summary" ~doc:"Aggregate a JSONL trace into per-span-name statistics")
      Term.(const run $ trace_file_arg $ timings $ json $ sort)
  in
  let flame_cmd =
    let run file =
      let spans = or_die (load_trace file) in
      print_string (Gps.Obs.Flame.to_string (Gps.Obs.Flame.fold spans))
    in
    Cmd.v
      (Cmd.info "flame"
         ~doc:
           "Fold a JSONL trace into flame-graph stacks ('a;b;c self_ns' lines for \
            flamegraph.pl or speedscope)")
      Term.(const run $ trace_file_arg)
  in
  Cmd.group (Cmd.info "trace" ~doc:"Inspect JSONL span traces") [ summary_cmd; flame_cmd ]

(* ---------------------------------------------------------------- *)
(* metrics: the process/service telemetry, human- or scraper-facing *)

let metrics_cmd =
  let prom =
    let doc = "Render in Prometheus text exposition format instead of JSON." in
    Arg.(value & flag & info [ "prom" ] ~doc)
  in
  let prom_compat =
    let doc =
      "With $(b,--prom), also emit the legacy quantile-gauge families \
       (_p50/_p90/_p99/_mean) next to the native histogram exposition — one release of \
       dashboard overlap. Local render only; a scraped server decides from its own \
       --prom-compat flag."
    in
    Arg.(value & flag & info [ "prom-compat" ] ~doc)
  in
  let connect =
    let doc =
      "Scrape a running 'gps serve --port' instance at $(docv) instead of dumping this \
       process's (empty) registries."
    in
    Arg.(value & opt (some string) None & info [ "connect" ] ~docv:"HOST:PORT" ~doc)
  in
  let timeout_arg =
    let doc = "Connect and read timeout (seconds) for --connect." in
    Arg.(value & opt float 5.0 & info [ "timeout" ] ~docv:"S" ~doc)
  in
  let retries_arg =
    let doc =
      "Retry --connect up to $(docv) additional times with jittered exponential backoff \
       before giving up (a scrape racing a restarting server should not flap)."
    in
    Arg.(value & opt int 2 & info [ "retries" ] ~docv:"N" ~doc)
  in
  let scrape addr prom timeout retries =
    let host, port = parse_hostport addr in
    let req = if prom then Proto.Metrics_prom else Proto.Metrics { timings = true } in
    match round_trip ~host ~port ~timeout ~retries req with
    | Proto.Prom_dump text -> print_string text
    | Proto.Metrics_dump m -> print_endline (Gps.Graph.Json.value_to_string ~pretty:true m)
    | Proto.Err e -> or_die (Error (Printf.sprintf "%s: %s" e.Proto.code e.Proto.message))
    | _ -> or_die (Error "unexpected response kind")
  in
  let run prom prom_compat connect timeout retries =
    match connect with
    | Some addr -> scrape addr prom timeout retries
    | None ->
        if prom then print_string (Gps.Obs.Prom.render ~compat:prom_compat ())
        else
          let counters =
            Gps.Graph.Json.Object
              (List.map
                 (fun (k, v) -> (k, Gps.Graph.Json.Number (float_of_int v)))
                 (Gps.Obs.Counter.snapshot ()))
          in
          let gauges =
            Gps.Graph.Json.Object
              (List.map (fun (k, v) -> (k, Gps.Graph.Json.Number v)) (Gps.Obs.Gauge.snapshot ()))
          in
          print_endline
            (Gps.Graph.Json.value_to_string ~pretty:true
               (Gps.Graph.Json.Object [ ("counters", counters); ("gauges", gauges) ]))
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Dump telemetry registries (counters, gauges, histograms) as JSON or Prometheus \
          text, locally or scraped from a running server")
    Term.(const run $ prom $ prom_compat $ connect $ timeout_arg $ retries_arg)

(* ---------------------------------------------------------------- *)
(* workload: PathForge-style mixes and open-loop load storms *)

let workload_cmd =
  let module W = Gps.Workload in
  let mix_names () = String.concat ", " (List.map (fun s -> s.W.Mix.name) W.Mix.specs) in
  let find_spec name =
    match W.Mix.find_spec name with
    | Some s -> s
    | None ->
        or_die (Error (Printf.sprintf "unknown mix %S (available: %s)" name (mix_names ())))
  in
  let generate_cmd =
    let mix =
      let doc = "Mix to generate: smoke, heavy-star, interactive or paper." in
      Arg.(value & opt string "smoke" & info [ "mix"; "m" ] ~docv:"NAME" ~doc)
    in
    let seed =
      let doc = "PRNG seed — generation is byte-identical for a fixed seed." in
      Arg.(value & opt int 42 & info [ "seed"; "s" ] ~docv:"SEED" ~doc)
    in
    let graph_name =
      let doc =
        "Catalog graph name the queries should target on the server (default: the graph \
         file's basename without extension)."
      in
      Arg.(value & opt (some string) None & info [ "graph-name" ] ~docv:"NAME" ~doc)
    in
    let output =
      let doc = "Output JSONL file (default: stdout)." in
      Arg.(value & opt (some string) None & info [ "output"; "o" ] ~docv:"FILE" ~doc)
    in
    let run path mix seed graph_name output =
      let g = or_die (load_graph path) in
      let spec = find_spec mix in
      let graph_name =
        match graph_name with
        | Some n -> n
        | None -> Filename.remove_extension (Filename.basename path)
      in
      let m =
        try W.Mix.generate spec ~graph_name ~seed g
        with Invalid_argument msg -> or_die (Error msg)
      in
      let text = W.Mix.to_jsonl m in
      match output with
      | None -> print_string text
      | Some file ->
          let oc = try open_out file with Sys_error msg -> or_die (Error msg) in
          output_string oc text;
          close_out oc;
          Printf.printf "wrote %d queries (mix %s, seed %d) to %s\n"
            (List.length m.W.Mix.entries) m.W.Mix.mix seed file
    in
    Cmd.v
      (Cmd.info "generate"
         ~doc:"Instantiate a named query mix against a graph (seeded, reproducible JSONL)")
      Term.(const run $ graph_arg $ mix $ seed $ graph_name $ output)
  in
  let show_cmd =
    let mix =
      let doc = "Show one mix's shape instead of the whole taxonomy." in
      Arg.(value & opt (some string) None & info [ "mix"; "m" ] ~docv:"NAME" ~doc)
    in
    let run mix =
      match mix with
      | Some name ->
          let spec = find_spec name in
          Printf.printf "%s — %s\n" spec.W.Mix.name spec.W.Mix.description;
          if spec.W.Mix.shape = [] then
            List.iter
              (fun (qname, q) -> Printf.printf "  %-5s %s\n" qname q)
              (W.Mix.paper_city_queries @ W.Mix.paper_bio_queries)
          else
            List.iter
              (fun (aq, count) ->
                match W.Pattern.find aq with
                | Some p ->
                    Printf.printf "  %-5s x%-3d %-10s %s\n" aq count p.W.Pattern.source
                      (W.Pattern.to_string p)
                | None -> ())
              spec.W.Mix.shape
      | None ->
          print_endline "abstract patterns (PathForge AQ1-AQ28; repo notation on the right):";
          List.iter
            (fun p ->
              Printf.printf "  %-5s %-10s %s\n" p.W.Pattern.id p.W.Pattern.source
                (W.Pattern.to_string p))
            W.Pattern.all;
          print_endline "";
          print_endline "mixes:";
          List.iter
            (fun s ->
              let size =
                if s.W.Mix.shape = [] then
                  List.length (W.Mix.paper_city_queries @ W.Mix.paper_bio_queries)
                else List.fold_left (fun acc (_, n) -> acc + n) 0 s.W.Mix.shape
              in
              Printf.printf "  %-12s %2d queries — %s\n" s.W.Mix.name size s.W.Mix.description)
            W.Mix.specs
    in
    Cmd.v
      (Cmd.info "show" ~doc:"List the abstract-pattern taxonomy and the named mixes")
      Term.(const run $ mix)
  in
  let storm_cmd =
    let mixfile =
      let doc = "JSONL mix produced by 'gps workload generate', or '-' for stdin." in
      Arg.(required & pos 0 (some string) None & info [] ~docv:"MIX" ~doc)
    in
    let connect =
      let doc = "The running 'gps serve --port' instance to storm." in
      Arg.(required & opt (some string) None & info [ "connect" ] ~docv:"HOST:PORT" ~doc)
    in
    let rps =
      let doc = "Target aggregate request rate (open loop: requests are sent on schedule)." in
      Arg.(value & opt float 100.0 & info [ "rps" ] ~docv:"N" ~doc)
    in
    let duration =
      let doc = "Storm duration in seconds." in
      Arg.(value & opt float 5.0 & info [ "duration"; "d" ] ~docv:"S" ~doc)
    in
    let clients =
      let doc = "Client connections (each pipelines its share of the schedule)." in
      Arg.(value & opt int 8 & info [ "clients"; "c" ] ~docv:"N" ~doc)
    in
    let deadline_ms =
      let doc = "Per-request deadline sent on the wire with every query." in
      Arg.(value & opt (some float) None & info [ "deadline-ms" ] ~docv:"MS" ~doc)
    in
    let load =
      let doc =
        "Provision graphs first: comma-separated NAME=FILE pairs pushed to the server as \
         inline edge-list text before the storm starts."
      in
      Arg.(value & opt (list string) [] & info [ "load" ] ~docv:"SPECS" ~doc)
    in
    let json =
      let doc = "Emit the report as one JSON object instead of a table." in
      Arg.(value & flag & info [ "json" ] ~doc)
    in
    let run mixfile connect rps duration clients deadline_ms load json =
      let host, port = parse_hostport connect in
      let text =
        match mixfile with
        | "-" -> In_channel.input_all stdin
        | file -> (
            try In_channel.with_open_bin file In_channel.input_all
            with Sys_error msg -> or_die (Error msg))
      in
      let mix = or_die (W.Mix.of_jsonl text) in
      List.iter
        (fun spec ->
          match String.index_opt spec '=' with
          | Some i ->
              let name = String.sub spec 0 i in
              let file = String.sub spec (i + 1) (String.length spec - i - 1) in
              let text =
                try In_channel.with_open_bin file In_channel.input_all
                with Sys_error msg -> or_die (Error msg)
              in
              or_die (W.Storm.load_graph ~host ~port ~name ~text)
          | None -> or_die (Error (Printf.sprintf "--load wants NAME=FILE, got %S" spec)))
        load;
      let config =
        { W.Storm.host; port; rps; duration_s = duration; connections = clients; deadline_ms }
      in
      match W.Storm.run config mix with
      | Error msg -> or_die (Error msg)
      | Ok outcome ->
          if json then
            print_endline
              (Gps.Graph.Json.value_to_string ~pretty:true (W.Storm.outcome_to_json outcome))
          else Format.printf "%a@?" W.Storm.pp_outcome outcome
    in
    Cmd.v
      (Cmd.info "storm"
         ~doc:
           "Replay a mix open-loop against a live server at a target RPS, reporting \
            p50/p95/p99 latency, achieved rate and server shed/timeout counters")
      Term.(const run $ mixfile $ connect $ rps $ duration $ clients $ deadline_ms $ load $ json)
  in
  Cmd.group
    (Cmd.info "workload"
       ~doc:"PathForge-style query-mix generation and open-loop load storms")
    [ generate_cmd; show_cmd; storm_cmd ]

(* ---------------------------------------------------------------- *)
(* top: live dashboard off a running server's timeseries endpoint *)

let top_cmd =
  let module Json = Gps.Graph.Json in
  let connect =
    let doc = "The running 'gps serve --port --sample-every' instance to watch." in
    Arg.(required & opt (some string) None & info [ "connect" ] ~docv:"HOST:PORT" ~doc)
  in
  let once =
    let doc = "Render one frame and exit (no screen clearing) — scriptable output." in
    Arg.(value & flag & info [ "once" ] ~doc)
  in
  let interval =
    let doc = "Refresh interval in seconds." in
    Arg.(value & opt float 2.0 & info [ "interval" ] ~docv:"S" ~doc)
  in
  let window =
    let doc = "Ask the server for its last $(docv) samples each refresh." in
    Arg.(value & opt int 60 & info [ "window" ] ~docv:"N" ~doc)
  in
  let timeout_arg =
    let doc = "Connect and read timeout in seconds." in
    Arg.(value & opt float 5.0 & info [ "timeout" ] ~docv:"S" ~doc)
  in
  (* field access with zero defaults: rates omit zero counters *)
  let num ?(default = 0.) v k =
    match Json.member k v with Some (Json.Number n) -> n | _ -> default
  in
  let obj v k =
    match Json.member k v with Some (Json.Object _ as o) -> o | _ -> Json.Object []
  in
  let find_sub s sub =
    let n = String.length s and m = String.length sub in
    let rec go i =
      if i + m > n then None else if String.sub s i m = sub then Some i else go (i + 1)
    in
    go 0
  in
  (* server.request_ns{endpoint="query"} -> query *)
  let endpoint_of_key k =
    match find_sub k "{endpoint=\"" with
    | Some i -> (
        let start = i + String.length "{endpoint=\"" in
        match String.index_from_opt k start '"' with
        | Some stop -> String.sub k start (stop - start)
        | None -> k)
    | None -> k
  in
  let render ~addr series =
    let buf = Buffer.create 1024 in
    let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
    let interval_s = num series "interval_s" in
    let finish () = Buffer.contents buf in
    let total = int_of_float (num series "total_samples") in
    let points =
      match Json.member "points" series with Some (Json.Array ps) -> ps | _ -> []
    in
    add "gps top — %s   sampler: every %gs, %d samples, %d interval(s) shown\n" addr
      interval_s total (List.length points);
    match List.rev points with
    | [] ->
        add "\n  (no intervals yet — the sampler needs at least two samples;\n";
        add "   refresh in %gs or raise --window)\n" interval_s;
        finish ()
    | last :: _ ->
        let avg f =
          match points with
          | [] -> 0.
          | ps -> List.fold_left (fun acc p -> acc +. f p) 0. ps /. float_of_int (List.length ps)
        in
        let rate p k = num (obj p "rates") k in
        let gauge p k = num (obj p "gauges") k in
        let hit_ratio p =
          let h = rate p "qcache.hits" and m = rate p "qcache.misses" in
          if h +. m <= 0. then Float.nan else 100. *. h /. (h +. m)
        in
        let pct v = if Float.is_nan v then "    -" else Printf.sprintf "%5.1f" v in
        add "\n%-22s %10s %10s\n" "rates (/s)" "last" "avg";
        List.iter
          (fun (label, key) ->
            add "  %-20s %10.1f %10.1f\n" label (rate last key) (avg (fun p -> rate p key)))
          [
            ("requests", "server.dispatches");
            ("errors", "server.dispatch_errors");
            ("sheds", "server.sheds");
            ("timeouts", "server.timeouts");
            ("slow queries", "server.slow_queries");
            ("audit lines", "audit.emitted");
          ];
        add "  %-20s %10s %10s\n" "cache hit %" (pct (hit_ratio last))
          (pct (avg (fun p -> let r = hit_ratio p in if Float.is_nan r then 0. else r)));
        add "\ngauges (last interval)\n";
        List.iter
          (fun (label, key) -> add "  %-20s %10.0f\n" label (gauge last key))
          [
            ("inflight", "server.inflight");
            ("sessions", "server.sessions_active");
            ("cache entries", "server.qcache_size");
          ];
        (* only servers that actually recovered sessions at boot carry
           the recovery gauge; zero means a clean start *)
        if gauge last "recovery.sessions" > 0. then
          add "  %-20s %10.0f   (rebuilt at boot)\n" "recovered sessions"
            (gauge last "recovery.sessions");
        let hists = match obj last "hist" with Json.Object kvs -> kvs | _ -> [] in
        let request_hists =
          List.filter (fun (k, _) -> find_sub k "server.request_ns" = Some 0) hists
        in
        if request_hists <> [] then begin
          add "\n%-14s %8s %8s %8s %8s %8s  (last interval, ms)\n" "latency" "count"
            "p50" "p90" "p99" "max";
          List.iter
            (fun (k, h) ->
              let ms field = num h field /. 1e6 in
              add "  %-12s %8.0f %8.2f %8.2f %8.2f %8.2f\n" (endpoint_of_key k)
                (num h "count") (ms "p50") (ms "p90") (ms "p99") (ms "max"))
            request_hists
        end;
        (* GC / domains panel — present only against a server running
           with --profile (the gc.* / runtime.* families); older or
           unprofiled servers simply don't grow the section *)
        let gc_hists =
          List.filter (fun (k, _) -> find_sub k "gc.pause_ns" = Some 0) hists
        in
        let has_gc_rates p =
          rate p "gc.minor_collections" > 0. || rate p "gc.major_slices" > 0.
        in
        let domains_live = gauge last "runtime.domains_live" in
        if gc_hists <> [] || domains_live > 0. || has_gc_rates last then begin
          add "\ngc / domains (last interval)\n";
          add "  %-20s %10.0f\n" "domains live" domains_live;
          add "  %-20s %10.1f %10.1f   (last, avg /s)\n" "minor collections"
            (rate last "gc.minor_collections")
            (avg (fun p -> rate p "gc.minor_collections"));
          add "  %-20s %10.1f %10.1f   (last, avg /s)\n" "major slices"
            (rate last "gc.major_slices")
            (avg (fun p -> rate p "gc.major_slices"));
          if gc_hists <> [] then begin
            add "  %-26s %8s %8s %8s  (last interval, us)\n" "gc pauses" "count" "p99" "max";
            List.iter
              (fun (k, h) ->
                let us field = num h field /. 1e3 in
                (* gc.pause_ns{domain="0",gc="minor"} -> domain=0 minor *)
                let label =
                  match find_sub k "{" with
                  | Some i ->
                      String.sub k i (String.length k - i)
                      |> String.map (fun c ->
                             match c with '{' | '}' | '"' -> ' ' | c -> c)
                      |> String.trim
                  | None -> k
                in
                add "  %-26s %8.0f %8.0f %8.0f\n" label (num h "count") (us "p99") (us "max"))
              gc_hists
          end
        end;
        finish ()
  in
  let run addr once interval window timeout =
    if window < 2 then or_die (Error "--window must be >= 2 (an interval needs two samples)");
    if interval <= 0. then or_die (Error "--interval must be positive");
    let host, port = parse_hostport addr in
    let req = Proto.Timeseries { last = Some window; downsample = None } in
    let rec loop () =
      (match round_trip ~host ~port ~timeout req with
      | Proto.Timeseries_dump series ->
          if not once then print_string "\027[H\027[2J";
          print_string (render ~addr series);
          flush stdout
      | Proto.Err e -> or_die (Error (Printf.sprintf "%s: %s" e.Proto.code e.Proto.message))
      | _ -> or_die (Error "unexpected response kind"));
      if not once then begin
        Unix.sleepf interval;
        loop ()
      end
    in
    loop ()
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live dashboard for a running server: request/shed/timeout rates, cache hit \
          ratio, per-endpoint latency percentiles and — against a server running with \
          --profile — a GC/domains panel (pause tails, collection rates), refreshed from \
          the server's in-process timeseries")
    Term.(const run $ connect $ once $ interval $ window $ timeout_arg)

(* ---------------------------------------------------------------- *)
(* audit: offline aggregation of --audit wide-event logs *)

let audit_cmd =
  let module WE = Gps.Obs.Wide_event in
  let summary_cmd =
    let file =
      let doc = "JSONL audit log written by 'gps serve --audit', or '-' for stdin." in
      Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)
    in
    let top =
      let doc = "How many slowest requests to list." in
      Arg.(value & opt int 5 & info [ "top" ] ~docv:"K" ~doc)
    in
    let json =
      let doc = "Emit the summary as one JSON object instead of a table." in
      Arg.(value & flag & info [ "json" ] ~doc)
    in
    let run file top json =
      if top < 0 then or_die (Error "--top must be >= 0");
      let events, malformed =
        match file with
        | "-" -> WE.load_jsonl stdin
        | f -> (
            try In_channel.with_open_bin f WE.load_jsonl
            with Sys_error msg -> or_die (Error msg))
      in
      let s = WE.summarize ~top ~malformed events in
      if json then
        print_endline (Gps.Graph.Json.value_to_string ~pretty:true (WE.summary_to_json s))
      else Format.printf "%a@?" WE.pp_summary s
    in
    Cmd.v
      (Cmd.info "summary"
         ~doc:
           "Aggregate a wide-event audit log: per-endpoint counts, error rates and \
            latency percentiles, cache-state mix and the slowest requests")
      Term.(const run $ file $ top $ json)
  in
  Cmd.group (Cmd.info "audit" ~doc:"Inspect wide-event request audit logs") [ summary_cmd ]

(* ---------------------------------------------------------------- *)
(* serve *)

let serve_cmd =
  let stdio =
    let doc = "Serve newline-delimited JSON on stdin/stdout (the default)." in
    Arg.(value & flag & info [ "stdio" ] ~doc)
  in
  let port =
    let doc = "Listen on this TCP port instead of stdio (one thread per connection)." in
    Arg.(value & opt (some int) None & info [ "port"; "p" ] ~docv:"PORT" ~doc)
  in
  let host =
    let doc = "Bind address for --port." in
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"ADDR" ~doc)
  in
  let preload =
    let doc =
      "Preload graphs before serving: comma-separated NAME=SOURCE pairs where SOURCE is \
       a file path or a builtin dataset name ('figure1' / 'transpole'); a bare builtin \
       name is also accepted."
    in
    Arg.(value & opt (list string) [] & info [ "load" ] ~docv:"SPECS" ~doc)
  in
  let cache =
    let doc = "Query-result cache capacity (0 disables caching)." in
    Arg.(value & opt int 256 & info [ "cache" ] ~docv:"N" ~doc)
  in
  let slow_ms =
    let doc =
      "Log every query taking at least $(docv) milliseconds as one JSON line on stderr \
       (the slow-query log). 0 logs every query."
    in
    Arg.(value & opt (some float) None & info [ "slow-ms" ] ~docv:"MS" ~doc)
  in
  let deadline_ms =
    let doc =
      "Default per-request deadline in milliseconds. A request exceeding it is \
       cooperatively cancelled and answered with a typed 'timeout' error carrying the \
       partial EXPLAIN report. Clients may send their own 'deadline_ms', bounded by \
       --deadline-cap-ms."
    in
    Arg.(value & opt (some float) None & info [ "deadline-ms" ] ~docv:"MS" ~doc)
  in
  let deadline_cap_ms =
    let doc = "Ceiling on client-requested (and default) deadlines, in milliseconds." in
    Arg.(value & opt (some float) None & info [ "deadline-cap-ms" ] ~docv:"MS" ~doc)
  in
  let max_inflight =
    let doc =
      "Admission control: refuse requests beyond $(docv) concurrently dispatching ones \
       with a fast typed 'overloaded' error. 0 = unbounded."
    in
    Arg.(value & opt int 0 & info [ "max-inflight" ] ~docv:"N" ~doc)
  in
  let max_frame_bytes =
    let doc =
      "Reject request frames over $(docv) bytes with a 'frame-too-large' error and close \
       the connection."
    in
    Arg.(value & opt int (8 * 1024 * 1024) & info [ "max-frame-bytes" ] ~docv:"BYTES" ~doc)
  in
  let io_timeout_s =
    let doc =
      "Per-connection socket read/write timeout in seconds (TCP): a stalled peer cannot \
       hold its thread forever."
    in
    Arg.(value & opt (some float) None & info [ "io-timeout-s" ] ~docv:"S" ~doc)
  in
  let audit =
    let doc =
      "Append one wide-event JSON line per wire request to $(docv) — the canonical \
       request audit log (aggregate it with 'gps audit summary $(docv)')."
    in
    Arg.(value & opt (some string) None & info [ "audit" ] ~docv:"FILE" ~doc)
  in
  let audit_sample =
    let doc =
      "Head-based sampling for --audit: keep 1-in-$(docv) requests by id. Errors and \
       requests at or over --slow-ms are always kept."
    in
    Arg.(value & opt int 1 & info [ "audit-sample" ] ~docv:"N" ~doc)
  in
  let sample_every =
    let doc =
      "Snapshot all telemetry registries into the in-process timeseries ring every \
       $(docv) seconds — feeds the 'timeseries' wire op and 'gps top'. 0 disables the \
       sampler."
    in
    Arg.(value & opt float 1.0 & info [ "sample-every" ] ~docv:"S" ~doc)
  in
  let prom_compat =
    let doc =
      "Also emit the legacy quantile-gauge families (_p50/_p90/_p99/_mean) from the \
       Prometheus endpoint, for one release of dashboard overlap."
    in
    Arg.(value & flag & info [ "prom-compat" ] ~doc)
  in
  let profile =
    let doc =
      "Runtime observability: subscribe to the OCaml runtime's GC/domain events \
       (gc_pause_ns histograms, domains_live), flowing through the metrics, Prometheus \
       and timeseries surfaces. Off by default: the profiling paths cost nothing when \
       disabled."
    in
    Arg.(value & flag & info [ "profile" ] ~doc)
  in
  let state_dir =
    let doc =
      "Session durability: journal every acknowledged session mutation to a checksummed \
       per-session WAL under $(docv), and on startup replay the journals found there to \
       rebuild the sessions a crashed server was holding. Without it, sessions are \
       memory-only."
    in
    Arg.(value & opt (some string) None & info [ "state-dir" ] ~docv:"DIR" ~doc)
  in
  let fsync =
    let doc =
      "When journaled session state is forced to disk before a mutation is acknowledged: \
       'always' (default — every acked step survives power loss), 'every:N' (one fsync \
       per N appends, bounded loss window), 'never' (page cache only)."
    in
    Arg.(value & opt string "always" & info [ "fsync" ] ~docv:"POLICY" ~doc)
  in
  let run stdio port host preload cache slow_ms deadline_ms deadline_cap_ms max_inflight
      max_frame_bytes io_timeout_s audit audit_sample sample_every prom_compat profile
      state_dir fsync trace =
    let module Srv = Gps.Server.Server in
    let module P = Gps.Server.Protocol in
    (* chaos runs arm fault injection from the environment before any
       request is served; a malformed spec aborts with exit 2 *)
    Gps.Obs.Fault.init_from_env ();
    (* the service always traces: to the JSONL file when --trace is
       given, otherwise into an in-memory ring the metrics endpoint
       summarizes *)
    let trace_oc =
      match trace with
      | Some path -> (
          try
            let oc = open_out path in
            Gps.Obs.Trace.enable (Gps.Obs.Trace.Jsonl oc);
            Some oc
          with Sys_error msg -> or_die (Error msg))
      | None ->
          Gps.Obs.Trace.enable (Gps.Obs.Trace.Memory (Gps.Obs.Trace.buffer ()));
          None
    in
    at_exit (fun () ->
        Gps.Obs.Trace.disable ();
        Option.iter close_out trace_oc);
    if audit_sample < 1 then or_die (Error "--audit-sample must be >= 1");
    if sample_every < 0. then or_die (Error "--sample-every must be >= 0 (0 disables)");
    let audit_oc =
      Option.map
        (fun path ->
          try open_out path with Sys_error msg -> or_die (Error msg))
        audit
    in
    at_exit (fun () -> Option.iter close_out audit_oc);
    let audit_sink =
      Option.map (fun oc -> Gps.Obs.Wide_event.sink ~sample:audit_sample ?slow_ms oc) audit_oc
    in
    let fsync_policy =
      match Gps.Graph.Wal.policy_of_string fsync with
      | Ok p -> p
      | Error msg -> or_die (Error ("--fsync: " ^ msg))
    in
    let server =
      match
        Srv.create
          ~config:
            {
              Srv.default_config with
              Srv.cache_capacity = cache;
              Srv.slow_ms;
              Srv.deadline_ms;
              Srv.deadline_cap_ms;
              Srv.max_inflight;
              Srv.max_frame_bytes;
              Srv.io_timeout_s;
              Srv.audit = audit_sink;
              Srv.sample_every_s = (if sample_every > 0. then Some sample_every else None);
              Srv.prom_compat;
              Srv.profile;
              Srv.state_dir;
              Srv.fsync = fsync_policy;
            }
          ()
      with
      | s -> s
      | exception Failure msg -> or_die (Error msg)
    in
    at_exit (fun () -> Srv.stop_sampler server);
    (* a --load file whose first bytes spell the packed-CSR magic is
       mmapped in place instead of parsed into the heap *)
    let is_packed path =
      match In_channel.with_open_bin path (fun ic -> really_input_string ic 8) with
      | magic -> magic = "GPSCSR01"
      | exception (End_of_file | Sys_error _) -> false
    in
    List.iter
      (fun spec ->
        let req =
          match String.index_opt spec '=' with
          | Some i -> (
              let name = String.sub spec 0 i in
              let v = String.sub spec (i + 1) (String.length spec - i - 1) in
              if not (Sys.file_exists v) then P.Load { name; source = P.Builtin v }
              else if is_packed v then P.Load_file { name; path = v }
              else P.Load { name; source = P.Path v })
          | None -> P.Load { name = spec; source = P.Builtin spec }
        in
        match Srv.handle server req with
        | P.Err e -> or_die (Error (Printf.sprintf "--load %s: %s" spec e.P.message))
        | _ -> ())
      preload;
    (* recovery replays session journals against the preloaded catalog,
       so it must run after --load and before the first request *)
    (match Srv.recover server with
    | None -> ()
    | Some r ->
        Printf.eprintf
          "gps: recovery: %d session(s) restored, %d failed, %d tail(s) truncated (%d \
           bytes) in %.1f ms\n\
           %!"
          r.Srv.sessions_restored r.Srv.sessions_failed r.Srv.entries_discarded
          r.Srv.bytes_discarded r.Srv.duration_ms);
    match port with
    | Some port -> (
        (* block SIGTERM/SIGINT before spawning any thread (children
           inherit the mask), then park the main thread in wait_signal:
           the first signal starts a graceful drain instead of killing
           the process mid-request *)
        ignore (Thread.sigmask Unix.SIG_BLOCK [ Sys.sigterm; Sys.sigint ]);
        match Srv.start_tcp server ~host ~port () with
        | tcp ->
            Printf.eprintf "gps: serving on %s:%d\n%!" host (Srv.tcp_port tcp);
            let signal = Thread.wait_signal [ Sys.sigterm; Sys.sigint ] in
            let signal_name = if signal = Sys.sigint then "SIGINT" else "SIGTERM" in
            Printf.eprintf "gps: %s received, draining %d connection(s)\n%!"
              signal_name (Srv.live_connections tcp);
            let forced = Srv.drain_tcp server tcp () in
            Printf.eprintf "gps: drained (%d forced close(s))\n%!" forced
        | exception Unix.Unix_error (e, _, _) ->
            or_die
              (Error
                 (Printf.sprintf "cannot listen on %s:%d: %s" host port
                    (Unix.error_message e))))
    | None ->
        ignore stdio;
        Srv.serve_channels server stdin stdout
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve the query/specification protocol (newline-delimited JSON) over stdio or TCP")
    Term.(
      const run $ stdio $ port $ host $ preload $ cache $ slow_ms $ deadline_ms
      $ deadline_cap_ms $ max_inflight $ max_frame_bytes $ io_timeout_s $ audit
      $ audit_sample $ sample_every $ prom_compat $ profile $ state_dir $ fsync
      $ trace_arg)

(* ---------------------------------------------------------------- *)

let () =
  let doc = "interactive path query specification on graph databases" in
  let info = Cmd.info "gps" ~version:Gps.version ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            generate_cmd; stats_cmd; query_cmd; learn_cmd; session_cmd; dot_cmd; convert_cmd;
            graph_cmd; store_cmd; identify_cmd; serve_cmd; trace_cmd;
            metrics_cmd; workload_cmd; top_cmd; audit_cmd;
          ]))
