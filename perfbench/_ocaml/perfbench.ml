(* perfbench: one workload, one run.

     perfbench.exe --workload W --seed N --seconds S --trace 0|1 \
       --gps PATH/TO/gps --work DIR [--commit ID] [--cores N] \
       [--server-cpus LIST --all-cpus LIST]

   With --trace 0 it starts `gps serve` as its own process, drives it
   over TCP and reports the end-to-end metrics; with --trace 1 it
   replays the same generated requests in-process through each layer
   (see Traced) and reports the per-layer metrics. The last line of
   stdout is the result object; the line before it carries the run's
   details (host, offered rate, tail latencies, workload-specific
   figures). *)

module Json = Gps.Graph.Json
module I = Inputs
module St = Streams

type workload = Q_hot | Q_cold | Rw_overlay | Session

let workloads = [ ("q-hot", Q_hot); ("q-cold", Q_cold); ("rw-overlay", Rw_overlay); ("session", Session) ]

(* the storms' fixed offered rates, requests/s; README.md lists the
   same table *)
let rate = function Q_hot -> 6000. | Q_cold -> 150. | Rw_overlay -> 150. | Session -> 0.

let end_to_end = [ ("setup_s", "s"); ("p50_ms", "ms"); ("sat_rps", "1/s"); ("peak_rss_mb", "MiB") ]

let layer_unit name =
  let ends s = String.ends_with ~suffix:s name in
  if ends "_ns" || ends "_per_visit" then "ns"
  else if ends "_bytes" || ends "bytes_per_req" then "bytes"
  else if ends "_ratio" then "ratio"
  else if ends "_pct" then "%"
  else "count"

let num x = Json.Number x
let str s = Json.String s

let result_line ~correct ~attempted ~failed metrics =
  Json.value_to_string
    (Json.Object
       [
         ("correct", Json.Bool correct);
         ("attempted", num (float_of_int attempted));
         ("failed", num (float_of_int failed));
         ( "metrics",
           Json.Object (List.map (fun (n, v, u) -> (n, Json.Object [ ("value", num v); ("unit", str u) ])) metrics) );
       ])

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let gps = ref "" and work = ref "" and commit = ref "unknown" in
  let cores = ref (Domain.recommended_domain_count ()) and server_cpus = ref "" and all_cpus = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Set_int seed, "N");
      ("--seconds", Arg.Set_float seconds, "S");
      ("--trace", Arg.Set_int trace, "0|1");
      ("--gps", Arg.Set_string gps, "PATH to the gps binary");
      ("--work", Arg.Set_string work, "DIR for generated files");
      ("--commit", Arg.Set_string commit, "ID of the measured source");
      ("--cores", Arg.Set_int cores, "N cores of the host");
      ("--server-cpus", Arg.Set_string server_cpus, "LIST cores for the server (taskset -c), this process on others");
      ("--all-cpus", Arg.Set_string all_cpus, "LIST cores both may use in the saturation phase");
    ]
    (fun a -> raise (Arg.Bad a))
    "perfbench.exe --workload W --seed N --seconds S --trace 0|1 --gps PATH --work DIR";
  let w =
    match List.assoc_opt !workload workloads with
    | Some w -> w
    | None -> failwith ("unknown workload " ^ !workload)
  in
  let seed = !seed and seconds = !seconds and gps = !gps and work = !work in
  let cores = !cores and cpus = !server_cpus in
  let started = Wire.now_ns () in
  if not (Sys.file_exists work) then Unix.mkdir work 0o755;
  let path f = Filename.concat work f in
  let host =
    [
      ("cores", num (float_of_int cores));
      ("server_cpus", str (if cpus = "" then "shared" else cpus));
      ("ocaml", str Sys.ocaml_version);
      ("commit", str !commit);
      ("gps_domains", str (Option.value ~default:"unset" (Sys.getenv_opt "GPS_DOMAINS")));
      ( "server_domains",
        num
          (float_of_int
             (match Option.bind (Sys.getenv_opt "GPS_DOMAINS") int_of_string_opt with
             | Some d when d >= 1 -> d
             | _ when cpus = "" -> Domain.recommended_domain_count ()
             | _ -> List.length (String.split_on_char ',' cpus))) );
    ]
  in
  (* ---- inputs, references, files: the bench's own work, untimed ---- *)
  let save name g =
    Gps.Graph.Codec.save (path name) g;
    path name
  in
  let state_dir = path "state" in
  let fresh () = if w = Session then (Wire.rm_rf state_dir) in
  let scripts_order () =
    let graphs = I.session_graphs () in
    let scripts = Array.of_list (I.scripts graphs) in
    let order = Array.of_list (Gps.Graph.Prng.shuffle (Gps.Graph.Prng.create ~seed) (List.init (Array.length scripts) Fun.id)) in
    (graphs, scripts, order)
  in
  let serve_args, probe, probe_ok, stream, graph_text, graph_for_pack, sess, rw_state =
    match w with
    | Q_hot | Q_cold ->
        let s = if w = Q_hot then I.q_hot ~seed else I.q_cold ~seed in
        let file = save "city.txt" s.I.graph in
        ( [ "--load"; "city=" ^ file ],
          s.I.lines.(0),
          (fun l -> Wire.has_member l ~key:"\"nodes\":" s.I.expected.(0)),
          Some (St.storm ~warm:(w = Q_hot) s),
          Gps.Graph.Codec.to_string s.I.graph,
          s.I.graph,
          None,
          None )
    | Rw_overlay ->
        let rw = I.rw_overlay ~seed in
        let file = path "uni.csr" in
        Gps.Graph.Disk_csr.pack_digraph rw.I.base ~path:file;
        let st = { St.rw; seed; deferred = []; applied = [] } in
        ( [ "--load"; "uni=" ^ file ],
          rw.I.rlines.(0),
          (fun l -> Wire.has_member l ~key:"\"nodes\":" (I.nodes_member rw.I.base_expected.(0))),
          Some (St.rw st),
          Gps.Graph.Codec.to_string rw.I.base,
          rw.I.base,
          None,
          Some st )
    | Session ->
        let graphs, scripts, order = scripts_order () in
        let city = List.assoc "city" graphs in
        let files = List.map (fun (n, g) -> n ^ "=" ^ save (n ^ ".txt") g) graphs in
        let probe_text = snd (List.hd Gps.Workload.Mix.paper_city_queries) in
        ( [ "--load"; String.concat "," files; "--state-dir"; state_dir ],
          I.query_line "city" probe_text,
          (fun l -> Wire.has_member l ~key:"\"nodes\":" (I.nodes_member (I.reference city probe_text))),
          None,
          Gps.Graph.Codec.to_string city,
          city,
          Some (scripts, order),
          None )
  in
  let detail extra =
    print_endline
      (Json.value_to_string
         (Json.Object
            [
              ( "perfbench",
                Json.Object
                  ([ ("workload", str !workload); ("seed", num (float_of_int seed)); ("seconds", num seconds); ("trace", num (float_of_int !trace)); ("host", Json.Object host) ]
                  @ extra) );
            ]))
  in
  if !trace = 0 then begin
    let tally = { E2e.attempted = 0; failed = 0 } in
    let srv, c0, setup_samples = E2e.start_server ~cpus ~gps ~args:serve_args ~fresh ~probe ~probe_ok in
    tally.E2e.attempted <- tally.E2e.attempted + E2e.setup_reps;
    let conns = ref [ c0 ] in
    let finish () =
      List.iter Wire.close !conns;
      Wire.stop srv
    in
    Fun.protect ~finally:finish @@ fun () ->
    (* the session workload runs one simulated user: with two, each
       user's step waits behind the other's in the server's threads and
       step latency reads how often the two collide *)
    let n_conns = if w = Session then 1 else E2e.connections ~cores in
    conns := c0 :: List.init (n_conns - 1) (fun _ -> Wire.connect srv.Wire.port);
    let conns = !conns in
    let o =
      match (stream, sess) with
      | Some stream, _ ->
          (* the saturation phase runs on every core: a throughput
             held to one core followed that core's share of the host
             and spread 0.19-0.50 of the median over ten seeds, against
             0.05-0.12 once widened *)
          let widen () =
            if !all_cpus <> "" then begin
              Wire.set_cpus ~cpus:!all_cpus srv.Wire.pid;
              Wire.set_cpus ~cpus:!all_cpus (Unix.getpid ())
            end
          in
          let o = E2e.storm ~rate:(rate w) ~seconds ~srv ~conns ~stream ~tally ~widen in
          let extra =
            match rw_state with
            | None -> []
            | Some st ->
                let probe = Wire.connect srv.Wire.port in
                let checked, bad = St.rw_verify st ~ask:(fun line -> Wire.round_trip probe line) in
                Wire.close probe;
                tally.E2e.attempted <- tally.E2e.attempted + checked;
                tally.E2e.failed <- tally.E2e.failed + bad;
                [ ("batches_applied", num (float_of_int (List.length st.St.applied))) ]
          in
          { o with E2e.extra = o.E2e.extra @ extra @ [ ("lag_bound_ms", num E2e.lag_bound_ms) ] }
      | None, Some (scripts, order) ->
          let lat, steps_per_s, questions = E2e.sessions ~seconds ~conns ~scripts ~order ~tally in
          let q = List.fold_left ( +. ) 0. questions /. float_of_int (max 1 (List.length questions)) in
          {
            E2e.p50_ms = E2e.percentile 0.5 lat;
            p99_ms = E2e.windowed_p99 lat;
            sat_rps = steps_per_s;
            peak_rss_mb = Wire.peak_rss_mb srv;
            lag_p99_ms = 0.;
            extra =
              [
                ("steps", num (float_of_int (Array.length lat)));
                ("p90_ms", num (E2e.windowed 0.90 lat));
                ("sessions", num (float_of_int (List.length questions)));
                ("questions_per_session", num q);
              ];
          }
      | None, None -> assert false
    in
    let setup_s = E2e.median setup_samples in
    let lag_ok = o.E2e.lag_p99_ms <= E2e.lag_bound_ms in
    let error_rate = float_of_int tally.E2e.failed /. float_of_int (max 1 tally.E2e.attempted) in
    detail
      ([
         ("setup_samples_s", Json.Array (List.map num setup_samples));
         ("generator_lag_p99_ms", num o.E2e.lag_p99_ms);
         ("p99_ms", num o.E2e.p99_ms);
         ("valid", Json.Bool lag_ok);
         ("error_rate", num error_rate);
         ("wall_s", num (Int64.to_float (Int64.sub (Wire.now_ns ()) started) /. 1e9));
       ]
      @ o.E2e.extra);
    print_endline
      (result_line ~correct:(tally.E2e.failed = 0 && lag_ok) ~attempted:tally.E2e.attempted ~failed:tally.E2e.failed
         (List.map
            (fun (n, u) ->
              let v =
                match n with
                | "setup_s" -> setup_s
                | "p50_ms" -> o.E2e.p50_ms
                | "sat_rps" -> o.E2e.sat_rps
                | _ -> o.E2e.peak_rss_mb
              in
              (n, v, u))
            end_to_end))
  end
  else begin
    (* the traced replay's op sequence *)
    let loads =
      match w with
      | Q_hot | Q_cold -> [ Traced.Heap ("city", path "city.txt") ]
      | Rw_overlay -> [ Traced.Packed ("uni", path "uni.csr") ]
      | Session -> [ Traced.Heap ("city", path "city.txt"); Traced.Heap ("bio", path "bio.txt") ]
    in
    let spec =
      match (stream, sess) with
      | Some s, _ ->
          let ops = match w with Q_hot -> 2000 | Q_cold -> 640 | _ -> 640 in
          { Traced.loads; state = false; ops = s.St.warm + ops; warm = s.St.warm; line = s.St.line; check = s.St.check; session_of = (fun _ -> None) }
      | None, Some (scripts, order) ->
          (* dialogs one after another on a fresh server: ids 1, 2, ... *)
          let table =
            Array.of_list
              (List.concat
                 (List.mapi
                    (fun n si ->
                      let s = scripts.(si) in
                      List.init (St.script_ops s) (fun k -> (s, n + 1, k)))
                    (Array.to_list order)))
          in
          {
            Traced.loads;
            state = true;
            ops = Array.length table;
            warm = 0;
            line = (fun i -> let s, id, k = table.(i) in St.script_line s ~id k);
            check = (fun i l -> let s, _, k = table.(i) in St.script_check s k l);
            session_of = (fun i -> Some table.(i));
          }
      | None, None -> assert false
    in
    (* wire overhead: the same ops, one at a time, over TCP to the real server *)
    fresh ();
    let srv = Wire.spawn ~gps serve_args in
    let budget = Int64.add (Wire.now_ns ()) (Int64.of_float (seconds *. 0.25 *. 1e9)) in
    let rtts = ref [] in
    Fun.protect ~finally:(fun () -> Wire.stop srv) (fun () ->
        let c = Wire.connect srv.Wire.port in
        (try
           for i = 0 to spec.Traced.ops - 1 do
             if Wire.now_ns () > budget && i >= spec.Traced.warm then raise Exit;
             let t0 = Wire.now_ns () in
             ignore (Wire.round_trip c (spec.Traced.line i));
             if i >= spec.Traced.warm then rtts := Int64.to_float (Int64.sub (Wire.now_ns ()) t0) /. 1e6 :: !rtts
           done
         with Exit -> ());
        Wire.close c);
    let deadline_ns = Int64.add started (Int64.of_float (150. *. 1e9)) in
    let r = Traced.run ~work ~spec ~graph_text ~graph_for_pack ~tcp_rtts:(Array.of_list !rtts) ~deadline_ns in
    (* workload isolation *)
    let writes = match w with Rw_overlay -> spec.Traced.ops / I.write_every | _ -> 0 in
    let isolation =
      match w with
      | Q_hot ->
          [ ("q-hot: hit ratio >= 0.95", r.Traced.hit_ratio >= 0.95); ("q-hot: no eval.runs after warm-up", r.Traced.runs_after_warm = 0) ]
      | Q_cold -> [ ("q-cold: hit ratio <= 0.05", r.Traced.hit_ratio <= 0.05) ]
      | Rw_overlay -> [ ("rw-overlay: delta invalidations >= write batches", r.Traced.delta_invalidations >= float_of_int writes) ]
      | Session -> [ ("session: every stopped dialog's journal checked", r.Traced.journals_checked = Array.length (snd (Option.get sess))) ]
    in
    let bad = List.filter (fun (_, ok) -> not ok) isolation in
    let failed = r.Traced.failed + List.length bad in
    detail
      [
        ("checks", Json.Array (List.map (fun (n, ok) -> Json.Object [ ("check", str n); ("pass", Json.Bool ok) ]) isolation));
        ("failed_checks", Json.Array (List.map str (r.Traced.failures @ List.map fst bad)));
        ("notes", Json.Array (List.map str r.Traced.notes));
        ( "recon_tolerance",
          Json.Object
            [
              ("per_request_factor", num Traced.recon_rel);
              ("per_request_abs_ns", num Traced.recon_abs_ns);
              ("max_miss_share", num Traced.recon_max_miss);
              ("max_median_ratio", num Traced.recon_median);
            ] );
        ("wall_s", num (Int64.to_float (Int64.sub (Wire.now_ns ()) started) /. 1e9));
      ];
    print_endline
      (result_line ~correct:(failed = 0) ~attempted:r.Traced.attempted ~failed
         (List.map (fun (n, v) -> (n, v, layer_unit n)) r.Traced.metrics))
  end
