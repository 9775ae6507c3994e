(* The out-of-process side: spawning `gps serve`, and the load generator.

   One bench process drives the server over at most [nproc] TCP
   connections from a single thread, as plain sockets. Open-loop runs
   give request [k] the scheduled time [t0 + k/rate]; when it is due it
   goes out on an idle connection, or waits in the client's queue until
   one frees up. Latency is measured from the scheduled time, so time
   spent queued behind a slow server counts; the generator's own
   lateness (the time it noticed the request was due minus the
   scheduled time) is recorded per request, so a run in which the
   client fell behind can be told apart from one in which the server
   did.

   In open-loop runs a connection carries one request at a time, as an
   ordinary request/response client does. The server does not set TCP_NODELAY,
   so on a connection with two requests in flight each small response
   can wait in the server's kernel for the ACK of the one before, which
   the client's delayed ACK sends only with its next request: pipelined
   clients see latency equal to their gap between requests. One request
   in flight keeps every ACK riding on the next request. *)

let now_ns = Gps.Obs.Clock.now_ns

(* index of the first occurrence of [sub] in [s] *)
let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.unsafe_get s i = String.unsafe_get sub 0 && String.sub s i m = sub then Some i
    else go (i + 1)
  in
  if m = 0 then Some 0 else go 0

(* [s] carries [sub] at the position where [key] starts *)
let has_member s ~key sub =
  match find_sub s key with
  | None -> false
  | Some i ->
      let m = String.length sub in
      i + m <= String.length s && String.sub s i m = sub

(* ------------------------------------------------------------------ *)
(* the server process *)

type server = { pid : int; port : int; err : Unix.file_descr }

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let read_file path = In_channel.with_open_bin path In_channel.input_all

let banner = "gps: serving on 127.0.0.1:"

(* Spawn [gps serve --port 0 ARGS] with stderr on a pipe; block until the
   banner names the bound port. With [cpus] (a `taskset -c` list) the
   server runs on those cores only. It inherits this process's
   environment, so it sizes its evaluation pool as shipped: GPS_DOMAINS
   when the caller sets it, else one domain per core it may run on. The
   pipe stays open (and is drained at {!stop}): the server writes a few
   lines more at most. *)
let spawn ?(cpus = "") ~gps args =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
  let serve = gps :: "serve" :: "--port" :: "0" :: args in
  let argv = if cpus = "" then serve else "taskset" :: "-c" :: cpus :: serve in
  let pid = Unix.create_process (List.hd argv) (Array.of_list argv) null null wr in
  Unix.close wr;
  Unix.close null;
  let text = Buffer.create 256 in
  let chunk = Bytes.create 4096 in
  let deadline = Unix.gettimeofday () +. 60. in
  let rec wait () =
    let seen = Buffer.contents text in
    match find_sub seen banner with
    | Some i when String.contains_from seen i '\n' ->
        let from = i + String.length banner in
        int_of_string (String.sub seen from (String.index_from seen from '\n' - from))
    | _ ->
        let left = deadline -. Unix.gettimeofday () in
        if left <= 0. then failwith "gps serve did not start within 60 s";
        (match Unix.select [ rd ] [] [] left with
        | [], _, _ -> ()
        | _ -> (
            match Unix.read rd chunk 0 (Bytes.length chunk) with
            | 0 -> failwith ("gps serve exited during start-up: " ^ seen)
            | n -> Buffer.add_subbytes text chunk 0 n));
        wait ()
  in
  let port = wait () in
  { pid; port; err = rd }

(* Let every thread of process [pid] run on [cpus] (a `taskset -c`
   list) from now on. *)
let set_cpus ~cpus pid =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
  let argv = [| "taskset"; "-a"; "-p"; "-c"; cpus; string_of_int pid |] in
  let child = Unix.create_process "taskset" argv null null Unix.stderr in
  Unix.close null;
  match Unix.waitpid [] child with
  | _, Unix.WEXITED 0 -> ()
  | _ -> failwith ("taskset could not move process " ^ string_of_int pid)

(* VmHWM: the resident-set high-water mark, in MiB *)
let peak_rss_mb s =
  let status = read_file (Printf.sprintf "/proc/%d/status" s.pid) in
  let line = List.find (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:") (String.split_on_char '\n' status) in
  let kb = Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id in
  float_of_int kb /. 1024.

(* SIGTERM starts the server's graceful drain; it exits once its
   connections are gone. SIGKILL after [grace_s]. *)
let stop ?(grace_s = 10.) s =
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. grace_s in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] s.pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.002;
        wait ()
    | 0, _ ->
        (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] s.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ();
  Unix.close s.err

(* ------------------------------------------------------------------ *)
(* connections *)

type conn = {
  fd : Unix.file_descr;
  out : Buffer.t;  (** bytes not yet handed to the kernel *)
  mutable unsent : (int * int) list;  (** (request, end offset in [out]), send order, reversed *)
  inq : int Queue.t;  (** requests awaiting a response, send order *)
  mutable partial : string;  (** bytes after the last newline read *)
}

(* A plain client socket: TCP_NODELAY on the requests, the kernel's
   default (delayed) ACKs on the responses, as any client of the server
   has. *)
let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.set_nonblock fd;
  { fd; out = Buffer.create 65536; unsent = []; inq = Queue.create (); partial = "" }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

(* Queue request [k]; the response that answers it comes back as [k]. *)
let enqueue c k line =
  Buffer.add_string c.out line;
  Buffer.add_char c.out '\n';
  c.unsent <- (k, Buffer.length c.out) :: c.unsent;
  Queue.push k c.inq

(* Write what the socket takes; [on_sent k t] for every request whose
   last byte went out. *)
let flush c ~on_sent =
  let len = Buffer.length c.out in
  if len > 0 then begin
    let bytes = Buffer.to_bytes c.out in
    let n = try Unix.write c.fd bytes 0 len with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> 0 in
    if n > 0 then begin
      let t = now_ns () in
      let still, done_ = List.partition (fun (_, e) -> e > n) c.unsent in
      List.iter (fun (k, _) -> on_sent k t) done_;
      c.unsent <- List.map (fun (k, e) -> (k, e - n)) still;
      Buffer.clear c.out;
      Buffer.add_subbytes c.out bytes n (len - n)
    end
  end

let no_stamps _ _ = ()

let chunk = Bytes.create 262144

(* Read what is there; [on_line c k line] for every complete response. *)
let drain c ~on_line =
  let rec go () =
    match Unix.read c.fd chunk 0 (Bytes.length chunk) with
    | 0 -> failwith "server closed the connection"
    | n ->
        let data = c.partial ^ Bytes.sub_string chunk 0 n in
        let lines = String.split_on_char '\n' data in
        let rec emit = function
          | [ last ] -> c.partial <- last
          | l :: rest ->
              on_line c (Queue.pop c.inq) l;
              emit rest
          | [] -> c.partial <- ""
        in
        emit lines;
        if n = Bytes.length chunk then go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  in
  go ()

(* Wait up to [timeout] seconds for a connection to become readable (or
   a pending write writable), read every complete response, then write
   what is queued — including requests [on_line] just queued. *)
let service ?(on_sent = no_stamps) conns ~timeout ~on_line =
  let rd = List.map (fun c -> c.fd) conns in
  let wr = List.filter_map (fun c -> if Buffer.length c.out > 0 then Some c.fd else None) conns in
  let r, _, _ =
    try Unix.select rd wr [] (Float.max 0. timeout) with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
  in
  List.iter (fun c -> if List.mem c.fd r then drain c ~on_line) conns;
  List.iter (fun c -> flush c ~on_sent) conns

(* ------------------------------------------------------------------ *)
(* open loop *)

type run = {
  n : int;
  sched : int64 array;
  due : int64 array;  (** when the generator found the request due *)
  sent : int64 array;  (** when its last byte went to the socket *)
  recv : int64 array;  (** -1 when no response arrived before the drain deadline *)
  ok : bool array;
  kind : int array;  (** caller-defined request class *)
}

(* Send [n] requests at [rate]/s: request [k] is [line (first + k)] of
   class [kind (first + k)], checked by [check (first + k) response]. *)
let open_loop conns ~rate ~n ~first ~line ~kind ~check ~drain_s =
  let t0 = Int64.add (now_ns ()) 2_000_000L in
  let period = 1e9 /. rate in
  let sched = Array.init n (fun k -> Int64.add t0 (Int64.of_float (float_of_int k *. period))) in
  let due = Array.make n (-1L) and sent = Array.make n (-1L) in
  let recv = Array.make n (-1L) and ok = Array.make n false in
  let kinds = Array.init n (fun k -> kind (first + k)) in
  let backlog = Queue.create () in
  let pending = ref 0 in
  let on_sent k t = sent.(k) <- t in
  let on_line _ k l =
    recv.(k) <- now_ns ();
    ok.(k) <- check (first + k) l;
    decr pending
  in
  let dispatch () =
    List.iter
      (fun c ->
        if Queue.is_empty c.inq && not (Queue.is_empty backlog) then begin
          let k = Queue.pop backlog in
          enqueue c k (line (first + k));
          flush c ~on_sent
        end)
      conns
  in
  let next = ref 0 in
  let finished = ref false in
  let drain_deadline = ref Int64.max_int in
  while not !finished do
    let t = now_ns () in
    while !next < n && sched.(!next) <= t do
      due.(!next) <- t;
      Queue.push !next backlog;
      incr pending;
      incr next
    done;
    dispatch ();
    if !next = n && !drain_deadline = Int64.max_int then
      drain_deadline := Int64.add t (Int64.of_float (drain_s *. 1e9));
    if (!next = n && !pending = 0) || t > !drain_deadline then finished := true
    else begin
      let wait =
        if !next < n then Int64.to_float (Int64.sub sched.(!next) (now_ns ())) /. 1e9
        else 0.01
      in
      service conns ~timeout:(Float.min wait 0.01) ~on_sent ~on_line
    end
  done;
  { n; sched; due; sent; recv; ok; kind = kinds }

(* Responses still owed after the drain deadline would be matched to the
   next phase's requests, so a run that leaves any must fail. *)
let settled run = Array.for_all (fun r -> r >= 0L) run.recv

let ms ns = Int64.to_float ns /. 1e6

let latencies_ms run ~kind =
  let acc = ref [] in
  for k = run.n - 1 downto 0 do
    if run.kind.(k) = kind && run.recv.(k) >= 0L then acc := ms (Int64.sub run.recv.(k) run.sched.(k)) :: !acc
  done;
  Array.of_list !acc

let service_ms run ~kind =
  let acc = ref [] in
  for k = run.n - 1 downto 0 do
    if run.kind.(k) = kind && run.recv.(k) >= 0L && run.sent.(k) >= 0L then
      acc := ms (Int64.sub run.recv.(k) run.sent.(k)) :: !acc
  done;
  Array.of_list !acc

let lags_ms run =
  Array.init run.n (fun k -> if run.due.(k) >= 0L then ms (Int64.sub run.due.(k) run.sched.(k)) else infinity)

let failures run = Array.fold_left (fun acc ok -> if ok then acc else acc + 1) 0 run.ok

(* ------------------------------------------------------------------ *)
(* saturation: keep [depth] requests outstanding on every connection for
   [duration_s]; completions are counted per [window_s] window. Returns
   (window counts, responses, failures). *)

let saturate conns ~depth ~duration_s ~window_s ~first ~line ~check =
  let next = ref first in
  let t0 = now_ns () in
  let t_end = Int64.add t0 (Int64.of_float (duration_s *. 1e9)) in
  let nwin = int_of_float (Float.ceil (duration_s /. window_s)) in
  let wins = Array.make nwin 0 in
  let done_ = ref 0 and bad = ref 0 in
  let issue c =
    enqueue c !next (line !next);
    incr next
  in
  List.iter (fun c -> for _ = 1 to depth do issue c done) conns;
  let live = ref (depth * List.length conns) in
  let on_line c k l =
    let t = now_ns () in
    decr live;
    incr done_;
    if not (check k l) then incr bad;
    let wdx = Int64.to_float (Int64.sub t t0) /. 1e9 /. window_s |> int_of_float in
    if wdx < nwin then wins.(wdx) <- wins.(wdx) + 1;
    if t < t_end then begin
      issue c;
      incr live
    end
  in
  List.iter (fun c -> flush c ~on_sent:no_stamps) conns;
  while !live > 0 do
    service conns ~timeout:1.0 ~on_line
  done;
  (Array.map (fun n -> float_of_int n /. window_s) wins, !done_, !bad, !next - first)

(* ------------------------------------------------------------------ *)
(* closed loop: one outstanding request per connection *)

(* User [u] drives connection [u]: [step u ~resp] produces its next
   request line (or [None] when done); [resp] is the previous response
   ([None] at the start). Returns per-round-trip latencies in ms. *)
let closed_loop conns ~step =
  let conns_a = Array.of_list conns in
  let lat = ref [] in
  let started = Array.make (Array.length conns_a) 0L in
  let live = ref 0 in
  let send u line =
    enqueue conns_a.(u) u line;
    started.(u) <- now_ns ();
    incr live
  in
  Array.iteri (fun u _ -> Option.iter (send u) (step u ~resp:None)) conns_a;
  let on_line _ u l =
    decr live;
    lat := ms (Int64.sub (now_ns ()) started.(u)) :: !lat;
    Option.iter (send u) (step u ~resp:(Some l))
  in
  List.iter (fun c -> flush c ~on_sent:no_stamps) conns;
  while !live > 0 do
    service conns ~timeout:1.0 ~on_line
  done;
  Array.of_list (List.rev !lat)

(* One request, one response. *)
let round_trip c line =
  let result = ref None in
  enqueue c 0 line;
  while !result = None do
    service [ c ] ~timeout:1.0 ~on_line:(fun _ _ l -> result := Some l)
  done;
  Option.get !result
