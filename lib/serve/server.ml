module Par = Ftsched_par.Par
module Rng = Ftsched_util.Rng
module Instance = Ftsched_model.Instance
module Schedule = Ftsched_schedule.Schedule
module Serialize = Ftsched_schedule.Serialize
module Scenario = Ftsched_sim.Scenario
module Crash_exec = Ftsched_sim.Crash_exec
module Stream = Ftsched_stream.Stream

type address =
  | Unix_socket of string
  | Tcp of { host : string; port : int }

type config = {
  max_frame : int;
  capacity : int;
  cache_slots : int;
  idle_timeout : float;
  drain_grace : float;
  max_tasks : int;
  max_procs : int;
  max_stream_duration : float;
  jobs : int option;
}

let default_config =
  {
    max_frame = Protocol.default_max_frame;
    capacity = 64;
    cache_slots = 256;
    idle_timeout = 30.;
    drain_grace = 5.;
    max_tasks = 20_000;
    max_procs = 512;
    max_stream_duration = 200.;
    jobs = None;
  }

(* ------------------------------------------------------------------ *)
(* Fates                                                               *)

type fate =
  | Served_fresh
  | Served_cached
  | Rejected_overloaded
  | Rejected_infeasible
  | Rejected_malformed
  | Rejected_unsupported
  | Expired
  | Failed_internal
  | Aborted_disconnect
  | Drained

let all_fates =
  [
    Served_fresh; Served_cached; Rejected_overloaded; Rejected_infeasible;
    Rejected_malformed; Rejected_unsupported; Expired; Failed_internal;
    Aborted_disconnect; Drained;
  ]

let fate_name = function
  | Served_fresh -> "served_fresh"
  | Served_cached -> "served_cached"
  | Rejected_overloaded -> "rejected_overloaded"
  | Rejected_infeasible -> "rejected_infeasible"
  | Rejected_malformed -> "rejected_malformed"
  | Rejected_unsupported -> "rejected_unsupported"
  | Expired -> "expired"
  | Failed_internal -> "failed_internal"
  | Aborted_disconnect -> "aborted_disconnect"
  | Drained -> "drained"

let fate_index = function
  | Served_fresh -> 0
  | Served_cached -> 1
  | Rejected_overloaded -> 2
  | Rejected_infeasible -> 3
  | Rejected_malformed -> 4
  | Rejected_unsupported -> 5
  | Expired -> 6
  | Failed_internal -> 7
  | Aborted_disconnect -> 8
  | Drained -> 9

type metrics = {
  uptime : float;
  connections_accepted : int;
  connections_open : int;
  frames_received : int;
  protocol_errors : int;
  info_requests : int;
  requests_accepted : int;
  queue_depth : int;
  queue_high_water : int;
  capacity : int;
  in_flight : int;
  overload_min_queue : int;
  cache_hits : int;
  cache_misses : int;
  cache_entries : int;
  fate_counts : (fate * int) list;
}

let fate_count m f = List.assoc f m.fate_counts

let check_accounting m =
  let errs = ref [] in
  let add fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let sum_fates = List.fold_left (fun a (_, n) -> a + n) 0 m.fate_counts in
  if m.requests_accepted <> sum_fates + m.queue_depth + m.in_flight then
    add
      "accounting mismatch: accepted %d <> fates %d + queued %d + in-flight %d"
      m.requests_accepted sum_fates m.queue_depth m.in_flight;
  if fate_count m Rejected_overloaded > 0 && m.overload_min_queue < m.capacity
  then
    add "overloaded reject with a non-full queue (depth %d < capacity %d)"
      m.overload_min_queue m.capacity;
  if fate_count m Served_cached <> m.cache_hits then
    add "served_cached %d disagrees with cache hits %d"
      (fate_count m Served_cached) m.cache_hits;
  if m.queue_depth > m.capacity then
    add "queue depth %d above capacity %d" m.queue_depth m.capacity;
  List.iter
    (fun (f, n) -> if n < 0 then add "negative counter %s" (fate_name f))
    m.fate_counts;
  List.rev !errs

let render_metrics m =
  let buf = Buffer.create 512 in
  let line k v = Buffer.add_string buf (Printf.sprintf "%s %s\n" k v) in
  line "uptime" (Printf.sprintf "%.6f" m.uptime);
  line "connections_accepted" (string_of_int m.connections_accepted);
  line "connections_open" (string_of_int m.connections_open);
  line "frames_received" (string_of_int m.frames_received);
  line "protocol_errors" (string_of_int m.protocol_errors);
  line "info_requests" (string_of_int m.info_requests);
  line "requests_accepted" (string_of_int m.requests_accepted);
  line "queue_depth" (string_of_int m.queue_depth);
  line "queue_high_water" (string_of_int m.queue_high_water);
  line "capacity" (string_of_int m.capacity);
  line "in_flight" (string_of_int m.in_flight);
  line "overload_min_queue"
    (if m.overload_min_queue = max_int then "none"
     else string_of_int m.overload_min_queue);
  line "cache_hits" (string_of_int m.cache_hits);
  line "cache_misses" (string_of_int m.cache_misses);
  line "cache_entries" (string_of_int m.cache_entries);
  List.iter
    (fun (f, n) -> line ("fate_" ^ fate_name f) (string_of_int n))
    m.fate_counts;
  (* no trailing blank line: drop the final newline *)
  let s = Buffer.contents buf in
  String.sub s 0 (String.length s - 1)

let accounting_line m =
  let oracle = if check_accounting m = [] then "ok" else "VIOLATED" in
  Printf.sprintf
    "ftsched-serve: drained uptime=%.3fs accepted=%d %s oracle=%s" m.uptime
    m.requests_accepted
    (String.concat " "
       (List.map
          (fun (f, n) -> Printf.sprintf "%s=%d" (fate_name f) n)
          m.fate_counts))
    oracle

(* ------------------------------------------------------------------ *)
(* Handlers: pure functions of the request, run on the Domain pool.     *)

type exec_outcome = [ `Served | `Malformed | `Unsupported | `Internal ]

let err e : string * exec_outcome =
  let outcome =
    match e with
    | Protocol.Malformed _ -> `Malformed
    | Protocol.Unsupported _ -> `Unsupported
    | _ -> `Internal
  in
  (Protocol.error_response e, outcome)

let check_instance_caps cfg ~v ~m =
  if v > cfg.max_tasks then
    Some
      (Protocol.Malformed
         (Printf.sprintf "instance has %d tasks, per-request cap is %d" v
            cfg.max_tasks))
  else if m > cfg.max_procs then
    Some
      (Protocol.Malformed
         (Printf.sprintf "instance has %d processors, per-request cap is %d" m
            cfg.max_procs))
  else None

let execute ~cfg request : string * exec_outcome =
  match request with
  | Protocol.Health | Protocol.Metrics ->
      err (Protocol.Internal "info request reached the work pool")
  | Protocol.Schedule { algo; eps; seed; body } -> (
      match Ftsched_core.Schedulers.find algo with
      | None ->
          err (Protocol.Unsupported (Printf.sprintf "unknown scheduler %S" algo))
      | Some sched -> (
          match Serialize.instance_of_string body with
          | exception (Failure msg | Invalid_argument msg) ->
              err (Protocol.Malformed msg)
          | inst -> (
              let v = Instance.n_tasks inst and m = Instance.n_procs inst in
              match check_instance_caps cfg ~v ~m with
              | Some e -> err e
              | None ->
                  if eps >= m then
                    err
                      (Protocol.Malformed
                         (Printf.sprintf "eps %d out of range (m=%d)" eps m))
                  else (
                    match sched.Ftsched_core.Schedulers.run ~seed inst ~eps with
                    (* e.g. finite costs whose sums overflow, which
                       [Schedule.create] rejects: the input's fault *)
                    | exception Invalid_argument msg ->
                        err (Protocol.Malformed msg)
                    | exception e ->
                        err (Protocol.Internal (Printexc.to_string e))
                    | s ->
                        ( Protocol.ok_response ~kind:"schedule"
                            (Serialize.schedule_to_string s),
                          `Served )))))
  | Protocol.Simulate { crashes; seed; body } -> (
      match Serialize.schedule_of_string body with
      | exception (Failure msg | Invalid_argument msg) ->
          err (Protocol.Malformed msg)
      | s -> (
          let inst = Schedule.instance s in
          let v = Instance.n_tasks inst and m = Instance.n_procs inst in
          match check_instance_caps cfg ~v ~m with
          | Some e -> err e
          | None ->
              if crashes > m then
                err
                  (Protocol.Malformed
                     (Printf.sprintf "crash count %d exceeds m=%d" crashes m))
              else (
                match
                  let scenario =
                    Scenario.random (Rng.create ~seed) ~m ~count:crashes
                  in
                  Crash_exec.run ~policy:Crash_exec.Reroute s scenario
                with
                | exception e -> err (Protocol.Internal (Printexc.to_string e))
                | r ->
                    let body =
                      match r.Crash_exec.latency with
                      | Some l -> Printf.sprintf "latency %h" l
                      | None -> "defeated"
                    in
                    (Protocol.ok_response ~kind:"simulate" body, `Served))))
  | Protocol.Stream { seed; duration; m } -> (
      if duration > cfg.max_stream_duration then
        err
          (Protocol.Malformed
             (Printf.sprintf "stream duration %g above the cap %g" duration
                cfg.max_stream_duration))
      else if m > cfg.max_procs then
        err
          (Protocol.Malformed
             (Printf.sprintf "stream platform %d above the cap %d" m
                cfg.max_procs))
      else
        let config =
          { Stream.default_config with Stream.m; duration;
            chaos = Stream.default_chaos }
        in
        match Stream.run_trace ~config ~seed () with
        | exception Invalid_argument msg -> err (Protocol.Malformed msg)
        | exception e -> err (Protocol.Internal (Printexc.to_string e))
        | r ->
            let t = r.Stream.totals in
            let body =
              Printf.sprintf
                "digest %s submitted %d admitted %d completed %d degraded %d \
                 rejected %d aborted %d"
                (Stream.report_digest r) t.Stream.submitted t.Stream.admitted
                t.Stream.completed t.Stream.degraded t.Stream.rejected
                t.Stream.aborted
            in
            (Protocol.ok_response ~kind:"stream" body, `Served))

(* ------------------------------------------------------------------ *)
(* Connections and the work queue                                      *)

type conn = {
  fd : Unix.file_descr;
  cid : int;
  reader : Protocol.reader;
  out : Buffer.t;
  mutable out_off : int;
  mutable last_active : float;
  mutable closing : bool;
}

type work = {
  w_conn : int;
  w_req : Protocol.request;
  w_payload : string;
  w_accepted : float;
  w_budget : float;
}

type t = {
  cfg : config;
  address : address;
  listen_fd : Unix.file_descr;
  actual_port : int option;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  stop_flag : bool Atomic.t;
  conns : (int, conn) Hashtbl.t;
  queue : work Queue.t;
  cache : Cache.t;
  read_buf : Bytes.t;
  started_at : float;
  mutable next_cid : int;
  mutable connections_accepted : int;
  mutable frames_received : int;
  mutable protocol_errors : int;
  mutable info_requests : int;
  mutable requests_accepted : int;
  mutable queue_high_water : int;
  mutable in_flight : int;
  mutable overload_min_queue : int;
  fates : int array;
  mutable mean_service : float;  (** EWMA per-request service time, s *)
  mutable draining : bool;
}

let record_fate t f = t.fates.(fate_index f) <- t.fates.(fate_index f) + 1

let metrics t =
  {
    uptime = Unix.gettimeofday () -. t.started_at;
    connections_accepted = t.connections_accepted;
    connections_open = Hashtbl.length t.conns;
    frames_received = t.frames_received;
    protocol_errors = t.protocol_errors;
    info_requests = t.info_requests;
    requests_accepted = t.requests_accepted;
    queue_depth = Queue.length t.queue;
    queue_high_water = t.queue_high_water;
    capacity = t.cfg.capacity;
    in_flight = t.in_flight;
    overload_min_queue = t.overload_min_queue;
    cache_hits = Cache.hits t.cache;
    cache_misses = Cache.misses t.cache;
    cache_entries = Cache.length t.cache;
    fate_counts = List.map (fun f -> (f, t.fates.(fate_index f))) all_fates;
  }

let create ?(config = default_config) address =
  if config.capacity <= 0 then invalid_arg "Server.create: capacity <= 0";
  if config.cache_slots <= 0 then invalid_arg "Server.create: cache_slots <= 0";
  if config.max_frame < 64 then invalid_arg "Server.create: max_frame < 64";
  if config.idle_timeout <= 0. then
    invalid_arg "Server.create: idle_timeout <= 0";
  if config.drain_grace < 0. then invalid_arg "Server.create: drain_grace < 0";
  let listen_fd, actual_port =
    match address with
    | Unix_socket path ->
        (* Crash-only restart: a stale socket file left by a crashed
           predecessor must not block the next start — but refuse to
           clobber anything that is not a socket. *)
        (if Sys.file_exists path then
           match (Unix.lstat path).Unix.st_kind with
           | Unix.S_SOCK -> Unix.unlink path
           | _ ->
               invalid_arg
                 (Printf.sprintf
                    "Server.create: %s exists and is not a socket" path));
        let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.set_nonblock fd;
        Unix.bind fd (Unix.ADDR_UNIX path);
        Unix.listen fd 128;
        (fd, None)
    | Tcp { host; port } ->
        let addr =
          try Unix.inet_addr_of_string host
          with Failure _ ->
            (Unix.gethostbyname host).Unix.h_addr_list.(0)
        in
        let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.setsockopt fd Unix.SO_REUSEADDR true;
        Unix.set_nonblock fd;
        Unix.bind fd (Unix.ADDR_INET (addr, port));
        Unix.listen fd 128;
        let port =
          match Unix.getsockname fd with
          | Unix.ADDR_INET (_, p) -> p
          | _ -> port
        in
        (fd, Some port)
  in
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  {
    cfg = config;
    address;
    listen_fd;
    actual_port;
    wake_r;
    wake_w;
    stop_flag = Atomic.make false;
    conns = Hashtbl.create 64;
    queue = Queue.create ();
    cache = Cache.create ~slots:config.cache_slots;
    read_buf = Bytes.create 65536;
    started_at = Unix.gettimeofday ();
    next_cid = 0;
    connections_accepted = 0;
    frames_received = 0;
    protocol_errors = 0;
    info_requests = 0;
    requests_accepted = 0;
    queue_high_water = 0;
    in_flight = 0;
    overload_min_queue = max_int;
    fates = Array.make (List.length all_fates) 0;
    mean_service = 0.005;
    draining = false;
  }

let bound_port t = t.actual_port

let stop t =
  Atomic.set t.stop_flag true;
  (* Wake the select; best-effort, and safe from a signal handler. *)
  try ignore (Unix.write t.wake_w (Bytes.of_string "x") 0 1)
  with Unix.Unix_error _ -> ()

let close_conn t conn =
  Hashtbl.remove t.conns conn.cid;
  try Unix.close conn.fd with Unix.Unix_error _ -> ()

let enqueue_response conn payload =
  Buffer.add_string conn.out (Protocol.encode_frame payload)

(* ------------------------------------------------------------------ *)
(* Frame handling                                                      *)

let now () = Unix.gettimeofday ()

let jobs_of t =
  match t.cfg.jobs with Some j -> j | None -> Par.default_jobs ()

let handle_info t conn req =
  t.info_requests <- t.info_requests + 1;
  let m = metrics t in
  match req with
  | Protocol.Health ->
      enqueue_response conn
        (Protocol.ok_response ~kind:"health"
           (Printf.sprintf "uptime %.6f queue %d open %d" m.uptime
              m.queue_depth m.connections_open))
  | Protocol.Metrics ->
      enqueue_response conn
        (Protocol.ok_response ~kind:"metrics" (render_metrics m))
  | _ -> ()

let handle_frame t conn payload =
  match Protocol.parse_request payload with
  | Error e ->
      t.protocol_errors <- t.protocol_errors + 1;
      enqueue_response conn (Protocol.error_response e)
  | Ok (req, _) when not (Protocol.is_work req) -> handle_info t conn req
  | Ok (req, budget) ->
      let queued = Queue.length t.queue in
      t.requests_accepted <- t.requests_accepted + 1;
      if queued >= t.cfg.capacity then begin
        t.overload_min_queue <- min t.overload_min_queue queued;
        record_fate t Rejected_overloaded;
        enqueue_response conn
          (Protocol.error_response
             (Protocol.Overloaded { queued; capacity = t.cfg.capacity }))
      end
      else begin
        (* Request-level residual estimate, the Admission idea one level
           up: the queue's expected residual work is its length times the
           EWMA service time; a budget below that is rejected before it
           wastes pool time. *)
        let needed =
          float_of_int (queued + 1) *. t.mean_service
          /. float_of_int (max 1 (jobs_of t))
        in
        if needed > budget then begin
          record_fate t Rejected_infeasible;
          enqueue_response conn
            (Protocol.error_response
               (Protocol.Deadline_infeasible { needed; budget }))
        end
        else begin
          Queue.push
            {
              w_conn = conn.cid;
              w_req = req;
              w_payload = payload;
              w_accepted = now ();
              w_budget = budget;
            }
            t.queue;
          t.queue_high_water <- max t.queue_high_water (Queue.length t.queue)
        end
      end

let drain_frames t conn =
  let continue = ref true in
  while !continue do
    match Protocol.reader_next conn.reader with
    | `More -> continue := false
    | `Frame payload ->
        t.frames_received <- t.frames_received + 1;
        handle_frame t conn payload
    | `Error e ->
        t.protocol_errors <- t.protocol_errors + 1;
        enqueue_response conn (Protocol.error_response e);
        conn.closing <- true;
        continue := false
  done

(* ------------------------------------------------------------------ *)
(* Work dispatch: one batch per loop iteration, on the Domain pool.    *)

let dispatch t =
  if not (Queue.is_empty t.queue) then begin
    let jobs = max 1 (jobs_of t) in
    let batch_size = min (Queue.length t.queue) (2 * jobs) in
    let batch = List.init batch_size (fun _ -> Queue.pop t.queue) in
    let t_dispatch = now () in
    let to_compute =
      List.filter_map
        (fun w ->
          match Hashtbl.find_opt t.conns w.w_conn with
          | None ->
              record_fate t Aborted_disconnect;
              None
          | Some conn ->
              let elapsed = t_dispatch -. w.w_accepted in
              if elapsed > w.w_budget then begin
                record_fate t Expired;
                enqueue_response conn
                  (Protocol.error_response
                     (Protocol.Deadline_expired
                        { elapsed; budget = w.w_budget }));
                None
              end
              else
                let digest = Digest.to_hex (Digest.string w.w_payload) in
                match Cache.find t.cache digest with
                | Some resp ->
                    record_fate t Served_cached;
                    enqueue_response conn resp;
                    None
                | None -> Some (w, digest))
        batch
    in
    if to_compute <> [] then begin
      let n = List.length to_compute in
      t.in_flight <- n;
      let t0 = now () in
      let cfg = t.cfg in
      let results =
        Par.parallel_map ?jobs:t.cfg.jobs
          (fun (w, _) -> execute ~cfg w.w_req)
          to_compute
      in
      let wall = now () -. t0 in
      t.in_flight <- 0;
      let per_request = wall *. float_of_int (min jobs n) /. float_of_int n in
      t.mean_service <- (0.7 *. t.mean_service) +. (0.3 *. per_request);
      let t_done = now () in
      List.iter2
        (fun (w, digest) (resp, outcome) ->
          (match outcome with
          | `Served -> Cache.add t.cache digest resp
          | _ -> ());
          let elapsed = t_done -. w.w_accepted in
          let resp, fate =
            match outcome with
            | `Served when elapsed > w.w_budget ->
                ( Protocol.error_response
                    (Protocol.Deadline_expired
                       { elapsed; budget = w.w_budget }),
                  Expired )
            | `Served -> (resp, Served_fresh)
            | `Malformed -> (resp, Rejected_malformed)
            | `Unsupported -> (resp, Rejected_unsupported)
            | `Internal -> (resp, Failed_internal)
          in
          match Hashtbl.find_opt t.conns w.w_conn with
          | None -> record_fate t Aborted_disconnect
          | Some conn ->
              record_fate t fate;
              enqueue_response conn resp)
        to_compute results
    end
  end

(* ------------------------------------------------------------------ *)
(* I/O                                                                 *)

let handle_read t conn =
  match Unix.read conn.fd t.read_buf 0 (Bytes.length t.read_buf) with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    ->
      ()
  | exception Unix.Unix_error (_, _, _) -> close_conn t conn
  | 0 -> close_conn t conn
  | n ->
      conn.last_active <- now ();
      Protocol.reader_feed conn.reader t.read_buf n;
      drain_frames t conn

let handle_write t conn =
  let pending = Buffer.length conn.out - conn.out_off in
  if pending > 0 then begin
    match
      Unix.write_substring conn.fd (Buffer.contents conn.out) conn.out_off
        pending
    with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        ()
    | exception Unix.Unix_error (_, _, _) ->
        (* EPIPE / ECONNRESET: the peer is gone.  Already-enqueued
           responses keep their fates — the server did its part. *)
        close_conn t conn
    | n ->
        conn.out_off <- conn.out_off + n;
        conn.last_active <- now ();
        if conn.out_off = Buffer.length conn.out then begin
          Buffer.clear conn.out;
          conn.out_off <- 0;
          if conn.closing then close_conn t conn
        end
  end
  else if conn.closing then close_conn t conn

let accept_loop t =
  let continue = ref true in
  while !continue do
    match Unix.accept ~cloexec:true t.listen_fd with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        continue := false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error (_, _, _) -> continue := false
    | fd, _ ->
        Unix.set_nonblock fd;
        t.connections_accepted <- t.connections_accepted + 1;
        let cid = t.next_cid in
        t.next_cid <- t.next_cid + 1;
        Hashtbl.replace t.conns cid
          {
            fd;
            cid;
            reader = Protocol.create_reader ~max_frame:t.cfg.max_frame ();
            out = Buffer.create 1024;
            out_off = 0;
            last_active = now ();
            closing = false;
          }
  done

let reap_idle t =
  let deadline = now () -. t.cfg.idle_timeout in
  let victims =
    Hashtbl.fold
      (fun _ conn acc ->
        if conn.last_active < deadline && Buffer.length conn.out = conn.out_off
        then conn :: acc
        else acc)
      t.conns []
  in
  List.iter (close_conn t) victims

let conns_list t = Hashtbl.fold (fun _ c acc -> c :: acc) t.conns []

let drain_wake_pipe t =
  let b = Bytes.create 64 in
  let rec go () =
    match Unix.read t.wake_r b 0 64 with
    | exception Unix.Unix_error _ -> ()
    | 0 -> ()
    | _ -> go ()
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Main loop, drain, shutdown                                          *)

let flush_all t ~deadline =
  let rec go () =
    let pending =
      List.filter
        (fun c -> Buffer.length c.out - c.out_off > 0)
        (conns_list t)
    in
    if pending <> [] && now () < deadline then begin
      let wfds = List.map (fun c -> c.fd) pending in
      (match Unix.select [] wfds [] 0.05 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | _, ws, _ ->
          List.iter
            (fun c -> if List.memq c.fd ws then handle_write t c)
            pending);
      go ()
    end
  in
  go ()

let drain t =
  t.draining <- true;
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (match t.address with
  | Unix_socket path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | Tcp _ -> ());
  let deadline = now () +. t.cfg.drain_grace in
  (* Finish what the grace period allows... *)
  while (not (Queue.is_empty t.queue)) && now () < deadline do
    dispatch t
  done;
  (* ...and abandon the rest with a typed response. *)
  while not (Queue.is_empty t.queue) do
    let w = Queue.pop t.queue in
    match Hashtbl.find_opt t.conns w.w_conn with
    | None -> record_fate t Aborted_disconnect
    | Some conn ->
        record_fate t Drained;
        enqueue_response conn (Protocol.error_response Protocol.Draining)
  done;
  flush_all t ~deadline:(now () +. Float.max 1. t.cfg.drain_grace);
  List.iter (close_conn t) (conns_list t);
  (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
  try Unix.close t.wake_w with Unix.Unix_error _ -> ()

let serve t =
  let previous_sigpipe =
    try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore)
    with Invalid_argument _ | Sys_error _ -> None
  in
  Fun.protect
    ~finally:(fun () ->
      match previous_sigpipe with
      | Some b -> ( try Sys.set_signal Sys.sigpipe b with _ -> ())
      | None -> ())
    (fun () ->
      while not (Atomic.get t.stop_flag) do
        let conns = conns_list t in
        let rfds = t.listen_fd :: t.wake_r :: List.map (fun c -> c.fd) conns in
        let wfds =
          List.filter_map
            (fun c ->
              if Buffer.length c.out - c.out_off > 0 || c.closing then
                Some c.fd
              else None)
            conns
        in
        (match Unix.select rfds wfds [] 0.25 with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | rs, ws, _ ->
            if List.memq t.wake_r rs then drain_wake_pipe t;
            if List.memq t.listen_fd rs then accept_loop t;
            List.iter
              (fun c ->
                if List.memq c.fd rs && Hashtbl.mem t.conns c.cid then
                  handle_read t c)
              conns;
            List.iter
              (fun c ->
                if List.memq c.fd ws && Hashtbl.mem t.conns c.cid then
                  handle_write t c)
              conns);
        dispatch t;
        reap_idle t
      done;
      drain t;
      metrics t)
