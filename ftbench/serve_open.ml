(* serve-open: the online path a user waits on.

   The daemon ([Server] with one Domain-pool worker, queue capacity 4096,
   no client budgets) runs in a process of its own on a Unix socket, as a
   deployed [ftsched serve] does; the benchmark drives one connection to
   it, so a run keeps two threads busy.  The two processes share no heap,
   so a collection in one never stops the other.

   Request mix: 60% cold [schedule] (a 90-instance pool, a distinct
   scheduler seed per request, FTSA or MC-FTSA), 20% hot [schedule] (16
   other instances, primed into the LRU during set-up), 10% [simulate] (16
   pre-serialized FTSA plans), 10% [stream] (duration 50, m = 8).  Cold and
   hot requests take the same layers for different work (compute versus
   cache read), so a change that helps one and hurts the other shows.

   Traffic is a pattern of 150 requests (the exact mix in a seeded order,
   with stratified exponential gaps) played several times over; each
   replay renumbers the scheduler seeds, so it misses the cache yet costs
   the same.  The payload pools are the same for every seed, like a
   reference workload, and a pattern sends every cold instance once: the
   seed draws the order, the gaps, and with them the scheduler, simulate
   and stream seeds and which algorithm each instance gets, so seeds
   differ in traffic, not in how much work the traffic holds.  Afterwards
   every request is recomputed in-process through the same library calls
   the daemon makes, which checks each response byte for byte.

   The end-to-end run times what the daemon spends on each request, on
   its CPU clock: requests sent one at a time give the service time of
   each, and requests kept eight deep give the daemon's capacity.  The
   traced run plays the pattern as an open loop with Poisson arrivals at
   fixed rates, as independent users would, so a slow server faces the
   same offered load and its queue grows; every request is timed from
   when it was due, not when it was sent, so a stall is charged to every
   request it delays.  Those latencies are wall-clock time, which moves
   with whatever else the CPUs run (with other processes contending for
   them, ten runs at [rate_lo] spread by 26% at p50 and 35% at p90), so
   they and the [max_rps] search are per-layer figures. *)

module Server = Ftsched_serve.Server
module Protocol = Ftsched_serve.Protocol
module Workload = Ftsched_exp.Workload
module Instance = Ftsched_model.Instance
module Schedule = Ftsched_schedule.Schedule
module Serialize = Ftsched_schedule.Serialize
module Ftsa = Ftsched_core.Ftsa
module Mc_ftsa = Ftsched_core.Mc_ftsa
module Crash_exec = Ftsched_sim.Crash_exec
module Scenario = Ftsched_sim.Scenario
module Stream = Ftsched_stream.Stream
module Rng = Ftsched_util.Rng
module Par = Ftsched_par.Par

let name = "serve-open"

(* Offered loads in requests/s, frozen at about 25% and 70% of the
   [serve.max_rps] measured when the benchmark was introduced (178 req/s),
   so every later commit is measured at the same load. *)
let rate_lo = 45.
let rate_hi = 125.

(* The tail-latency limit behind [serve.max_rps], searched by bisection in
   log space over [max_rps_range]. *)
let p99_limit_ms = 25.
let max_rps_range = (40., 320.)
let stream_duration = 50.
let stream_m = 8

type kind = Cold | Hot | Simulate | Stream_req

let kinds = [ Cold; Hot; Simulate; Stream_req ]

let kind_name = function
  | Cold -> "cold"
  | Hot -> "hot"
  | Simulate -> "simulate"
  | Stream_req -> "stream"

(* ------------------------------------------------------------------ *)
(* Matching responses to requests                                      *)

(* The daemon answers LRU hits as soon as it pops them, ahead of cold
   results of the same batch, so responses on one connection can arrive
   out of order; every other response keeps request order.  A response is
   matched to the earliest outstanding hot request whose primed bytes it
   equals, and otherwise to the earliest outstanding other request.  Hot
   instances are disjoint from every other payload, so no other response
   can equal a primed one. *)
module Matcher = struct
  type t = { mutable hot : (int * string) list; other : int Queue.t }

  let create () = { hot = []; other = Queue.create () }

  let sent t ~id ~expect =
    match expect with
    | Some bytes -> t.hot <- t.hot @ [ (id, bytes) ]
    | None -> Queue.push id t.other

  let receive t response =
    let rec take acc = function
      | [] -> None
      | (id, bytes) :: rest when String.equal bytes response ->
          t.hot <- List.rev_append acc rest;
          Some id
      | x :: rest -> take (x :: acc) rest
    in
    match take [] t.hot with
    | Some id -> Some id
    | None -> Queue.take_opt t.other

  let outstanding t = List.length t.hot + Queue.length t.other
end

(* ------------------------------------------------------------------ *)
(* Payloads                                                            *)

type pools = {
  cold : string array;  (** instance documents *)
  hot : string array;  (** full request payloads *)
  plans : (string * int) array;  (** FTSA plan documents and their epsilon *)
  mutable primed : string array;  (** the daemon's responses to [hot] *)
}

let line req = Protocol.request_line req ~budget:infinity

(* Cold instances, hot instances and simulate plans: the full pattern's
   90 cold and 15 simulate slots take every cold instance once and all
   but one plan. *)
let pool_sizes ~quick = if quick then (8, 2, 2) else (90, 16, 16)

(* The seed the payload pools are generated from, whatever the run's
   seed. *)
let pool_seed = 2008

(* Requests in one traffic pattern: large enough that the queueing one
   seed's arrival order causes is close to another's. *)
let pattern_size ~quick = if quick then 5 else 150

(* Pool entry [i] of [n] has a task count rising evenly over [40, 150]
   and alternates m = 8 and m = 20, so a pattern that takes evenly spaced
   entries holds the same size mix for every seed. *)
let make_pools ~quick =
  let n_cold, n_hot, n_plans = pool_sizes ~quick in
  let instance ~first ~n i =
    let v = 40 + (i * 110 / max 1 (n - 1)) in
    let spec =
      {
        Workload.paper with
        Workload.n_procs = (if i mod 2 = 0 then 8 else 20);
        tasks_lo = v;
        tasks_hi = v;
      }
    in
    let index = first + i in
    Trace.span ~req:index ~layer:"dag" ~name:"generate" (fun () ->
        Workload.instance spec ~master_seed:pool_seed ~granularity:1.0 ~index)
  in
  let cold =
    Array.init n_cold (fun i ->
        Serialize.instance_to_string (instance ~first:0 ~n:n_cold i))
  in
  let hot =
    Array.init n_hot (fun k ->
        let index = n_cold + k in
        let body = Serialize.instance_to_string (instance ~first:n_cold ~n:n_hot k) in
        line (Protocol.Schedule { algo = "ftsa"; eps = 1; seed = index; body = "" })
        ^ "\n" ^ body)
  in
  (* epsilon alternates every two plans, so each m has both *)
  let plans =
    Array.init n_plans (fun j ->
        let eps = 1 + (j / 2 mod 2) in
        let inst = instance ~first:(n_cold + n_hot) ~n:n_plans j in
        (Serialize.schedule_to_string (Ftsa.schedule ~seed:j inst ~eps), eps))
  in
  { cold; hot; plans; primed = [||] }

(* What one request of a traffic pattern asks for. *)
type slot =
  | Cold_slot of { body : int; algo : string; eps : int }
  | Hot_slot of int
  | Simulate_slot of int
  | Stream_slot

(* A request: its slot and sequence number; the payload is built from the
   pools when it is sent or replayed, so a run holds no copies. *)
type request = {
  slot : slot;
  seq : int;
  expect : string option;  (** hot requests: the primed response *)
}

let kind_of r =
  match r.slot with
  | Cold_slot _ -> Cold
  | Hot_slot _ -> Hot
  | Simulate_slot _ -> Simulate
  | Stream_slot -> Stream_req

(* A traffic pattern: [n] slots in exactly the 60/20/10/10 mix, in a
   seeded order, and the exponential gaps after each at one request per
   second (scaled by the rate).  Cold slots take evenly spaced pool
   entries and cycle through every (m, scheduler, epsilon) combination;
   simulate slots take evenly spaced plans; the seed shifts where the
   spacing starts. *)
let pattern ~quick ~seed ~phase ~n =
  let n_cold, n_hot, n_plans = pool_sizes ~quick in
  let rng = Rng.create ~seed:(seed + (1009 * phase)) in
  let share p = max 1 (n * p / 100) in
  let kinds =
    Array.concat
      [
        Array.make (share 20) Hot;
        Array.make (share 10) Simulate;
        Array.make (share 10) Stream_req;
      ]
  in
  let kinds = Array.append kinds (Array.make (n - Array.length kinds) Cold) in
  Rng.shuffle rng kinds;
  let count k = Array.fold_left (fun a x -> if x = k then a + 1 else a) 0 kinds in
  (* the [j]th of [slots] picks from a pool whose entries alternate
     m = 8 / m = 20: even picks take even entries and odd picks odd ones,
     evenly spaced within each class *)
  let spaced ~pool ~slots j =
    let half = pool / 2 and per_class = max 1 ((slots + 1) / 2) in
    (2 * ((((j / 2) * half / per_class) + seed) mod half)) + (j mod 2)
  in
  let n_cold_slots = count Cold and n_sim_slots = count Simulate in
  let turn = Hashtbl.create 4 in
  let next k =
    let j = Option.value (Hashtbl.find_opt turn k) ~default:0 in
    Hashtbl.replace turn k (j + 1);
    j
  in
  let slots =
    Array.map
      (function
        | Cold ->
            let j = next Cold in
            Cold_slot
              {
                body = spaced ~pool:n_cold ~slots:n_cold_slots j;
                algo = (if j / 2 mod 2 = 0 then "ftsa" else "mc-ftsa");
                eps = 1 + (j / 4 mod 2);
              }
        | Hot -> Hot_slot (next Hot mod n_hot)
        | Simulate -> Simulate_slot (spaced ~pool:n_plans ~slots:n_sim_slots (next Simulate))
        | Stream_req -> Stream_slot)
      kinds
  in
  (* exponential gaps of mean 1, stratified: the quantiles at (i + 1/2) / n,
     in a seeded order, so every pattern holds the same gaps *)
  let gaps = Array.init n (fun i -> -.log (1. -. ((float_of_int i +. 0.5) /. float_of_int n))) in
  Rng.shuffle rng gaps;
  (slots, gaps)

(* The request for a slot.  [seq] is unique over the run, so every cold,
   simulate and stream request misses the cache. *)
let request pools ~seq slot =
  let expect = match slot with Hot_slot k -> Some pools.primed.(k) | _ -> None in
  { slot; seq; expect }

let payload pools r =
  match r.slot with
  | Cold_slot { body; algo; eps } ->
      line (Protocol.Schedule { algo; eps; seed = r.seq; body = "" })
      ^ "\n" ^ pools.cold.(body)
  | Hot_slot k -> pools.hot.(k)
  | Simulate_slot j ->
      let body, eps = pools.plans.(j) in
      line (Protocol.Simulate { crashes = eps; seed = r.seq; body = "" }) ^ "\n" ^ body
  | Stream_slot ->
      line (Protocol.Stream { seed = r.seq; duration = stream_duration; m = stream_m })

(* Replays [first .. first + count - 1] of a pattern, renumbered. *)
let replays pools slots ~phase ~first ~count =
  let n = Array.length slots in
  Array.init (count * n) (fun i ->
      request pools ~seq:((phase * 1_000_000) + (first * n) + i) slots.(i mod n))

(* ------------------------------------------------------------------ *)
(* The client connection                                               *)

type conn = {
  fd : Unix.file_descr;
  reader : Protocol.reader;
  inbuf : Bytes.t;
  pending : string Queue.t;  (** frames not yet fully written *)
  mutable written : int;  (** bytes of the head frame already written *)
}

let connect sock =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  Unix.set_nonblock fd;
  {
    fd;
    reader = Protocol.create_reader ();
    inbuf = Bytes.create 65536;
    pending = Queue.create ();
    written = 0;
  }

let rec flush c =
  match Queue.peek_opt c.pending with
  | None -> ()
  | Some frame -> (
      let left = String.length frame - c.written in
      match Unix.write_substring c.fd frame c.written left with
      | exception
          Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
          ()
      | n when n = left ->
          ignore (Queue.pop c.pending);
          c.written <- 0;
          flush c
      | n -> c.written <- c.written + n)

let send c payload =
  let frame =
    Trace.span ~layer:"serve" ~name:"frame_encode" (fun () ->
        Protocol.encode_frame payload)
  in
  Queue.push frame c.pending;
  flush c

(* Wait up to [timeout] seconds for the socket; hand every complete
   response frame to [on_frame] with its arrival time. *)
let pump c ~timeout on_frame =
  let writing = not (Queue.is_empty c.pending) in
  match
    Unix.select [ c.fd ] (if writing then [ c.fd ] else []) [] (Float.max 0. timeout)
  with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | readable, writable, _ ->
      if writable <> [] then flush c;
      if readable <> [] then
        match Unix.read c.fd c.inbuf 0 (Bytes.length c.inbuf) with
        | exception
            Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
            ()
        | 0 -> failwith "server closed the connection"
        | n ->
            let arrived = Trace.now () in
            Protocol.reader_feed c.reader c.inbuf n;
            let rec frames () =
              let t0 = Trace.cpu_ns () in
              match Protocol.reader_next c.reader with
              | `Frame payload ->
                  if !Trace.enabled then
                    Trace.add ~layer:"serve" ~name:"frame_decode"
                      ~start_ns:(Int64.of_int t0) ~end_ns:(Int64.of_int (Trace.cpu_ns ()));
                  on_frame payload arrived;
                  frames ()
              | `More -> ()
              | `Error e ->
                  failwith (Format.asprintf "protocol error: %a" Protocol.pp_error e)
            in
            frames ()

let stall_limit = 20.

type sample = {
  req : request;
  mutable due : float;  (** when it was due; its send time in a closed loop *)
  mutable sent : float;
  mutable arrived : float;
  mutable digest : Digest.t;  (** of the response *)
  mutable head : string;  (** the response's first bytes *)
  mutable backlog : int;  (** requests outstanding when it was sent *)
}

(* Drive [reqs] through the connection: at fixed [`Due] instants (open
   loop), or keeping [`Window w] requests outstanding (closed loop).
   Returns when every request has its response; [on_response] also sees
   each response in full. *)
let drive ?(on_response = fun _ _ -> ()) c pools reqs ~schedule =
  let n = Array.length reqs in
  let matcher = Matcher.create () in
  let samples =
    Array.map
      (fun req ->
        {
          req;
          due = nan;
          sent = nan;
          arrived = nan;
          digest = "";
          head = "";
          backlog = 0;
        })
      reqs
  in
  let next = ref 0 and received = ref 0 in
  let last_progress = ref (Trace.now ()) in
  let on_frame payload arrived =
    match Matcher.receive matcher payload with
    | Some i ->
        samples.(i).arrived <- arrived;
        samples.(i).digest <- Digest.string payload;
        samples.(i).head <- String.sub payload 0 (min 256 (String.length payload));
        on_response i payload;
        incr received;
        last_progress := arrived
    | None -> failwith "a response arrived with no request outstanding"
  in
  while !received < n do
    let now = Trace.now () in
    let ready, wait =
      match schedule with
      | `Due due ->
          if !next < n && due.(!next) <= now then (true, 0.)
          else (false, if !next < n then due.(!next) -. now else 0.5)
      | `Window w -> (!next < n && Matcher.outstanding matcher < w, 0.5)
    in
    if ready then begin
      let i = !next in
      let s = samples.(i) in
      s.sent <- now;
      s.due <- (match schedule with `Due due -> due.(i) | `Window _ -> now);
      s.backlog <- Matcher.outstanding matcher;
      Matcher.sent matcher ~id:i ~expect:s.req.expect;
      send c (payload pools s.req);
      incr next
    end
    else begin
      pump c ~timeout:wait on_frame;
      if Trace.now () -. !last_progress > stall_limit then
        failwith
          (Printf.sprintf "no response for %.0f s (%d of %d answered)" stall_limit
             !received n)
    end
  done;
  samples

(* Open loop: request [i] is due [gaps.(i mod n) / rate] after request
   [i - 1]. *)
let open_loop c pools ~gaps ~rate reqs =
  let n = Array.length gaps in
  let due = Array.make (Array.length reqs) 0. in
  let t = ref (Trace.now () +. 0.005) in
  Array.iteri
    (fun i _ ->
      due.(i) <- !t;
      t := !t +. (gaps.(i mod n) /. rate))
    reqs;
  drive c pools reqs ~schedule:(`Due due)

let latency_ms s = 1e3 *. (s.arrived -. s.due)

let percentile_ms samples p =
  Option.value ~default:0.
    (Stats.percentile (Array.of_list (List.map latency_ms samples)) p)

(* ------------------------------------------------------------------ *)
(* Recomputing the daemon's work in-process                            *)

type replayed = {
  algo : string;  (** schedule requests: the scheduler *)
  tasks : int;  (** schedule requests: instance size *)
  doc_bytes : int;  (** schedule requests: serialized plan size *)
  compute_s : float;  (** everything the daemon computes for the request *)
  stream_stats : (int * int * int * int) option;
      (** submitted, admitted, shadow hits, shadow stale *)
}

(* A workspace has one owner, so each domain warm-starts FTSA from its own,
   as the daemon's pool workers do. *)
let workspace = Domain.DLS.new_key (fun () -> Ftsched_kernel.Driver.workspace ())

(* Recompute a request as the daemon does and compare with its response;
   [errs] collects what does not match.  Safe to run on several domains
   while tracing is off. *)
let replay pools errs (s : sample) =
  let span layer name f = Trace.span ~layer ~name f in
  let none =
    {
      algo = "";
      tasks = 0;
      doc_bytes = 0;
      compute_s = 0.;
      stream_stats = None;
    }
  in
  let expect kind body =
    if Digest.string (Protocol.ok_response ~kind body) <> s.digest then
      Harness.err errs "%s response differs from the in-process result"
        (kind_name (kind_of s.req))
  in
  let t0 = Trace.cpu_now () in
  match Protocol.parse_request (payload pools s.req) with
  | Error e ->
      Harness.err errs "bad request: %s" (Format.asprintf "%a" Protocol.pp_error e);
      none
  | Ok (Protocol.Schedule { algo; eps; seed; body }, _) ->
      let inst = span "schedule" "parse" (fun () -> Serialize.instance_of_string body) in
      let plan =
        if algo = "ftsa" then
          span "kernel" "ftsa" (fun () ->
              Ftsa.schedule ~seed ~workspace:(Domain.DLS.get workspace) inst ~eps)
        else span "kernel" "mc_ftsa" (fun () -> Mc_ftsa.schedule ~seed inst ~eps)
      in
      Harness.check_plan errs ~what:algo plan;
      let doc = span "schedule" "serialize" (fun () -> Serialize.schedule_to_string plan) in
      let t1 = Trace.cpu_now () in
      expect "schedule" doc;
      {
        none with
        algo;
        tasks = Instance.n_tasks inst;
        doc_bytes = String.length doc;
        compute_s = t1 -. t0;
      }
  | Ok (Protocol.Simulate { crashes; seed; body }, _) ->
      let plan = span "schedule" "parse" (fun () -> Serialize.schedule_of_string body) in
      let m = Instance.n_procs (Schedule.instance plan) in
      let r =
        span "sim" "crash_exec" (fun () ->
            Crash_exec.run ~policy:Crash_exec.Reroute plan
              (Scenario.random (Rng.create ~seed) ~m ~count:crashes))
      in
      let t1 = Trace.cpu_now () in
      (match r.Crash_exec.latency with
      | Some l ->
          if l > Schedule.latency_upper_bound plan then
            Harness.err errs "simulate: latency %h above M" l;
          expect "simulate" (Printf.sprintf "latency %h" l)
      | None ->
          Harness.err errs "simulate: plan defeated by %d crashes under reroute" crashes);
      { none with compute_s = t1 -. t0 }
  | Ok (Protocol.Stream { seed; duration; m }, _) ->
      let config =
        { Stream.default_config with Stream.m; duration; chaos = Stream.default_chaos }
      in
      let r = span "stream" "run_trace" (fun () -> Stream.run_trace ~config ~seed ()) in
      let t1 = Trace.cpu_now () in
      List.iter (fun p -> Harness.err errs "stream oracle: %s" p) (Stream.check_report r);
      (* the body must carry the in-process report's digest unchanged *)
      let prefix = Printf.sprintf "ok stream\ndigest %s " (Stream.report_digest r) in
      if not (String.starts_with ~prefix s.head) then
        Harness.err errs "stream response differs from the in-process result";
      let t = r.Stream.totals in
      {
        none with
        compute_s = t1 -. t0;
        stream_stats =
          Some
            (t.Stream.submitted, t.Stream.admitted, t.Stream.shadow_hits, t.Stream.shadow_stale);
      }
  | Ok ((Protocol.Health | Protocol.Metrics), _) -> none

let classify errs s =
  match Protocol.classify_response s.head with
  | `Ok _ -> ()
  | `Error (code, detail) -> Harness.err errs "error %s: %s" code detail
  | `Junk -> Harness.err errs "junk response"

(* Every response must be [ok] and equal the in-process result. *)
let check ?(jobs = 1) pools checks samples =
  Par.parallel_map ~jobs
    (fun s ->
      let errs = Harness.errors () in
      classify errs s;
      ignore (replay pools errs s);
      errs)
    (Array.to_list samples)
  |> List.iter (Harness.count checks)

(* In-process rounds of the daemon's stages over its whole pools.  A cold
   round parses every cold instance, plans it with FTSA and with MC-FTSA
   (each validated) and serializes both plans; a simulate round replays
   every plan under [scenarios] crash scenarios.  Each round is timed at
   the reference speed, and every round of a kind does the same work, so
   a run reports the median over its rounds.  Returns, per cold round,
   the mean milliseconds of an FTSA plan, an MC-FTSA plan and the io of
   one schedule request, and per simulate round that of a Crash_exec
   run. *)
let rounds = 3
let scenarios = 12

type stages = {
  ftsa_ms : float list;
  mc_ms : float list;
  io_ms : float list;
  sim_ms : float list;
}

let stage_pass pace pools checks =
  let timed = Harness.cpu in
  let indices n = Array.init n Fun.id in
  let paced_rounds n run =
    List.init rounds (fun _ ->
        let xs, _, k = Pace.timed pace (fun () -> Array.map run (indices n)) in
        (xs, k))
  in
  let cold =
    paced_rounds (Array.length pools.cold) (fun i ->
        let eps = 1 + (i / 2 mod 2) in
        let inst, parse = timed (fun () -> Serialize.instance_of_string pools.cold.(i)) in
        let plan_with what schedule =
          let s, t =
            timed (fun () ->
                let s = schedule () in
                let errs = Harness.errors () in
                Harness.check_plan errs ~what s;
                Harness.count checks errs;
                s)
          in
          (t, snd (timed (fun () -> Serialize.schedule_to_string s)))
        in
        let ftsa, ser1 =
          plan_with "ftsa" (fun () ->
              Ftsa.schedule ~seed:i ~workspace:(Domain.DLS.get workspace) inst ~eps)
        in
        let mc, ser2 = plan_with "mc-ftsa" (fun () -> Mc_ftsa.schedule ~seed:i inst ~eps) in
        (ftsa, mc, parse +. ((ser1 +. ser2) /. 2.)))
  in
  let plans = Array.map (fun (doc, eps) -> (Serialize.schedule_of_string doc, eps)) pools.plans in
  let sims =
    paced_rounds (scenarios * Array.length plans) (fun k ->
        let plan, eps = plans.(k mod Array.length plans) in
        let m = Instance.n_procs (Schedule.instance plan) in
        snd
          (timed (fun () ->
               Crash_exec.run ~policy:Crash_exec.Reroute plan
                 (Scenario.random (Rng.create ~seed:k) ~m ~count:eps))))
  in
  let mean_ms f slices =
    List.map (fun (xs, k) -> 1e3 *. k *. Harness.mean_of f xs) slices
  in
  {
    ftsa_ms = mean_ms (fun (t, _, _) -> t) cold;
    mc_ms = mean_ms (fun (_, t, _) -> t) cold;
    io_ms = mean_ms (fun (_, _, t) -> t) cold;
    sim_ms = mean_ms Fun.id sims;
  }

(* ------------------------------------------------------------------ *)
(* The daemon process                                                  *)

(* What the daemon reports when it has drained. *)
type daemon_report = {
  problems : string list;  (** [Server.check_accounting] findings *)
  cache_hits : int;
  cache_misses : int;
  queue_high_water : int;
  served : int;  (** requests answered, from cache or computed *)
  daemon_rss_mb : float;  (** the daemon's [VmHWM] *)
  daemon_gc : Harness.gc_mark;  (** the daemon's collector counters *)
}

(* The daemon's side ([main.exe serve-child SOCK]): serve until its stdin
   closes, which the benchmark does to stop it and which also happens if
   the benchmark dies, then drain and report on stdout.  A "cpu" line on
   stdin is answered with the process's CPU seconds so far, every thread's
   (getrusage), which, like the thread clock, leaves out steal. *)
let child_main sock =
  let server =
    Server.create
      ~config:{ Server.default_config with Server.jobs = Some 1; capacity = 4096 }
      (Server.Unix_socket sock)
  in
  let watch () =
    (try
       while true do
         if input_line stdin = "cpu" then begin
           let t = Unix.times () in
           Printf.printf "cpu %h\n%!" (t.Unix.tms_utime +. t.Unix.tms_stime)
         end
       done
     with End_of_file | Sys_error _ -> ());
    Server.stop server
  in
  ignore (Thread.create watch ());
  print_endline "ready";
  let m = Server.serve server in
  List.iter (Printf.printf "problem %s\n") (Server.check_accounting m);
  Printf.printf "cache %d %d %d\n" m.Server.cache_hits m.Server.cache_misses
    m.Server.queue_high_water;
  Printf.printf "rss %h\n" (Report.peak_rss_mb ());
  let g = Harness.gc_mark () in
  Printf.printf "gc %h %h %d\n" g.Harness.minor g.Harness.promoted g.Harness.majors;
  exit 0

type daemon = { pid : int; to_child : out_channel; from_child : in_channel }

(* Start the daemon on [sock]; returns once it listens. *)
let spawn sock =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let pid = Unix.create_process exe [| exe; "serve-child"; sock |] in_r out_w Unix.stderr in
  Unix.close in_r;
  Unix.close out_w;
  let d =
    { pid; to_child = Unix.out_channel_of_descr in_w; from_child = Unix.in_channel_of_descr out_r }
  in
  match input_line d.from_child with
  | "ready" -> d
  | line -> failwith ("daemon: unexpected " ^ line)
  | exception End_of_file -> failwith "daemon exited before listening"

(* The daemon's CPU seconds so far. *)
let daemon_cpu d =
  output_string d.to_child "cpu\n";
  Stdlib.flush d.to_child;
  match input_line d.from_child with
  | line -> Scanf.sscanf line "cpu %h" Fun.id
  | exception End_of_file -> failwith "daemon exited while running"

(* Stop the daemon and wait for it. *)
let finish d =
  close_out d.to_child;
  let rec lines acc =
    match input_line d.from_child with
    | line -> lines (line :: acc)
    | exception End_of_file -> List.rev acc
  in
  let lines = lines [] in
  close_in d.from_child;
  let status = snd (Unix.waitpid [] d.pid) in
  let r =
    List.fold_left
      (fun r line ->
        match String.index_opt line ' ' with
        | None -> r
        | Some i -> (
            let rest = String.sub line (i + 1) (String.length line - i - 1) in
            match String.sub line 0 i with
            | "problem" -> { r with problems = r.problems @ [ rest ] }
            | "cache" ->
                Scanf.sscanf rest "%d %d %d" (fun h m q ->
                    {
                      r with
                      cache_hits = h;
                      cache_misses = m;
                      queue_high_water = q;
                      served = h + m;
                    })
            | "rss" -> { r with daemon_rss_mb = float_of_string rest }
            | "gc" ->
                Scanf.sscanf rest "%h %h %d" (fun minor promoted majors ->
                    { r with daemon_gc = { Harness.minor; promoted; majors } })
            | _ -> r))
      {
        problems = [];
        cache_hits = 0;
        cache_misses = 0;
        queue_high_water = 0;
        served = 0;
        daemon_rss_mb = nan;
        daemon_gc = { Harness.minor = 0.; promoted = 0.; majors = 0 };
      }
      lines
  in
  match status with
  | Unix.WEXITED 0 when not (Float.is_nan r.daemon_rss_mb) -> r
  | _ -> { r with problems = r.problems @ [ "the daemon did not drain and report" ] }

(* ------------------------------------------------------------------ *)
(* Server segments                                                     *)

type live = { daemon : daemon; conn : conn; pools : pools }

let start ~quick k =
  let pools = make_pools ~quick in
  if not (Sys.file_exists "_ftbench") then Sys.mkdir "_ftbench" 0o755;
  (* relative, so the path stays under the Unix socket length limit *)
  let sock = Printf.sprintf "_ftbench/serve-%d-%d.sock" (Unix.getpid ()) k in
  let daemon = spawn sock in
  match connect sock with
  | exception e ->
      ignore (finish daemon);
      raise e
  | conn ->
      (* prime the LRU with the hot payloads, one at a time *)
      let primed = Array.make (Array.length pools.hot) "" in
      let live = { daemon; conn; pools } in
      (try
         ignore
           (drive conn pools
              ~on_response:(fun i bytes -> primed.(i) <- bytes)
              (Array.init (Array.length pools.hot) (fun k ->
                   { slot = Hot_slot k; seq = 0; expect = None }))
              ~schedule:(`Window 1))
       with e ->
         (try Unix.close conn.fd with Unix.Unix_error _ -> ());
         ignore (finish daemon);
         raise e);
      pools.primed <- primed;
      live

let stop live =
  (try Unix.close live.conn.fd with Unix.Unix_error _ -> ());
  finish live.daemon

(* Send [reqs] one at a time, each when the previous one has been
   answered: every response with the daemon's CPU seconds for it, from
   reading the request to writing the response. *)
let one_at_a_time live reqs =
  Array.map
    (fun req ->
      let c0 = daemon_cpu live.daemon in
      let s = (drive live.conn live.pools [| req |] ~schedule:(`Window 1)).(0) in
      (s, daemon_cpu live.daemon -. c0))
    reqs

(* Bisection in log space over [max_rps_range] for the highest rate whose
   tail latency stays within the limit, with every response [ok] and no
   growing backlog.  The tail is p99, or the highest percentile the
   probe's samples support (p98 at 500).  Returns the final bracket. *)
let max_rps_search live checks ~quick ~seed ~probes ~n ~bracket =
  let passes rate k =
    let slots, gaps = pattern ~quick ~seed ~phase:(100 + k) ~n in
    let reqs = replays live.pools slots ~phase:(100 + k) ~first:0 ~count:1 in
    let samples = Array.to_list (open_loop live.conn live.pools ~gaps ~rate reqs) in
    let failed = checks.Harness.failed in
    List.iter
      (fun s ->
        let errs = Harness.errors () in
        classify errs s;
        Harness.count checks errs)
      samples;
    let tail = percentile_ms samples (Stats.tail_level ~n) in
    let quarter q =
      Ftsched_util.Stats.mean
        (Array.of_list
           (List.filteri (fun i _ -> i * 4 / n = q) samples
           |> List.map (fun s -> float_of_int s.backlog)))
    in
    checks.Harness.failed = failed && tail <= p99_limit_ms
    && quarter 3 <= (2. *. quarter 1) +. 2.
  in
  let rec go (lo, hi) k =
    if k = probes then (lo, hi)
    else
      let mid = sqrt (lo *. hi) in
      go (if passes mid k then (mid, hi) else (lo, mid)) (k + 1)
  in
  go bracket 0

let run (cfg : Harness.config) = Pace.with_helper ~quick:cfg.quick @@ fun pace ->
  let seed = cfg.seed in
  let checks = Harness.checks () in
  let setups = ref [] and attempted = ref 0 and pools = ref None in
  (* Each segment of traffic gets a fresh set-up (pools, server, priming),
     so the set-up is timed once per segment.  The daemon inherits the
     benchmark's CPU; the traffic is driven from another. *)
  let segment k f =
    let live, setup =
      Pace.seconds ~measure:Harness.wall pace (fun () -> start ~quick:cfg.quick k)
    in
    setups := setup :: !setups;
    let x =
      match Pace.elsewhere pace (fun () -> f live) with
      | x -> x
      | exception e ->
          ignore (stop live);
          raise e
    in
    let final = stop live in
    List.iter (fun p -> Harness.problem checks "daemon: %s" p) final.problems;
    pools := Some live.pools;
    (x, final)
  in
  let quick = cfg.quick in
  let pattern_size = pattern_size ~quick in
  let slots, gaps = pattern ~quick ~seed ~phase:1 ~n:pattern_size in
  let digest samples =
    Harness.md5 (Array.to_list (Array.map (fun s -> Digest.to_hex s.digest) samples))
  in
  let metrics, digest =
    if not cfg.trace then begin
      (* Three segments.  In each, replays of the pattern are sent one at
         a time for a share of the run, then [saturated] replays are kept
         [depth] requests deep, then a stage pass over the pools times the
         daemon's stages in-process.  Request times are the daemon's CPU
         time ([daemon_cpu]) at the reference speed.  At the end every
         request is recomputed in-process on two domains, which checks its
         response. *)
      let segments = 3 and saturated = if quick then 1 else 2 and depth = 8 in
      let pieces = if quick then 1 else 3 in
      let parts =
        List.init segments (fun k ->
            let (one, sat, capacity), final =
              segment (k + 1) (fun live ->
                  (* A replay one at a time, in [pieces] of 50 requests
                     timed between kernel runs on the daemon's CPU. *)
                  let one =
                    Harness.repeat
                      ~seconds:(0.45 *. cfg.seconds /. float_of_int segments)
                      ~min_reps:1
                      (fun r ->
                        let reqs =
                          replays live.pools slots ~phase:(10 + k) ~first:r ~count:1
                        in
                        let len = Array.length reqs / pieces in
                        Array.concat
                          (List.init pieces (fun t ->
                               let served, _, scale =
                                 Pace.timed pace (fun () ->
                                     one_at_a_time live (Array.sub reqs (t * len) len))
                               in
                               Array.map (fun (s, cpu) -> (s, cpu *. scale)) served)))
                  in
                  (* The daemon's capacity: a replay's requests over the
                     daemon's CPU seconds serving them while it is kept
                     busy. *)
                  let sat =
                    List.init saturated (fun r ->
                        let reqs =
                          replays live.pools slots ~phase:2 ~first:((k * saturated) + r) ~count:1
                        in
                        let (samples, cpu), _, scale =
                          Pace.timed pace (fun () ->
                              let c0 = daemon_cpu live.daemon in
                              let samples =
                                drive live.conn live.pools reqs ~schedule:(`Window depth)
                              in
                              (samples, daemon_cpu live.daemon -. c0))
                        in
                        (samples, float_of_int (Array.length reqs) /. (cpu *. scale)))
                  in
                  (Array.concat one, Array.concat (List.map fst sat), List.map snd sat))
            in
            attempted := !attempted + Array.length one + Array.length sat;
            (one, sat, capacity, stage_pass pace (Option.get !pools) checks, final.daemon_rss_mb))
      in
      let one = Array.concat (List.map (fun (o, _, _, _, _) -> o) parts) in
      let served =
        Array.append (Array.map fst one) (Array.concat (List.map (fun (_, s, _, _, _) -> s) parts))
      in
      Pace.everywhere pace (fun () -> check ~jobs:2 (Option.get !pools) checks served);
      (* how many replays fit in a run varies, so the digest covers the
         first of each segment and the saturated ones *)
      let digested =
        Array.concat
          (List.concat_map
             (fun (o, s, _, _, _) -> [ Array.map fst (Array.sub o 0 pattern_size); s ])
             parts)
      in
      let capacity = List.concat_map (fun (_, _, c, _, _) -> c) parts in
      (* a stage's cost: its median over every round of every stage pass *)
      let stage f =
        Ftsched_util.Stats.median
          (Array.of_list (List.concat_map (fun (_, _, _, st, _) -> f st) parts))
      in
      let service_ms = Array.map (fun (_, cpu) -> 1e3 *. cpu) one in
      ( [
          Report.metric "setup_s" "s" (Harness.median_over Fun.id !setups);
          Report.metric "peak_rss_mb" "MB"
            (Harness.median_over (fun (_, _, _, _, rss) -> rss) parts);
          Report.metric "ops_per_s" "1/s" (Harness.median_over Fun.id capacity);
          Report.metric "op_p50_ms" "ms" (Ftsched_util.Stats.median service_ms);
          Report.metric "op_tail_ms" "ms" (Stats.tail ~target:0.99 service_ms);
          Report.metric "plan_ms" "ms" (stage (fun st -> st.ftsa_ms));
          Report.metric "mc_plan_ms" "ms" (stage (fun st -> st.mc_ms));
          Report.metric "io_ms" "ms" (stage (fun st -> st.io_ms));
          Report.metric "replay_ms" "ms" (stage (fun st -> st.sim_ms));
        ],
        digest digested )
    end
    else begin
      (* per-layer run: open-loop latencies at both rates (client spans
         at the high one), the max_rps search, then the traffic checked and
         the high-rate requests replayed in-process *)
      let count_lo, count = if cfg.quick then (1, 1) else (2, 7) in
      let (lo_traffic, hi), final =
        segment 1 (fun live ->
            let lo =
              open_loop live.conn live.pools ~gaps ~rate:rate_lo
                (replays live.pools slots ~phase:4 ~first:0 ~count:count_lo)
            in
            let reqs = replays live.pools slots ~phase:3 ~first:0 ~count in
            attempted := !attempted + Array.length lo + Array.length reqs;
            Trace.enabled := true;
            let hi = open_loop live.conn live.pools ~gaps ~rate:rate_hi reqs in
            Trace.enabled := false;
            (lo, hi))
      in
      let probes, n_probe = if cfg.quick then (1, 20) else (2, 500) in
      let search k bracket =
        fst
          (segment k (fun live ->
               attempted := !attempted + (probes * n_probe);
               max_rps_search live checks ~quick ~seed ~probes ~n:n_probe ~bracket))
      in
      let bracket = search 2 max_rps_range in
      let lo, hi_rps = search 3 bracket in
      let pools = Option.get !pools in
      check pools checks (Array.append lo_traffic hi);
      (* after the checking pass has warmed up: one untraced replay, for
         compute and wait times, and one traced, for the layers *)
      let pass traced =
        Trace.enabled := traced;
        let r, seconds = Harness.cpu (fun () -> Array.map (replay pools (Harness.errors ())) hi) in
        Trace.enabled := false;
        (r, seconds)
      in
      let untraced, untraced_s = pass false in
      let traced, traced_s = pass true in
      let n = Array.length hi in
      let hi_l = Array.to_list hi in
      let of_kind k = List.filter (fun s -> kind_of s.req = k) hi_l in
      let ms = Option.value ~default:0. in
      let lateness = Array.map (fun s -> 1e3 *. (s.sent -. s.due)) hi in
      let waits = Array.mapi (fun i s -> latency_ms s -. (1e3 *. untraced.(i).compute_s)) hi in
      let compute k =
        Ftsched_util.Stats.mean
          (Array.of_list
             (List.filteri (fun i _ -> kind_of hi.(i).req = k) (Array.to_list untraced)
             |> List.map (fun r -> 1e3 *. r.compute_s)))
      in
      let tsum f = float_of_int (Array.fold_left (fun a r -> a + f r) 0 traced) in
      let streams = List.filter_map (fun r -> r.stream_stats) (Array.to_list traced) in
      let ssum f = float_of_int (List.fold_left (fun a x -> a + f x) 0 streams) in
      let spans = Trace.spans () in
      let totals = Trace.totals spans in
      let us key =
        match Hashtbl.find_opt totals key with
        | Some t when t.Trace.calls > 0 -> 1e3 *. t.Trace.self_ms /. float_of_int t.Trace.calls
        | _ -> 0.
      in
      let lookups = final.cache_hits + final.cache_misses in
      let extras =
        [
          ("kernel.ftsa.tasks", tsum (fun r -> if r.algo = "ftsa" then r.tasks else 0));
          ("kernel.mc_ftsa.tasks", tsum (fun r -> if r.algo = "mc-ftsa" then r.tasks else 0));
          ("schedule.serialize.bytes", tsum (fun r -> r.doc_bytes));
          ( "sim.crash_exec.calls",
            float_of_int (List.length (of_kind Simulate)) /. float_of_int n );
          ( "stream.admit_ratio",
            ssum (fun (_, a, _, _) -> a) /. Float.max 1. (ssum (fun (s, _, _, _) -> s)) );
          ( "stream.shadow_hit_ratio",
            ssum (fun (_, _, h, _) -> h) /. Float.max 1. (ssum (fun (_, _, h, st) -> h + st))
          );
          ("serve.p50_ms_lo", percentile_ms (Array.to_list lo_traffic) 0.5);
          ("serve.p90_ms_lo", percentile_ms (Array.to_list lo_traffic) 0.9);
          ("serve.p50_ms_hi", percentile_ms hi_l 0.5);
          ("serve.p99_ms_hi", percentile_ms hi_l 0.99);
          ("serve.max_rps", sqrt (lo *. hi_rps));
          ("serve.frame.encode_us", us "serve.frame_encode");
          ("serve.frame.decode_us", us "serve.frame_decode");
          ("serve.gen_lateness_ms.p99", ms (Stats.percentile lateness 0.99));
          ( "serve.cache_hit_ratio",
            float_of_int final.cache_hits /. float_of_int (max 1 lookups) );
          ("serve.queue_high_water", float_of_int final.queue_high_water);
          ("serve.wait_ms.p50", ms (Stats.percentile waits 0.5));
          ("serve.wait_ms.p99", ms (Stats.percentile waits 0.99));
          ("trace.overhead_pct", 100. *. ((traced_s /. untraced_s) -. 1.));
        ]
        @ List.concat_map
            (fun k ->
              let name = kind_name k in
              [
                (Printf.sprintf "serve.%s.p50_ms" name, percentile_ms (of_kind k) 0.5);
                (Printf.sprintf "serve.%s.p90_ms" name, percentile_ms (of_kind k) 0.9);
                (Printf.sprintf "serve.compute.%s.ms" name, compute k);
              ])
            kinds
        (* the daemon's collector, per request it answered *)
        @ Harness.gc_extras ~ops:final.served
            { Harness.minor = 0.; promoted = 0.; majors = 0 }
            final.daemon_gc
      in
      (Layers.metrics ~spans ~extras, digest hi)
    end
  in
  {
    Report.workload = name;
    seed;
    reps = List.length !setups;
    attempted = !attempted;
    failed = checks.Harness.failed;
    problems = List.rev checks.Harness.problems;
    digest;
    metrics;
  }
