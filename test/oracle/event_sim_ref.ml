(* The pairing-heap reference engine: the pre-flat-array implementation
   of {!Event_sim}, kept verbatim as a differential baseline.  The flat
   engine must agree with this one bit for bit on every run — the test
   suite and the fuzzer compare the two.  Keep this
   file frozen; behavioural changes belong in {!Event_sim}. *)

module Dag = Ftsched_dag.Dag
module Platform = Ftsched_platform.Platform
module Instance = Ftsched_model.Instance
module Schedule = Ftsched_schedule.Schedule
module Comm_plan = Ftsched_schedule.Comm_plan
module Rng = Ftsched_util.Rng

type event_kind =
  | Arrival of { task : int; k : int; edge_pos : int }
  | Completion of { task : int; k : int }

module Event = struct
  type t = { at : float; seq : int; kind : event_kind }

  let compare a b =
    match compare a.at b.at with 0 -> compare a.seq b.seq | c -> c
end

module Heap = Pairing_heap.Make (Event)

type rstate = {
  proc : int;
  mutable state : Event_sim.replica_state;
  satisfied_at : float array;  (* per in-edge position; infinity = not yet *)
  pending_senders : int array;  (* per in-edge position *)
}

type sub = { sub_dst : int; sub_rep : int; sub_pos : int; sub_edge : Dag.edge }

module Engine = struct
  type t = {
    s : Schedule.t;
    network : Event_sim.network_model;
    faults : Scenario.comm_faults;
    frng : Rng.t;
    fault_free : bool;
    mutable retransmissions : int;
    mutable lost_messages : int;
    fail_times : float array;
    g : Dag.t;
    pl : Platform.t;
    inst : Instance.t;
    eps : int;
    plan : Comm_plan.t;
    v : int;
    m : int;
    in_edges : Dag.edge array array;
    adj : Adjacency.t;
    edge_pos_of : (int * int, int) Hashtbl.t;
    mutable reps : rstate array array;
    queues : (int * int) list ref array;
    free_at : float array;
    ports : float array array;
    recv_ports : float array array;
    mutable heap : Heap.t;
    mutable seq : int;
    mutable events : int;
    dirty : int Queue.t;
    subs : (int * int, sub list) Hashtbl.t;
    mutable now : float;
  }

  let push eng at kind =
    eng.seq <- eng.seq + 1;
    eng.heap <- Heap.insert { Event.at; seq = eng.seq; kind } eng.heap

  let rec lose eng task k =
    let st = eng.reps.(task).(k) in
    match st.state with
    | Event_sim.Lost_replica | Event_sim.Done _ -> ()
    | Event_sim.Waiting | Event_sim.Running _ ->
        st.state <- Event_sim.Lost_replica;
        Queue.add st.proc eng.dirty;
        if k <= eng.eps then
          List.iter
            (fun e ->
              let _, dst = Dag.edge_endpoints eng.g e in
              List.iter
                (fun (pair : Comm_plan.pair) ->
                  if pair.src_replica = k then begin
                    let pos = Hashtbl.find eng.edge_pos_of (dst, e) in
                    let dst_st = eng.reps.(dst).(pair.dst_replica) in
                    dst_st.pending_senders.(pos) <-
                      dst_st.pending_senders.(pos) - 1;
                    if
                      dst_st.pending_senders.(pos) = 0
                      && dst_st.satisfied_at.(pos) = infinity
                    then lose eng dst pair.dst_replica
                  end)
                (Comm_plan.pairs_for eng.plan ~eps:eng.eps e))
            eng.adj.Adjacency.out_edges.(task);
        List.iter
          (fun sub ->
            let dst_st = eng.reps.(sub.sub_dst).(sub.sub_rep) in
            dst_st.pending_senders.(sub.sub_pos) <-
              dst_st.pending_senders.(sub.sub_pos) - 1;
            if
              dst_st.pending_senders.(sub.sub_pos) = 0
              && dst_st.satisfied_at.(sub.sub_pos) = infinity
            then lose eng sub.sub_dst sub.sub_rep)
          (Option.value ~default:[] (Hashtbl.find_opt eng.subs (task, k)))

  let try_advance eng p =
    let continue_p = ref true in
    while !continue_p do
      match !(eng.queues.(p)) with
      | [] -> continue_p := false
      | (task, k) :: rest -> (
          let st = eng.reps.(task).(k) in
          match st.state with
          | Event_sim.Done _ -> eng.queues.(p) := rest
          | Event_sim.Lost_replica -> eng.queues.(p) := rest
          | Event_sim.Running _ -> continue_p := false
          | Event_sim.Waiting ->
              if Array.for_all (fun a -> a < infinity) st.satisfied_at then begin
                let inputs_ready =
                  Array.fold_left Float.max 0. st.satisfied_at
                in
                let start = Float.max inputs_ready eng.free_at.(p) in
                let finish = start +. Instance.exec eng.inst task p in
                if start >= eng.fail_times.(p) || finish > eng.fail_times.(p)
                then begin
                  lose eng task k;
                  if start < eng.fail_times.(p) then
                    eng.free_at.(p) <- eng.fail_times.(p);
                  eng.queues.(p) := rest
                end
                else begin
                  st.state <- Event_sim.Running { start; finish };
                  push eng finish (Completion { task; k });
                  continue_p := false
                end
              end
              else continue_p := false)
    done

  let drain_dirty eng =
    while not (Queue.is_empty eng.dirty) do
      try_advance eng (Queue.pop eng.dirty)
    done

  let create ?(network = Event_sim.Contention_free)
      ?(faults = Scenario.reliable) ?release s ~fail_times =
    let inst = Schedule.instance s in
    let g = Instance.dag inst in
    let pl = Instance.platform inst in
    let eps = Schedule.eps s in
    let plan = Schedule.comm s in
    let v = Dag.n_tasks g and m = Instance.n_procs inst in
    if Array.length fail_times <> m then invalid_arg "Event_sim.run: fail_times";
    (match release with
    | Some r when Array.length r <> m -> invalid_arg "Event_sim.run: release size"
    | Some r when Array.exists (fun x -> not (x >= 0. && x < infinity)) r ->
        invalid_arg "Event_sim.run: release entries must be finite and >= 0"
    | _ -> ());
    if not (faults.Scenario.loss >= 0. && faults.Scenario.loss <= 1.) then
      invalid_arg "Event_sim.run: loss probability outside [0, 1]";
    if faults.Scenario.retries < 0 then
      invalid_arg "Event_sim.run: negative retries";
    List.iter
      (fun (o : Scenario.outage) ->
        if o.link_src >= m || o.link_dst >= m then
          invalid_arg "Event_sim.run: outage names an unknown processor")
      faults.Scenario.outages;
    let adj = Adjacency.of_dag g in
    let in_edges = Array.map Array.of_list adj.Adjacency.in_edges in
    let edge_pos_of = Hashtbl.create 64 in
    Array.iteri
      (fun t edges ->
        Array.iteri (fun pos e -> Hashtbl.replace edge_pos_of (t, e) pos) edges)
      in_edges;
    let reps =
      Array.init v (fun t ->
          Array.init (eps + 1) (fun k ->
              let ne = Array.length in_edges.(t) in
              let pending =
                Array.init ne (fun pos ->
                    let e = in_edges.(t).(pos) in
                    List.length (Comm_plan.senders_to plan ~eps e ~dst_replica:k))
              in
              {
                proc = (Schedule.replica s t k).Schedule.proc;
                state = Event_sim.Waiting;
                satisfied_at = Array.make ne infinity;
                pending_senders = pending;
              }))
    in
    let queues =
      Array.init m (fun p ->
          ref (List.map (fun (r : Schedule.replica) -> (r.task, r.index))
                 (Schedule.proc_timeline s p)))
    in
    let make_ports k =
      if k <= 0 then invalid_arg "Event_sim.run: ports must be positive";
      Array.init m (fun _ -> Array.make k 0.)
    in
    let ports =
      match network with
      | Event_sim.Contention_free -> [||]
      | Event_sim.Sender_ports k | Event_sim.Duplex_ports k -> make_ports k
    in
    let recv_ports =
      match network with
      | Event_sim.Contention_free | Event_sim.Sender_ports _ -> [||]
      | Event_sim.Duplex_ports k -> make_ports k
    in
    let eng =
      {
        s; network; faults;
        frng = Rng.create ~seed:faults.Scenario.seed;
        fault_free = Scenario.is_reliable faults;
        retransmissions = 0;
        lost_messages = 0;
        fail_times; g; pl; inst; eps; plan; v; m;
        in_edges; adj; edge_pos_of; reps; queues;
        free_at =
          (match release with
          | Some r -> Array.copy r
          | None -> Array.make m 0.);
        ports; recv_ports;
        heap = Heap.empty;
        seq = 0;
        events = 0;
        dirty = Queue.create ();
        subs = Hashtbl.create 16;
        now = 0.;
      }
    in
    for p = 0 to m - 1 do
      try_advance eng p;
      drain_dirty eng
    done;
    eng

  let emit eng ~src_proc ~finish ~dst ~dk ~pos ~dproc ~vol =
    let w = vol *. Platform.delay eng.pl src_proc dproc in
    let arrival_event at = push eng at (Arrival { task = dst; k = dk; edge_pos = pos }) in
    let drop () =
      let dst_st = eng.reps.(dst).(dk) in
      dst_st.pending_senders.(pos) <- dst_st.pending_senders.(pos) - 1;
      if
        dst_st.pending_senders.(pos) = 0
        && dst_st.satisfied_at.(pos) = infinity
      then begin
        match dst_st.state with
        | Event_sim.Waiting -> lose eng dst dk
        | Event_sim.Running _ | Event_sim.Done _ | Event_sim.Lost_replica -> ()
      end
    in
    let rec attempt i depart =
      let arrival = depart +. w in
      let f = eng.faults in
      if
        Rng.bernoulli eng.frng f.Scenario.loss
        || Scenario.in_outage f ~src:src_proc ~dst:dproc ~at:arrival
      then
        if i >= f.Scenario.retries then begin
          eng.lost_messages <- eng.lost_messages + 1;
          drop ()
        end
        else begin
          let timeout = f.Scenario.rtt_factor *. w *. ldexp 1. i in
          let redepart = depart +. timeout in
          if redepart > eng.fail_times.(src_proc) then begin
            eng.lost_messages <- eng.lost_messages + 1;
            drop ()
          end
          else begin
            eng.retransmissions <- eng.retransmissions + 1;
            attempt (i + 1) redepart
          end
        end
      else arrival_event arrival
    in
    let deliver depart =
      if eng.fault_free then arrival_event (depart +. w) else attempt 0 depart
    in
    if w = 0. then arrival_event (finish +. w)
    else if eng.network = Event_sim.Contention_free then deliver finish
    else begin
      let min_idx port_free =
        let best = ref 0 in
        Array.iteri
          (fun i t -> if t < port_free.(!best) then best := i)
          port_free;
        !best
      in
      let send_free = eng.ports.(src_proc) in
      let si = min_idx send_free in
      let depart =
        match eng.network with
        | Event_sim.Duplex_ports _ ->
            let recv_free = eng.recv_ports.(dproc) in
            let ri = min_idx recv_free in
            Float.max finish (Float.max send_free.(si) recv_free.(ri))
        | Event_sim.Contention_free | Event_sim.Sender_ports _ ->
            Float.max finish send_free.(si)
      in
      if depart +. w <= eng.fail_times.(src_proc) then begin
        send_free.(si) <- depart +. w;
        (match eng.network with
        | Event_sim.Duplex_ports _ ->
            let recv_free = eng.recv_ports.(dproc) in
            recv_free.(min_idx recv_free) <- depart +. w
        | Event_sim.Contention_free | Event_sim.Sender_ports _ -> ());
        deliver depart
      end
      else drop ()
    end

  let process eng (ev : Event.t) =
    eng.events <- eng.events + 1;
    eng.now <- ev.at;
    match ev.kind with
    | Arrival { task; k; edge_pos } ->
        let st = eng.reps.(task).(k) in
        (match st.state with
        | Event_sim.Waiting ->
            if st.satisfied_at.(edge_pos) = infinity then
              st.satisfied_at.(edge_pos) <- ev.at;
            try_advance eng st.proc
        | Event_sim.Running _ | Event_sim.Done _ | Event_sim.Lost_replica -> ());
        drain_dirty eng
    | Completion { task; k } ->
        let st = eng.reps.(task).(k) in
        (match st.state with
        | Event_sim.Running { start; finish } ->
            st.state <- Event_sim.Done { start; finish };
            eng.free_at.(st.proc) <- finish;
            if k <= eng.eps then
              List.iter
                (fun e ->
                  let _, dst = Dag.edge_endpoints eng.g e in
                  let vol = Dag.edge_volume eng.g e in
                  List.iter
                    (fun (pair : Comm_plan.pair) ->
                      if pair.src_replica = k then
                        emit eng ~src_proc:st.proc ~finish ~dst
                          ~dk:pair.dst_replica
                          ~pos:(Hashtbl.find eng.edge_pos_of (dst, e))
                          ~dproc:eng.reps.(dst).(pair.dst_replica).proc ~vol)
                    (Comm_plan.pairs_for eng.plan ~eps:eng.eps e))
                eng.adj.Adjacency.out_edges.(task);
            List.iter
              (fun sub ->
                emit eng ~src_proc:st.proc ~finish ~dst:sub.sub_dst
                  ~dk:sub.sub_rep ~pos:sub.sub_pos
                  ~dproc:eng.reps.(sub.sub_dst).(sub.sub_rep).proc
                  ~vol:(Dag.edge_volume eng.g sub.sub_edge))
              (Option.value ~default:[] (Hashtbl.find_opt eng.subs (task, k)));
            try_advance eng st.proc;
            drain_dirty eng
        | Event_sim.Waiting | Event_sim.Done _ | Event_sim.Lost_replica ->
            assert false)

  let drain eng =
    let continue_sim = ref true in
    while !continue_sim do
      match Heap.pop_min eng.heap with
      | None -> continue_sim := false
      | Some (ev, rest) ->
          eng.heap <- rest;
          process eng ev
    done

  let result eng =
    let outcomes =
      Array.map
        (Array.map (fun st ->
             match st.state with
             | Event_sim.Done { start; finish } ->
                 Event_sim.Completed { start; finish }
             | Event_sim.Waiting | Event_sim.Running _ | Event_sim.Lost_replica
               ->
                 Event_sim.Lost))
        eng.reps
    in
    let all_tasks_ok =
      Array.for_all
        (Array.exists (function
          | Event_sim.Completed _ -> true
          | Event_sim.Lost -> false))
        outcomes
    in
    let latency =
      if not all_tasks_ok then None
      else
        Some
          (List.fold_left
             (fun acc e ->
               let first =
                 Array.fold_left
                   (fun best o ->
                     match o with
                     | Event_sim.Completed { finish; _ } ->
                         Float.min best finish
                     | Event_sim.Lost -> best)
                   infinity outcomes.(e)
               in
               Float.max acc first)
             0. eng.adj.Adjacency.exits)
    in
    {
      Event_sim.latency;
      outcomes;
      events_processed = eng.events;
      retransmissions = eng.retransmissions;
      lost_messages = eng.lost_messages;
    }
end

let run ?network ?faults ?release s ~fail_times =
  let eng = Engine.create ?network ?faults ?release s ~fail_times in
  Engine.drain eng;
  Engine.result eng

let run_timed ?network ?faults ?release s timed =
  let m = Instance.n_procs (Schedule.instance s) in
  let fail_times = Array.make m infinity in
  List.iter
    (fun { Scenario.proc; at } ->
      if proc < 0 || proc >= m then invalid_arg "Event_sim.run_timed";
      fail_times.(proc) <- Float.min fail_times.(proc) at)
    timed;
  run ?network ?faults ?release s ~fail_times

let run_crash ?network ?faults s scenario =
  let m = Instance.n_procs (Schedule.instance s) in
  let fail_times = Array.make m infinity in
  Array.iter (fun p -> fail_times.(p) <- 0.) scenario.Scenario.failed;
  run ?network ?faults s ~fail_times
