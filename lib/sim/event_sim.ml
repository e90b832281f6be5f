(* The flat-array event engine.  Same semantics as the pairing-heap
   engine it replaced (kept frozen as the test oracle [Event_sim_ref]
   under test/oracle), rebuilt in the
   kernel driver's idiom:

   - static replicas live in a flat grid indexed by
     [rid = task * (eps+1) + k]; their state is four parallel unboxed
     arrays (tag/start/finish/unsatisfied-input count) instead of a
     record per replica;
   - per-replica input slots ([satisfied_at], [pending_senders]) are two
     flat arrays addressed through a CSR offset table, replacing the
     [(task, edge) -> position] Hashtbl;
   - the communication plan is unrolled once into a per-rid CSR emission
     table (destination task/replica/slot/processor/volume, in the exact
     legacy order: out-edges, then plan pairs), so completions and loss
     cascades index arrays instead of re-allocating the
     [(eps+1)^2]-pair cross product per edge;
   - the event queue is {!Ftsched_ds.Event_heap}, an array binary
     min-heap on [(at, seq)].  Sequence numbers are unique, so the pop
     order is implementation-independent and every pinned digest stays
     bit-for-bit;
   - per-processor planned queues are index cursors over flat arrays;
     re-injection appends at the tail in O(1) amortized where the list
     engine paid a full-copy [@ [x]] append.

   Replicas injected at runtime (recovery) are rare; they live in an
   overflow table of records addressed by [rid >= v * (eps+1)] and keep
   the exact legacy ordering of subscriptions, re-sends and queue
   placement.

   The fail-time-independent part of engine construction (the CSR
   tables, pristine pending counts and planned queues) is exposed as an
   {!Engine.template}: building one costs the full analysis, forking it
   with {!Engine.of_template} only copies the mutable state — this is
   the snapshot/restore primitive the stream runtime uses to derive the
   m single-crash shadow plans of a job from one prepared engine. *)

module Dag = Ftsched_dag.Dag
module Platform = Ftsched_platform.Platform
module Instance = Ftsched_model.Instance
module Schedule = Ftsched_schedule.Schedule
module Comm_plan = Ftsched_schedule.Comm_plan
module Rng = Ftsched_util.Rng
module Eheap = Ftsched_ds.Event_heap

type network_model =
  | Contention_free
  | Sender_ports of int
  | Duplex_ports of int

type outcome =
  | Completed of { start : float; finish : float }
  | Lost

type result = {
  latency : float option;
  outcomes : outcome array array;
  events_processed : int;
  retransmissions : int;
  lost_messages : int;
}

let first_finish r task =
  Array.fold_left
    (fun best o ->
      match o with
      | Completed { finish; _ } -> Float.min best finish
      | Lost -> best)
    infinity r.outcomes.(task)

type replica_state =
  | Waiting
  | Running of { start : float; finish : float }
  | Done of { start : float; finish : float }
  | Lost_replica

(* Replica tags in the flat grid. *)
let t_waiting = 0
and t_running = 1
and t_done = 2
and t_lost = 3

(* A runtime subscription: replica [sub_rep] of [sub_dst] waits on input
   position [sub_pos] for the completion of the subscribed-to source
   replica.  Subscriptions are how injected (recovery) replicas receive
   their inputs; plan messages cover only the static grid. *)
type sub = { sub_dst : int; sub_rep : int; sub_pos : int; sub_vol : float }

(* An injected replica: the overflow region beyond the static grid. *)
type inj = {
  i_task : int;
  i_k : int;  (* replica index within its task (> eps) *)
  i_proc : int;
  mutable i_tag : int;
  mutable i_start : float;
  mutable i_finish : float;
  i_sat : float array;  (* per in-edge position; infinity = not yet *)
  i_pend : int array;  (* per in-edge position *)
  mutable i_unsat : int;
  mutable i_subs : sub list;
}

module Engine = struct
  type source =
    | Resend of { arrival : float }
    | On_completion of { src_task : int; src_rep : int }

  (* Everything about a (schedule, release) pair that does not depend on
     the fail times or the fault draw: immutable, shareable between any
     number of engine forks. *)
  type template = {
    t_s : Schedule.t;
    t_release : float array option;
    t_g : Dag.t;
    t_pl : Platform.t;
    t_inst : Instance.t;
    t_eps : int;
    t_v : int;
    t_m : int;
    t_k : int;  (* eps + 1 *)
    t_nstatic : int;  (* v * (eps + 1) *)
    (* static input-slot CSR: [slot_off.(rid) + pos] addresses the
       [sat]/[pend] entry of input [pos] of static replica [rid] *)
    slot_off : int array;  (* length n_static + 1 *)
    pend0 : int array;  (* pristine pending-sender counts per slot *)
    proc0 : int array;  (* host processor per static rid *)
    (* plan emission CSR per static rid, in the legacy order (out-edges,
       then retained plan pairs of that source replica) *)
    em_off : int array;  (* length n_static + 1 *)
    em_dst : int array;  (* destination task *)
    em_dk : int array;  (* destination (static) replica *)
    em_pos : int array;  (* destination in-edge position *)
    em_slot : int array;  (* destination input slot *)
    em_dproc : int array;  (* destination host processor *)
    em_vol : float array;
    q0 : int array array;  (* pristine planned queue (rids) per proc *)
  }

  type t = {
    tm : template;
    network : network_model;
    faults : Scenario.comm_faults;
    frng : Rng.t;  (* loss-draw stream; untouched when faults are reliable *)
    fault_free : bool;
    mutable retransmissions : int;
    mutable lost_messages : int;
    fail_times : float array;
    (* static grid state, indexed by rid *)
    tag : int array;
    st_start : float array;
    st_finish : float array;
    unsat : int array;  (* input positions not yet satisfied *)
    subs : sub list array;  (* runtime subscribers per static rid *)
    (* input slots, indexed through [slot_off] *)
    sat : float array;
    pend : int array;
    (* injected replicas: global overflow, plus per-task index rows *)
    mutable inj : inj array;
    mutable n_inj : int;
    extra : int array array;  (* per task: overflow indices, in order *)
    (* per-processor planned queues as cursors over flat arrays *)
    q_buf : int array array;
    q_head : int array;
    q_tail : int array;
    free_at : float array;
    ports : float array array;
    recv_ports : float array array;
    heap : Eheap.t;
    mutable seq : int;
    mutable events : int;
    dirty : int Queue.t;
    mutable now : float;
  }

  (* Event encoding in the heap payload: [(a, b, c)] is
     [(task, k, edge_pos)] for an arrival and [(task, k, -1)] for a
     completion, packed into one word at 21 bits per field (the position
     is stored shifted by one so -1 packs as 0).  [template] bounds the
     task count below 2^21 — which also bounds in-edge positions — and
     [inject] bounds the replica index. *)
  let payload_bits = 21
  let payload_mask = (1 lsl payload_bits) - 1

  let push_event eng at ~a ~b ~c =
    eng.seq <- eng.seq + 1;
    Eheap.push eng.heap ~at ~seq:eng.seq
      ~payload:((((a lsl payload_bits) lor b) lsl payload_bits) lor (c + 1))

  let inj_of eng task k = eng.inj.(eng.extra.(task).(k - eng.tm.t_k))

  let tag_of eng task k =
    if k < eng.tm.t_k then eng.tag.((task * eng.tm.t_k) + k)
    else (inj_of eng task k).i_tag

  (* Losing a replica cascades: every plan receiver (and runtime
     subscriber) loses one potential sender; an input with no arrival and
     no pending sender is dead, and kills its (still waiting) receiver. *)
  let rec lose eng task k =
    let tm = eng.tm in
    if k < tm.t_k then begin
      let rid = (task * tm.t_k) + k in
      let tg = eng.tag.(rid) in
      if tg = t_waiting || tg = t_running then begin
        eng.tag.(rid) <- t_lost;
        Queue.add tm.proc0.(rid) eng.dirty;
        for i = tm.em_off.(rid) to tm.em_off.(rid + 1) - 1 do
          let slot = tm.em_slot.(i) in
          eng.pend.(slot) <- eng.pend.(slot) - 1;
          if eng.pend.(slot) = 0 && eng.sat.(slot) = infinity then
            lose eng tm.em_dst.(i) tm.em_dk.(i)
        done;
        List.iter (fun sub -> drop_sender eng sub) eng.subs.(rid)
      end
    end
    else begin
      let r = inj_of eng task k in
      if r.i_tag = t_waiting || r.i_tag = t_running then begin
        r.i_tag <- t_lost;
        Queue.add r.i_proc eng.dirty;
        List.iter (fun sub -> drop_sender eng sub) r.i_subs
      end
    end

  (* One potential sender of a subscription input is gone. *)
  and drop_sender eng sub =
    let tm = eng.tm in
    if sub.sub_rep < tm.t_k then begin
      let slot = tm.slot_off.((sub.sub_dst * tm.t_k) + sub.sub_rep) + sub.sub_pos in
      eng.pend.(slot) <- eng.pend.(slot) - 1;
      if eng.pend.(slot) = 0 && eng.sat.(slot) = infinity then
        lose eng sub.sub_dst sub.sub_rep
    end
    else begin
      let r = inj_of eng sub.sub_dst sub.sub_rep in
      r.i_pend.(sub.sub_pos) <- r.i_pend.(sub.sub_pos) - 1;
      if r.i_pend.(sub.sub_pos) = 0 && r.i_sat.(sub.sub_pos) = infinity then
        lose eng sub.sub_dst sub.sub_rep
    end

  let try_advance eng p =
    let tm = eng.tm in
    let continue_p = ref true in
    while !continue_p do
      if eng.q_head.(p) >= eng.q_tail.(p) then continue_p := false
      else begin
        let rid = eng.q_buf.(p).(eng.q_head.(p)) in
        if rid < tm.t_nstatic then begin
          let tg = eng.tag.(rid) in
          if tg = t_done || tg = t_lost then
            eng.q_head.(p) <- eng.q_head.(p) + 1
          else if tg = t_running then continue_p := false
          else if eng.unsat.(rid) = 0 then begin
            let base = tm.slot_off.(rid) and lim = tm.slot_off.(rid + 1) in
            let inputs_ready = ref 0. in
            for i = base to lim - 1 do
              if eng.sat.(i) > !inputs_ready then inputs_ready := eng.sat.(i)
            done;
            let task = rid / tm.t_k in
            let start = Float.max !inputs_ready eng.free_at.(p) in
            let finish = start +. Instance.exec tm.t_inst task p in
            if start >= eng.fail_times.(p) || finish > eng.fail_times.(p)
            then begin
              lose eng task (rid mod tm.t_k);
              (* A replica cut down mid-run still occupied the processor
                 until the crash instant; without this the next queued
                 replica could start inside the busy window. *)
              if start < eng.fail_times.(p) then
                eng.free_at.(p) <- eng.fail_times.(p);
              eng.q_head.(p) <- eng.q_head.(p) + 1
            end
            else begin
              eng.tag.(rid) <- t_running;
              eng.st_start.(rid) <- start;
              eng.st_finish.(rid) <- finish;
              push_event eng finish ~a:task ~b:(rid mod tm.t_k) ~c:(-1);
              continue_p := false
            end
          end
          else continue_p := false
        end
        else begin
          let r = eng.inj.(rid - tm.t_nstatic) in
          if r.i_tag = t_done || r.i_tag = t_lost then
            eng.q_head.(p) <- eng.q_head.(p) + 1
          else if r.i_tag = t_running then continue_p := false
          else if r.i_unsat = 0 then begin
            let inputs_ready = ref 0. in
            Array.iter
              (fun a -> if a > !inputs_ready then inputs_ready := a)
              r.i_sat;
            let start = Float.max !inputs_ready eng.free_at.(p) in
            let finish = start +. Instance.exec tm.t_inst r.i_task p in
            if start >= eng.fail_times.(p) || finish > eng.fail_times.(p)
            then begin
              lose eng r.i_task r.i_k;
              if start < eng.fail_times.(p) then
                eng.free_at.(p) <- eng.fail_times.(p);
              eng.q_head.(p) <- eng.q_head.(p) + 1
            end
            else begin
              r.i_tag <- t_running;
              r.i_start <- start;
              r.i_finish <- finish;
              push_event eng finish ~a:r.i_task ~b:r.i_k ~c:(-1);
              continue_p := false
            end
          end
          else continue_p := false
        end
      end
    done

  let drain_dirty eng =
    while not (Queue.is_empty eng.dirty) do
      try_advance eng (Queue.pop eng.dirty)
    done

  let validate_release ~m = function
    | Some r when Array.length r <> m ->
        invalid_arg "Event_sim.run: release size"
    | Some r when Array.exists (fun x -> not (x >= 0. && x < infinity)) r ->
        invalid_arg "Event_sim.run: release entries must be finite and >= 0"
    | _ -> ()

  let validate_faults ~m (faults : Scenario.comm_faults) =
    if not (faults.Scenario.loss >= 0. && faults.Scenario.loss <= 1.) then
      invalid_arg "Event_sim.run: loss probability outside [0, 1]";
    if faults.Scenario.retries < 0 then
      invalid_arg "Event_sim.run: negative retries";
    List.iter
      (fun (o : Scenario.outage) ->
        if o.link_src >= m || o.link_dst >= m then
          invalid_arg "Event_sim.run: outage names an unknown processor")
      faults.Scenario.outages

  let template ?release s =
    let inst = Schedule.instance s in
    let g = Instance.dag inst in
    let pl = Instance.platform inst in
    let eps = Schedule.eps s in
    let plan = Schedule.comm s in
    let v = Dag.n_tasks g and m = Instance.n_procs inst in
    validate_release ~m release;
    if v > payload_mask then
      invalid_arg "Event_sim.run: task count exceeds the event encoding";
    let kk = eps + 1 in
    let n_static = v * kk in
    let ne = Dag.n_edges g in
    let pred_off = Dag.Csr.pred_offsets g and pred_edges = Dag.Csr.pred_edges g in
    let succ_off = Dag.Csr.succ_offsets g and succ_edges = Dag.Csr.succ_edges g in
    let succ_tasks = Dag.Csr.succ_tasks g in
    (* An input is addressed by its position in the task's predecessor
       row (the engine's position contract); [pos_of_edge] is the
       inverse edge -> position map. *)
    let pos_of_edge = Array.make ne 0 in
    for t = 0 to v - 1 do
      for k = pred_off.(t) to pred_off.(t + 1) - 1 do
        pos_of_edge.(pred_edges.(k)) <- k - pred_off.(t)
      done
    done;
    (* All_to_all materializes the same (eps+1)^2 pair list on every
       [pairs_for] call; the three passes below visit every edge, so
       share one copy (same list, same order). *)
    let pairs_for_edge =
      match plan with
      | Comm_plan.All_to_all ->
          let shared = Comm_plan.pairs_for plan ~eps 0 in
          fun _ -> shared
      | Comm_plan.Selected _ -> fun e -> Comm_plan.pairs_for plan ~eps e
    in
    let slot_off = Array.make (n_static + 1) 0 in
    for t = 0 to v - 1 do
      let nt = Dag.in_degree g t in
      for k = 0 to kk - 1 do
        let rid = (t * kk) + k in
        slot_off.(rid + 1) <- slot_off.(rid) + nt
      done
    done;
    let proc0 =
      Array.init n_static (fun rid ->
          (Schedule.replica s (rid / kk) (rid mod kk)).Schedule.proc)
    in
    (* pristine pending-sender counts: one per retained plan pair *)
    let pend0 = Array.make (ne * kk) 0 in
    for t = 0 to v - 1 do
      for k = pred_off.(t) to pred_off.(t + 1) - 1 do
        let pos = k - pred_off.(t) in
        List.iter
          (fun (pair : Comm_plan.pair) ->
            let slot = slot_off.((t * kk) + pair.dst_replica) + pos in
            pend0.(slot) <- pend0.(slot) + 1)
          (pairs_for_edge pred_edges.(k))
      done
    done;
    (* plan emission CSR: two passes (count, fill), iterating tasks, then
       out-edges, then plan pairs — exactly the legacy emission order *)
    let em_cnt = Array.make n_static 0 in
    for t = 0 to v - 1 do
      for k = succ_off.(t) to succ_off.(t + 1) - 1 do
        List.iter
          (fun (pair : Comm_plan.pair) ->
            let rid = (t * kk) + pair.src_replica in
            em_cnt.(rid) <- em_cnt.(rid) + 1)
          (pairs_for_edge succ_edges.(k))
      done
    done;
    let em_off = Array.make (n_static + 1) 0 in
    for rid = 0 to n_static - 1 do
      em_off.(rid + 1) <- em_off.(rid) + em_cnt.(rid)
    done;
    let n_em = em_off.(n_static) in
    let em_dst = Array.make n_em 0 in
    let em_dk = Array.make n_em 0 in
    let em_pos = Array.make n_em 0 in
    let em_slot = Array.make n_em 0 in
    let em_dproc = Array.make n_em 0 in
    let em_vol = Array.make n_em 0. in
    let cursor = Array.copy em_off in
    for t = 0 to v - 1 do
      for k = succ_off.(t) to succ_off.(t + 1) - 1 do
        let e = succ_edges.(k) and dst = succ_tasks.(k) in
        let pos = pos_of_edge.(e) and vol = Dag.edge_volume g e in
        List.iter
          (fun (pair : Comm_plan.pair) ->
            let rid = (t * kk) + pair.src_replica in
            let i = cursor.(rid) in
            cursor.(rid) <- i + 1;
            let drid = (dst * kk) + pair.dst_replica in
            em_dst.(i) <- dst;
            em_dk.(i) <- pair.dst_replica;
            em_pos.(i) <- pos;
            em_slot.(i) <- slot_off.(drid) + pos;
            em_dproc.(i) <- proc0.(drid);
            em_vol.(i) <- vol)
          (pairs_for_edge e)
      done
    done;
    let q0 =
      Array.map
        (fun timeline ->
          Array.of_list
            (List.map
               (fun (r : Schedule.replica) -> (r.Schedule.task * kk) + r.index)
               timeline))
        (Schedule.proc_timelines s)
    in
    {
      t_s = s;
      t_release = release;
      t_g = g;
      t_pl = pl;
      t_inst = inst;
      t_eps = eps;
      t_v = v;
      t_m = m;
      t_k = kk;
      t_nstatic = n_static;
      slot_off; pend0; proc0;
      em_off; em_dst; em_dk; em_pos; em_slot; em_dproc; em_vol;
      q0;
    }

  let of_template ?(network = Contention_free) ?(faults = Scenario.reliable)
      tm ~fail_times =
    let m = tm.t_m in
    if Array.length fail_times <> m then invalid_arg "Event_sim.run: fail_times";
    validate_faults ~m faults;
    (* Outgoing-port free instants per processor (empty = contention-free).
       Messages grab the earliest-free port FIFO in production order. *)
    let make_ports k =
      if k <= 0 then invalid_arg "Event_sim.run: ports must be positive";
      Array.init m (fun _ -> Array.make k 0.)
    in
    let ports =
      match network with
      | Contention_free -> [||]
      | Sender_ports k | Duplex_ports k -> make_ports k
    in
    (* incoming ports, only under the duplex (telephone) model *)
    let recv_ports =
      match network with
      | Contention_free | Sender_ports _ -> [||]
      | Duplex_ports k -> make_ports k
    in
    let unsat =
      Array.init tm.t_nstatic (fun rid ->
          tm.slot_off.(rid + 1) - tm.slot_off.(rid))
    in
    let eng =
      {
        tm; network; faults;
        frng = Rng.create ~seed:faults.Scenario.seed;
        fault_free = Scenario.is_reliable faults;
        retransmissions = 0;
        lost_messages = 0;
        fail_times;
        tag = Array.make tm.t_nstatic t_waiting;
        st_start = Array.make tm.t_nstatic 0.;
        st_finish = Array.make tm.t_nstatic 0.;
        unsat;
        subs = Array.make tm.t_nstatic [];
        sat = Array.make (Array.length tm.pend0) infinity;
        pend = Array.copy tm.pend0;
        inj = [||];
        n_inj = 0;
        extra = Array.make tm.t_v [||];
        q_buf = Array.map Array.copy tm.q0;
        q_head = Array.make m 0;
        q_tail = Array.map Array.length tm.q0;
        (* Residual occupancy: the processor is busy with foreign work
           until its release instant and cannot start replicas before. *)
        free_at =
          (match tm.t_release with
          | Some r -> Array.copy r
          | None -> Array.make m 0.);
        ports; recv_ports;
        heap = Eheap.create ~capacity:(max 64 tm.t_nstatic) ();
        seq = 0;
        events = 0;
        dirty = Queue.create ();
        now = 0.;
      }
    in
    (* Processors whose planned head is an entry replica can start at t=0;
       dead-at-0 processors immediately lose their whole queue. *)
    for p = 0 to m - 1 do
      try_advance eng p;
      drain_dirty eng
    done;
    eng

  let create ?network ?faults ?release s ~fail_times =
    (* Validate in the legacy order (fail_times before release/faults) so
       error reporting is unchanged. *)
    let m = Instance.n_procs (Schedule.instance s) in
    if Array.length fail_times <> m then invalid_arg "Event_sim.run: fail_times";
    validate_release ~m release;
    (match faults with Some f -> validate_faults ~m f | None -> ());
    of_template ?network ?faults (template ?release s) ~fail_times

  (* One message sender is permanently gone for input [pos] of replica
     [dk] of [dst]; starve the (still waiting) receiver if it was the
     last. *)
  let drop_input eng ~dst ~dk ~pos =
    let tm = eng.tm in
    if dk < tm.t_k then begin
      let slot = tm.slot_off.((dst * tm.t_k) + dk) + pos in
      eng.pend.(slot) <- eng.pend.(slot) - 1;
      if eng.pend.(slot) = 0 && eng.sat.(slot) = infinity then begin
        if eng.tag.((dst * tm.t_k) + dk) = t_waiting then lose eng dst dk
      end
    end
    else begin
      let r = inj_of eng dst dk in
      r.i_pend.(pos) <- r.i_pend.(pos) - 1;
      if r.i_pend.(pos) = 0 && r.i_sat.(pos) = infinity then begin
        if r.i_tag = t_waiting then lose eng dst dk
      end
    end

  (* One message to deliver: input position [pos] of replica [dk] of task
     [dst] hosted on [dproc], carrying [vol] units. *)
  let emit eng ~src_proc ~finish ~dst ~dk ~pos ~dproc ~vol =
    let w = vol *. Platform.delay eng.tm.t_pl src_proc dproc in
    let arrival_event at = push_event eng at ~a:dst ~b:dk ~c:pos in
    let drop () = drop_input eng ~dst ~dk ~pos in
    (* The lossy channel.  Attempt [i] departs at [depart] and would
       arrive [w] later; a per-attempt Bernoulli draw or an outage window
       on the (src_proc, dproc) link claims it.  The sender notices at an
       ack timeout of [rtt_factor *. w] after departure — doubled on each
       attempt, exponential backoff — and retries, never past its own
       death, up to [retries] times.  A message that exhausts its retries
       is declared permanently lost and feeds the same starvation
       accounting as a sender death.  Retries bypass the port booking:
       the plan priced one transfer per message, and charging ports for
       adversarial re-sends would let a fault perturb fault-free traffic
       ordering (same simplification as the recovery layer's re-sends). *)
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
            (* the sender dies before it can re-send *)
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
    else if eng.network = Contention_free then deliver finish
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
        | Duplex_ports _ ->
            let recv_free = eng.recv_ports.(dproc) in
            let ri = min_idx recv_free in
            Float.max finish (Float.max send_free.(si) recv_free.(ri))
        | Contention_free | Sender_ports _ -> Float.max finish send_free.(si)
      in
      if depart +. w <= eng.fail_times.(src_proc) then begin
        send_free.(si) <- depart +. w;
        (match eng.network with
        | Duplex_ports _ ->
            let recv_free = eng.recv_ports.(dproc) in
            recv_free.(min_idx recv_free) <- depart +. w
        | Contention_free | Sender_ports _ -> ());
        deliver depart
      end
      else
        (* transfer cut off by the sender's death *)
        drop ()
    end

  (* Emit one message per retained plan pair originating at a completed
     static replica, plus one per runtime subscription.  Under a port
     model a non-local message must wait for a free outgoing port, and
     dies with the sender if the transfer has not finished by the
     sender's failure instant; a dropped message costs the receiver one
     potential sender. *)
  let emit_completions eng ~src_proc ~finish ~rid ~subs =
    let tm = eng.tm in
    (match rid with
    | Some rid ->
        for i = tm.em_off.(rid) to tm.em_off.(rid + 1) - 1 do
          emit eng ~src_proc ~finish ~dst:tm.em_dst.(i) ~dk:tm.em_dk.(i)
            ~pos:tm.em_pos.(i) ~dproc:tm.em_dproc.(i) ~vol:tm.em_vol.(i)
        done
    | None -> ());
    List.iter
      (fun sub ->
        let dproc =
          if sub.sub_rep < tm.t_k then
            tm.proc0.((sub.sub_dst * tm.t_k) + sub.sub_rep)
          else (inj_of eng sub.sub_dst sub.sub_rep).i_proc
        in
        emit eng ~src_proc ~finish ~dst:sub.sub_dst ~dk:sub.sub_rep
          ~pos:sub.sub_pos ~dproc ~vol:sub.sub_vol)
      subs

  let process eng ~at ~a:task ~b:k ~c =
    let tm = eng.tm in
    eng.events <- eng.events + 1;
    eng.now <- at;
    if c >= 0 then begin
      (* arrival of a copy of input [c] at replica [k] of [task] *)
      (if k < tm.t_k then begin
         let rid = (task * tm.t_k) + k in
         if eng.tag.(rid) = t_waiting then begin
           let slot = tm.slot_off.(rid) + c in
           if eng.sat.(slot) = infinity then begin
             eng.sat.(slot) <- at;
             eng.unsat.(rid) <- eng.unsat.(rid) - 1
           end;
           try_advance eng tm.proc0.(rid)
         end
       end
       else begin
         let r = inj_of eng task k in
         if r.i_tag = t_waiting then begin
           if r.i_sat.(c) = infinity then begin
             r.i_sat.(c) <- at;
             r.i_unsat <- r.i_unsat - 1
           end;
           try_advance eng r.i_proc
         end
       end);
      drain_dirty eng
    end
    else if k < tm.t_k then begin
      (* completion of a static replica *)
      let rid = (task * tm.t_k) + k in
      (* A completion event for a replica that was lost in the meantime
         cannot happen: losses only strike waiting replicas or processors
         already checked at start. *)
      assert (eng.tag.(rid) = t_running);
      let finish = eng.st_finish.(rid) in
      eng.tag.(rid) <- t_done;
      let p = tm.proc0.(rid) in
      eng.free_at.(p) <- finish;
      emit_completions eng ~src_proc:p ~finish ~rid:(Some rid)
        ~subs:eng.subs.(rid);
      try_advance eng p;
      drain_dirty eng
    end
    else begin
      let r = inj_of eng task k in
      assert (r.i_tag = t_running);
      let finish = r.i_finish in
      r.i_tag <- t_done;
      eng.free_at.(r.i_proc) <- finish;
      emit_completions eng ~src_proc:r.i_proc ~finish ~rid:None ~subs:r.i_subs;
      try_advance eng r.i_proc;
      drain_dirty eng
    end

  let pop_and_process eng =
    let at = Eheap.min_at eng.heap in
    let p = Eheap.min_payload eng.heap in
    Eheap.drop_min eng.heap;
    process eng ~at
      ~a:(p lsr (2 * payload_bits))
      ~b:((p lsr payload_bits) land payload_mask)
      ~c:((p land payload_mask) - 1)

  let advance_until eng horizon =
    let continue_sim = ref true in
    while !continue_sim do
      if Eheap.is_empty eng.heap || Eheap.min_at eng.heap > horizon then
        continue_sim := false
      else pop_and_process eng
    done;
    if horizon > eng.now && horizon < infinity then eng.now <- horizon

  let drain eng =
    while not (Eheap.is_empty eng.heap) do
      pop_and_process eng
    done

  let now eng = eng.now
  let events_processed eng = eng.events
  let n_replicas eng task = eng.tm.t_k + Array.length eng.extra.(task)

  let replica_state eng ~task ~rep =
    if rep < eng.tm.t_k then begin
      let rid = (task * eng.tm.t_k) + rep in
      let tg = eng.tag.(rid) in
      if tg = t_waiting then Waiting
      else if tg = t_running then
        Running { start = eng.st_start.(rid); finish = eng.st_finish.(rid) }
      else if tg = t_done then
        Done { start = eng.st_start.(rid); finish = eng.st_finish.(rid) }
      else Lost_replica
    end
    else begin
      let r = inj_of eng task rep in
      if r.i_tag = t_waiting then Waiting
      else if r.i_tag = t_running then
        Running { start = r.i_start; finish = r.i_finish }
      else if r.i_tag = t_done then
        Done { start = r.i_start; finish = r.i_finish }
      else Lost_replica
    end

  let replica_proc eng ~task ~rep =
    if rep < eng.tm.t_k then eng.tm.proc0.((task * eng.tm.t_k) + rep)
    else (inj_of eng task rep).i_proc

  let free_at eng p = eng.free_at.(p)

  let input_satisfied eng ~task ~rep ~pos =
    if rep < eng.tm.t_k then
      eng.sat.(eng.tm.slot_off.((task * eng.tm.t_k) + rep) + pos) < infinity
    else (inj_of eng task rep).i_sat.(pos) < infinity

  let kill_replica eng ~task ~rep =
    match tag_of eng task rep with
    | tg when tg = t_waiting ->
        (* The kill is a decision taken at virtual time [now]; whatever
           was queued behind the killed replica only becomes runnable
           now, not retroactively. *)
        let p = replica_proc eng ~task ~rep in
        if eng.free_at.(p) < eng.now then eng.free_at.(p) <- eng.now;
        lose eng task rep;
        drain_dirty eng
    | tg when tg = t_running ->
        invalid_arg "Event_sim.Engine.kill_replica: running replica"
    | _ -> ()

  let enqueue eng p rid =
    let buf = eng.q_buf.(p) in
    let tail = eng.q_tail.(p) in
    if tail = Array.length buf then begin
      let nbuf = Array.make (max 8 (2 * max 1 (Array.length buf))) 0 in
      Array.blit buf 0 nbuf 0 tail;
      eng.q_buf.(p) <- nbuf
    end;
    eng.q_buf.(p).(tail) <- rid;
    eng.q_tail.(p) <- tail + 1

  let add_inj eng r =
    if eng.n_inj = Array.length eng.inj then begin
      let na = Array.make (max 4 (2 * eng.n_inj)) r in
      Array.blit eng.inj 0 na 0 eng.n_inj;
      eng.inj <- na
    end;
    eng.inj.(eng.n_inj) <- r;
    eng.n_inj <- eng.n_inj + 1;
    eng.n_inj - 1

  type source_sub = { ss_task : int; ss_rep : int; ss_sub : sub }

  let inject eng ~task ~proc ~inputs =
    let tm = eng.tm in
    if task < 0 || task >= tm.t_v then
      invalid_arg "Event_sim.Engine.inject: task";
    if proc < 0 || proc >= tm.t_m then
      invalid_arg "Event_sim.Engine.inject: proc";
    let base = (Dag.Csr.pred_offsets tm.t_g).(task) in
    let net = Dag.in_degree tm.t_g task in
    if Array.length inputs <> net then
      invalid_arg "Event_sim.Engine.inject: one source list per in-edge";
    let k = tm.t_k + Array.length eng.extra.(task) in
    if k > payload_mask then
      invalid_arg "Event_sim.Engine.inject: replica index exceeds the event encoding";
    let i_sat = Array.make net infinity in
    let i_pend = Array.make net 0 in
    (* Validate and register sources before publishing the replica: a
       malformed call must not leave a half-subscribed ghost behind. *)
    let subs_to_add = ref [] in
    let resends = ref [] in
    Array.iteri
      (fun pos sources ->
        if sources = [] then
          invalid_arg "Event_sim.Engine.inject: input with no source";
        let esrc = (Dag.Csr.pred_tasks tm.t_g).(base + pos) in
        let vol = (Dag.Csr.pred_volumes tm.t_g).(base + pos) in
        List.iter
          (fun src ->
            i_pend.(pos) <- i_pend.(pos) + 1;
            match src with
            | Resend { arrival } ->
                if arrival < eng.now then
                  invalid_arg "Event_sim.Engine.inject: arrival in the past";
                if arrival < infinity then resends := (arrival, pos) :: !resends
            | On_completion { src_task; src_rep } ->
                if src_task <> esrc then
                  invalid_arg "Event_sim.Engine.inject: source task mismatch";
                if src_rep < 0 || src_rep >= n_replicas eng src_task then
                  invalid_arg "Event_sim.Engine.inject: source replica";
                (let tg = tag_of eng src_task src_rep in
                 if tg = t_done then
                   invalid_arg
                     "Event_sim.Engine.inject: source already completed \
                      (use Resend)"
                 else if tg = t_lost then
                   invalid_arg "Event_sim.Engine.inject: lost source");
                subs_to_add :=
                  {
                    ss_task = src_task;
                    ss_rep = src_rep;
                    ss_sub =
                      { sub_dst = task; sub_rep = k; sub_pos = pos;
                        sub_vol = vol };
                  }
                  :: !subs_to_add)
          sources)
      inputs;
    let r =
      {
        i_task = task;
        i_k = k;
        i_proc = proc;
        i_tag = t_waiting;
        i_start = 0.;
        i_finish = 0.;
        i_sat;
        i_pend;
        i_unsat = net;
        i_subs = [];
      }
    in
    let idx = add_inj eng r in
    eng.extra.(task) <- Array.append eng.extra.(task) [| idx |];
    List.iter
      (fun { ss_task; ss_rep; ss_sub } ->
        if ss_rep < tm.t_k then begin
          let srid = (ss_task * tm.t_k) + ss_rep in
          eng.subs.(srid) <- ss_sub :: eng.subs.(srid)
        end
        else begin
          let sr = inj_of eng ss_task ss_rep in
          sr.i_subs <- ss_sub :: sr.i_subs
        end)
      !subs_to_add;
    List.iter
      (fun (arrival, pos) -> push_event eng arrival ~a:task ~b:k ~c:pos)
      !resends;
    enqueue eng proc (tm.t_nstatic + idx);
    (* An injection decided at virtual time [now] cannot start earlier
       than [now], even on an idle processor.  Bumping the availability is
       safe: every event up to [now] is processed, so nothing else queued
       on [proc] could legally start before [now] either. *)
    if eng.free_at.(proc) < eng.now then eng.free_at.(proc) <- eng.now;
    Queue.add proc eng.dirty;
    drain_dirty eng;
    k

  (* Anything not completed when the event heap has drained can never
     run; report it as lost.  (After [drain] no replica is [Running]: a
     running replica always has a pending completion event.) *)
  let result eng =
    let tm = eng.tm in
    let outcomes =
      Array.init tm.t_v (fun t ->
          Array.init (n_replicas eng t) (fun k ->
              if k < tm.t_k then begin
                let rid = (t * tm.t_k) + k in
                if eng.tag.(rid) = t_done then
                  Completed
                    { start = eng.st_start.(rid); finish = eng.st_finish.(rid) }
                else Lost
              end
              else begin
                let r = inj_of eng t k in
                if r.i_tag = t_done then
                  Completed { start = r.i_start; finish = r.i_finish }
                else Lost
              end))
    in
    let all_tasks_ok =
      Array.for_all
        (Array.exists (function Completed _ -> true | Lost -> false))
        outcomes
    in
    let latency =
      if not all_tasks_ok then None
      else
        Some
          (Array.fold_left
             (fun acc e ->
               let first =
                 Array.fold_left
                   (fun best o ->
                     match o with
                     | Completed { finish; _ } -> Float.min best finish
                     | Lost -> best)
                   infinity outcomes.(e)
               in
               Float.max acc first)
             0. (Dag.exits tm.t_g))
    in
    {
      latency;
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
  Array.iter
    (fun p ->
      if p < 0 || p >= m then
        invalid_arg
          (Printf.sprintf "Event_sim.run_crash: processor %d not in [0, %d)" p m);
      fail_times.(p) <- 0.)
    scenario.Scenario.failed;
  run ?network ?faults s ~fail_times
