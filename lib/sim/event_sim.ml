(* The flat-array event engine.  Same semantics as the pairing-heap
   engine it replaced (kept frozen as the test oracle [Event_sim_ref]
   under test/oracle), rebuilt in the kernel driver's idiom:

   - every replica is a row of one table, indexed by a rid: the static
     grid's rows [rid = task * (eps+1) + k] first, then the replicas
     recovery injects at runtime, appended in injection order.  A row's
     state is a set of parallel arrays (tag/start/finish/unsatisfied-input
     count/first subscription/host processor) instead of a record per
     replica;
   - per-replica input slots ([satisfied_at], [pending_senders]) are two
     flat arrays addressed through a per-row offset table, replacing the
     [(task, edge) -> position] Hashtbl; an injected row appends its
     slots after the static ones;
   - a static row's plan receivers are not stored: when the row
     completes or is lost, one {!Comm_plan.receivers} walk over its
     task's successor row lists them, in the exact legacy order
     (out-edges, then the plan row's pairs of that source replica), into
     a stack the engine owns, so a loss cascading from inside the loop
     walks above it;
   - the event queue is {!Ftsched_ds.Heap}, the library's one array
     binary min-heap (the kernel's priority list is the other user), on
     [(at, seq, packed event)].  The order is total, so the pop order is
     implementation-independent and every pinned digest stays
     bit-for-bit;
   - per-processor planned queues are index cursors over flat arrays;
     re-injection appends at the tail in O(1) amortized where the list
     engine paid a full-copy [@ [x]] append.

   Two things tell the kinds of row apart: the [(task, rep) -> rid] map,
   and the static-row test, since only static rows have plan emissions
   and folded inputs.  Injected rows receive their inputs through one
   flat wiring table (a source row per entry, the subscriptions chained
   through it as int links) and re-sends, and keep the exact legacy
   ordering of subscriptions, re-sends and queue placement.

   Message-free replay.  Under the paper's network ([Contention_free],
   reliable links) a plan message's arrival is fixed when its sender
   completes: finish + vol * d, with no queue to wait in and no loss.
   There the engine sends no arrival events to static replicas.  A
   completing sender writes each message's arrival into its input slot
   (the earliest copy wins) under the sequence number its event would
   have taken, and counts it as processed.  Once every input of a
   replica has an arrival, one ready event is queued under the key of
   the latest one; a later sender that lowers that latest arrival queues
   a new ready event and leaves the old one stale.  The heap then holds
   completions and ready events only.

   The engine still answers as of [now].  An arrival counts as delivered
   once its (at, seq) key is at or below the largest key processed, or
   at or below the horizon [advance_until] reached, so [input_satisfied]
   and the start of a replica see exactly what the per-message engine
   has delivered at that point.  One case needs events: a completion
   popped below that high-water mark (a replica a loss unblocked starts
   in the past) sends its plan messages as arrival events, delivered
   first-copy-wins as before.  Port models, lossy links and outages,
   re-sends and subscriptions to injected replicas keep the per-message
   path. *)

module Dag = Ftsched_dag.Dag
module Platform = Ftsched_platform.Platform
module Instance = Ftsched_model.Instance
module Schedule = Ftsched_schedule.Schedule
module Comm_plan = Ftsched_schedule.Comm_plan
module Rng = Ftsched_util.Rng
module Heap = Ftsched_ds.Heap

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

let earliest_finish reps =
  Array.fold_left
    (fun best o ->
      match o with
      | Completed { finish; _ } -> Float.min best finish
      | Lost -> best)
    infinity reps

let first_finish r task = earliest_finish r.outcomes.(task)

type replica_state =
  | Waiting
  | Running of { start : float; finish : float }
  | Done of { start : float; finish : float }
  | Lost_replica

type row_state = Row_waiting | Row_running | Row_done | Row_lost

(* Replica tags in the flat grid. *)
let t_waiting = 0
and t_running = 1
and t_done = 2
and t_lost = 3

module Engine = struct
  type t = {
    g : Dag.t;
    pl : Platform.t;
    inst : Instance.t;
    plan : Comm_plan.t;
    eps : int;
    kk : int;  (* eps + 1 *)
    n_static : int;  (* v * (eps + 1) *)
    (* the DAG's CSR rows the emissions read: a message's destination
       task and edge from the successor row, its input position from
       [in_pos] (per edge id, its position in the destination's
       predecessor row), its volume from the predecessor row *)
    pred_off : int array;
    pred_edges : int array;
    pred_tasks : int array;
    pred_vol : float array;
    succ_off : int array;
    succ_edges : int array;
    succ_tasks : int array;
    in_pos : int array;
    (* The receivers walks' output, a stack: a walk writes its entries
       (successor-row index, destination replica) from [w_top] up and
       pops them when its loop is done, so a walk nested in that loop (a
       loss cascading) writes above them.  [w_row] bounds one edge's
       entries. *)
    w_row : int;
    mutable w_idx : int array;
    mutable w_dst : int array;
    mutable w_top : int;
    from : int array;  (* [exists_source]'s plan-senders walk *)
    faults : Scenario.comm_faults;
    frng : Rng.t;  (* loss-draw stream; untouched when faults are reliable *)
    fault_free : bool;
    mutable retransmissions : int;
    mutable lost_messages : int;
    fail_times : float array;
    (* The replica table, one row per rid: the static grid's rows first,
       then the injected replicas in injection order.  Rows grow by an
       eighth when [inject] runs out of room. *)
    mutable n_rows : int;
    mutable tag : int array;
    mutable st_start : float array;
    mutable st_finish : float array;
    mutable unsat : int array;  (* input positions not yet satisfied *)
    mutable sub_head : int array;  (* newest wiring entry subscribed, or -1 *)
    mutable proc : int array;  (* host processor *)
    mutable key : int array;  (* (task, rep) packed as a payload key *)
    mutable slot_off : int array;  (* length >= n_rows + 1 *)
    (* input slots, indexed through [slot_off]: the first delivered
       arrival ([infinity] = none yet) and the count of senders not yet
       lost.  In the message-free path a static slot's [sat] holds the
       earliest arrival written so far, delivered or not, and once it has
       one [pend] holds that arrival's sequence number instead: a slot
       with an arrival can no longer starve, so its count is never read.
       Injected rows append their slots past the static ones. *)
    mutable sat : float array;
    mutable pend : int array;
    (* The wiring table of injected rows, one entry per (input slot,
       source) in injection order: the source row [wire_src], the
       receiving row and slot [wire_row], [wire_slot], and [wire_next],
       the next older entry subscribed to the same source's completion
       (-1 for none; a re-send's entry is in no chain).  Injected slot [s]'s
       entries are [wire_lo.(s - slot_off.(n_static))] up to the next
       slot's first. *)
    mutable wire_lo : int array;
    mutable wire_src : int array;
    mutable wire_row : int array;
    mutable wire_slot : int array;
    mutable wire_next : int array;
    mutable n_wire : int;
    extra : int array array;  (* per task: injected rids, in order *)
    n_extra : int array;  (* per task: its injected rids in [extra] *)
    (* per-processor planned queues as cursors over flat arrays *)
    q_buf : int array array;
    q_head : int array;
    q_tail : int array;
    free_at : float array;
    ports : float array array;
    recv_ports : float array array;
    heap : Heap.t;
    mutable seq : int;
    mutable events : int;
    mutable pops : int;
    dirty : int Queue.t;
    mutable now : float;
    (* The message-free path (see the header comment): [fold] is set
       under the contention-free network with reliable links.  [rdy]
       holds, per static rid whose inputs all have an arrival, the slot
       of its latest one (-1 for a replica without inputs); [hi_at,
       hi_seq] is the largest (at, seq) key delivered so far; [vmax_at,
       vmax_seq] the largest key of any folded arrival. *)
    fold : bool;
    rdy : int array;
    mutable hi_at : float;
    mutable hi_seq : int;
    mutable vmax_at : float;
    mutable vmax_seq : int;
    (* rows lost since the last [drain_lost], in loss order *)
    mutable lost_log : int array;
    mutable n_lost_log : int;
  }

  (* Event encoding in the heap payload: [(a, b, c)] is
     [(task, k, edge_pos)] for an arrival and [(task, k, -1)] for a
     completion, packed into one word at 21 bits per field (the position
     is stored shifted by one so -1 packs as 0).  A ready event is packed
     as the arrival of the input that completes its replica's inputs.
     A row's key is its [(task, k)] prefix.  [create] bounds the task
     count below 2^21 — which also bounds in-edge positions — and
     [inject] bounds the replica index. *)
  let payload_bits = 21
  let payload_mask = (1 lsl payload_bits) - 1
  let key_of ~task ~rep = (task lsl payload_bits) lor rep
  let payload key pos = (key lsl payload_bits) lor (pos + 1)
  let encode ~a ~b ~c = payload (key_of ~task:a ~rep:b) c
  let task_of p = p lsr (2 * payload_bits)
  let rep_of p = (p lsr payload_bits) land payload_mask
  let pos_of p = (p land payload_mask) - 1
  let decode p = (task_of p, rep_of p, pos_of p)

  let check_tasks v =
    if v > payload_mask then
      invalid_arg "Event_sim.run: task count exceeds the event encoding"

  let check_replica k =
    if k > payload_mask then
      invalid_arg "Event_sim.Engine.inject: replica index exceeds the event encoding"

  (* Event [pos] (-1 = completion) of row [rid] at [at].  Inlined, like
     [arrival_event], so that [at] stays unboxed up to the heap. *)
  let[@inline] push_event eng at rid pos =
    eng.seq <- eng.seq + 1;
    Heap.push eng.heap ~key:at ~seq:eng.seq ~payload:(payload eng.key.(rid) pos)

  (* The two places that tell the kinds of replica apart.  Replica [rep]
     of [task] is a static row below [n_static] or an injected one; and
     only static rows have plan emissions and, under [fold], folded
     inputs. *)
  let rid_of eng task rep =
    if rep < eng.kk then (task * eng.kk) + rep
    else eng.extra.(task).(rep - eng.kk)

  let row_task eng rid = eng.key.(rid) lsr payload_bits

  let static_row eng rid = rid < eng.n_static
  let folded eng rid = eng.fold && static_row eng rid

  let grown a len fill =
    let b = Array.make len fill in
    Array.blit a 0 b 0 (Array.length a);
    b

  (* The plan receivers of static row [rid]: one {!Comm_plan.receivers}
     walk over its task's successor row, pushed on the walk stack.  They
     are the entries [lo] (returned) to [w_top − 1]; the caller pops
     them with [w_top <- lo] once its loop is done. *)
  let walk eng rid =
    let task = rid / eng.kk and lo = eng.w_top in
    let s0 = eng.succ_off.(task) and s1 = eng.succ_off.(task + 1) in
    let need = lo + ((s1 - s0) * eng.w_row) in
    if need > Array.length eng.w_idx then begin
      let len = max need (2 * Array.length eng.w_idx) in
      eng.w_idx <- grown eng.w_idx len 0;
      eng.w_dst <- grown eng.w_dst len 0
    end;
    eng.w_top <-
      Comm_plan.receivers eng.plan ~eps:eng.eps eng.succ_edges ~lo:s0 ~hi:s1
        ~src:(rid mod eng.kk) ~idx:eng.w_idx ~dsts:eng.w_dst ~at:lo;
    lo

  (* Has the arrival keyed [(at, seq)] been delivered?  Keys at or below
     the delivered high-water mark have been. *)
  let delivered eng at seq =
    at < eng.hi_at || (at = eng.hi_at && seq <= eng.hi_seq)

  let slot_delivered eng slot =
    eng.sat.(slot) < infinity && delivered eng eng.sat.(slot) eng.pend.(slot)

  (* All inputs of static [rid] have an arrival: record the latest one
     (by (at, seq) key) and, unless it is already delivered, schedule
     the ready event under that arrival's own key, so it pops exactly
     where the per-message engine would have delivered the last input.
     An earlier ready event of the replica goes stale: its key no longer
     matches the slot's. *)
  let settle_ready eng rid =
    let base = eng.slot_off.(rid) and lim = eng.slot_off.(rid + 1) in
    let best = ref base in
    for i = base + 1 to lim - 1 do
      let a = eng.sat.(i) and b = eng.sat.(!best) in
      if a > b || (a = b && eng.pend.(i) > eng.pend.(!best)) then best := i
    done;
    let slot = !best in
    eng.rdy.(rid) <- slot;
    let at = eng.sat.(slot) and seq = eng.pend.(slot) in
    if not (delivered eng at seq) then
      Heap.push eng.heap ~key:at ~seq
        ~payload:(payload eng.key.(rid) (slot - base))

  let log_loss eng rid =
    let n = eng.n_lost_log in
    if n = Array.length eng.lost_log then begin
      let log = Array.make (max 16 (2 * n)) 0 in
      Array.blit eng.lost_log 0 log 0 n;
      eng.lost_log <- log
    end;
    eng.lost_log.(n) <- rid;
    eng.n_lost_log <- n + 1

  (* Losing a replica cascades: every plan receiver and runtime
     subscriber loses one potential sender. *)
  let rec lose eng rid =
    let tg = eng.tag.(rid) in
    if tg = t_waiting || tg = t_running then begin
      eng.tag.(rid) <- t_lost;
      log_loss eng rid;
      Queue.add eng.proc.(rid) eng.dirty;
      if static_row eng rid then begin
        (* As of now, a lost replica has only the arrivals already
           delivered; forget the folded ones still in flight. *)
        if eng.fold then
          for slot = eng.slot_off.(rid) to eng.slot_off.(rid + 1) - 1 do
            if not (slot_delivered eng slot) then eng.sat.(slot) <- infinity
          done;
        let lo = walk eng rid in
        for i = lo to eng.w_top - 1 do
          let j = eng.w_idx.(i) in
          let drid = (eng.succ_tasks.(j) * eng.kk) + eng.w_dst.(i) in
          drop_sender eng drid
            (eng.slot_off.(drid) + eng.in_pos.(eng.succ_edges.(j)))
        done;
        eng.w_top <- lo
      end;
      let w = ref eng.sub_head.(rid) in
      while !w >= 0 do
        drop_sender eng eng.wire_row.(!w) eng.wire_slot.(!w);
        w := eng.wire_next.(!w)
      done
    end

  (* One potential sender of input [slot] of row [rid] is gone: an input
     with no arrival and no sender left is dead, and kills its (still
     waiting) receiver.  Once a slot has an arrival its count is never
     read again (in the message-free path it holds a sequence number). *)
  and drop_sender eng rid slot =
    if eng.sat.(slot) = infinity then begin
      eng.pend.(slot) <- eng.pend.(slot) - 1;
      if eng.pend.(slot) = 0 then lose eng rid
    end

  let try_advance eng p =
    let continue_p = ref true in
    while !continue_p do
      if eng.q_head.(p) >= eng.q_tail.(p) then continue_p := false
      else begin
        let rid = eng.q_buf.(p).(eng.q_head.(p)) in
        let tg = eng.tag.(rid) in
        if tg = t_done || tg = t_lost then eng.q_head.(p) <- eng.q_head.(p) + 1
        else if tg = t_running then continue_p := false
        else if
          eng.unsat.(rid) = 0
          && ((not (folded eng rid)) || eng.rdy.(rid) < 0
             || slot_delivered eng eng.rdy.(rid))
        then begin
          let inputs_ready =
            if folded eng rid then
              if eng.rdy.(rid) < 0 then 0. else eng.sat.(eng.rdy.(rid))
            else begin
              let latest = ref 0. in
              for i = eng.slot_off.(rid) to eng.slot_off.(rid + 1) - 1 do
                if eng.sat.(i) > !latest then latest := eng.sat.(i)
              done;
              !latest
            end
          in
          let start = Float.max inputs_ready eng.free_at.(p) in
          let finish =
            start +. (Instance.exec_row eng.inst (row_task eng rid)).(p)
          in
          if start >= eng.fail_times.(p) || finish > eng.fail_times.(p)
          then begin
            lose eng rid;
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
            push_event eng finish rid (-1);
            continue_p := false
          end
        end
        else continue_p := false
      end
    done

  let drain_dirty eng =
    while not (Queue.is_empty eng.dirty) do
      try_advance eng (Queue.pop eng.dirty)
    done

  (* A NaN crash instant compares false against every time, so the
     engine would read it as "never fails". *)
  let validate_fail_times ~m fail_times =
    if Array.length fail_times <> m then
      invalid_arg "Event_sim.run: fail_times";
    if Array.exists Float.is_nan fail_times then
      invalid_arg "Event_sim.run: NaN fail time"

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

  (* Slot capacity for [n] slots: an eighth more, so the first injections
     of a recovery append in place instead of copying every static
     slot. *)
  let with_headroom n = n + max 64 (n / 8)

  let create ?(network = Contention_free) ?(faults = Scenario.reliable) ?release
      s ~fail_times =
    let inst = Schedule.instance s in
    let g = Instance.dag inst in
    let m = Instance.n_procs inst in
    validate_fail_times ~m fail_times;
    validate_release ~m release;
    validate_faults ~m faults;
    let eps = Schedule.eps s and plan = Schedule.comm s in
    let v = Dag.n_tasks g in
    check_tasks v;
    let kk = eps + 1 in
    let n_static = v * kk in
    let pred_off = Dag.Csr.pred_offsets g and pred_edges = Dag.Csr.pred_edges g in
    (* An input is addressed by its position in the task's predecessor
       row (the engine's position contract); [in_pos] is the inverse
       edge -> position map. *)
    let in_pos = Array.make (Dag.n_edges g) 0 in
    for t = 0 to v - 1 do
      for k = pred_off.(t) to pred_off.(t + 1) - 1 do
        in_pos.(pred_edges.(k)) <- k - pred_off.(t)
      done
    done;
    let slot_off = Array.make (n_static + 1) 0 in
    for t = 0 to v - 1 do
      let nt = pred_off.(t + 1) - pred_off.(t) in
      for k = 0 to kk - 1 do
        let rid = (t * kk) + k in
        slot_off.(rid + 1) <- slot_off.(rid) + nt
      done
    done;
    (* A task's slots are one replica-major block, so one walk of its
       predecessor row counts the pending senders of all of them, one per
       retained plan pair. *)
    let n_slots = slot_off.(n_static) in
    let pend = Array.make (with_headroom n_slots) 0 in
    for t = 0 to v - 1 do
      Comm_plan.sender_counts plan ~eps pred_edges ~lo:pred_off.(t)
        ~hi:pred_off.(t + 1) ~counts:pend ~at:slot_off.(t * kk)
    done;
    let w = Comm_plan.widest plan ~eps in
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
    let q_buf =
      Array.init m (fun p ->
          Array.map
            (fun (r : Schedule.replica) -> (r.task * kk) + r.index)
            (Schedule.timeline s p))
    in
    let eng =
      {
        g;
        pl = Instance.platform inst;
        inst; plan; eps; kk; n_static;
        pred_off; pred_edges;
        pred_tasks = Dag.Csr.pred_tasks g;
        pred_vol = Dag.Csr.pred_volumes g;
        succ_off = Dag.Csr.succ_offsets g;
        succ_edges = Dag.Csr.succ_edges g;
        succ_tasks = Dag.Csr.succ_tasks g;
        in_pos;
        w_row = w;
        w_idx = [||];
        w_dst = [||];
        w_top = 0;
        from = Array.make w 0;
        faults;
        frng = Rng.create ~seed:faults.Scenario.seed;
        fault_free = Scenario.is_reliable faults;
        retransmissions = 0;
        lost_messages = 0;
        fail_times;
        n_rows = n_static;
        tag = Array.make n_static t_waiting;
        st_start = Array.make n_static 0.;
        st_finish = Array.make n_static 0.;
        unsat =
          Array.init n_static (fun rid -> slot_off.(rid + 1) - slot_off.(rid));
        sub_head = Array.make n_static (-1);
        proc =
          Array.init n_static (fun rid ->
              (Schedule.replica s (rid / kk) (rid mod kk)).Schedule.proc);
        key =
          Array.init n_static (fun rid ->
              key_of ~task:(rid / kk) ~rep:(rid mod kk));
        slot_off;
        sat = Array.make (with_headroom n_slots) infinity;
        pend;
        wire_lo = [||];
        wire_src = [||];
        wire_row = [||];
        wire_slot = [||];
        wire_next = [||];
        n_wire = 0;
        extra = Array.make v [||];
        n_extra = Array.make v 0;
        q_buf;
        q_head = Array.make m 0;
        q_tail = Array.map Array.length q_buf;
        (* Residual occupancy: the processor is busy with foreign work
           until its release instant and cannot start replicas before. *)
        free_at =
          (match release with
          | Some r -> Array.copy r
          | None -> Array.make m 0.);
        ports; recv_ports;
        heap = Heap.create ~capacity:(max 64 n_static) ();
        seq = 0;
        events = 0;
        pops = 0;
        dirty = Queue.create ();
        now = 0.;
        fold = network = Contention_free && Scenario.is_reliable faults;
        rdy = Array.make n_static (-1);
        hi_at = neg_infinity;
        hi_seq = 0;
        vmax_at = neg_infinity;
        vmax_seq = 0;
        lost_log = [||];
        n_lost_log = 0;
      }
    in
    (* Processors whose planned head is an entry replica can start at t=0;
       dead-at-0 processors immediately lose their whole queue. *)
    for p = 0 to m - 1 do
      try_advance eng p;
      drain_dirty eng
    done;
    eng

  (* One message to deliver, to input [slot] of row [rid]. *)
  let[@inline] arrival_event eng at rid slot =
    push_event eng at rid (slot - eng.slot_off.(rid))

  (* Index of the earliest-free port. *)
  let min_idx port_free =
    let best = ref 0 in
    for i = 1 to Array.length port_free - 1 do
      if port_free.(i) < port_free.(!best) then best := i
    done;
    !best

  (* One message from completed row [srid] to input [slot] of row [rid]:
     its volume is entry [vi] of the predecessor CSR, its delay entry
     [proc rid] of [drow], the sender's delay row.  Only ints and arrays
     come in and the floats stay local, so a message boxes no float here
     (the heap's push, across libraries, boxes its key).

     Under a port model a non-local message must wait for a free
     outgoing port, and dies with the sender if the transfer has not
     finished by the sender's failure instant.

     On lossy links attempt [i] departs at [depart] and would arrive [w]
     later; a per-attempt Bernoulli draw or an outage window on the
     (sender, destination) link claims it.  The sender notices at an ack
     timeout of [rtt_factor *. w] after departure — doubled on each
     attempt, exponential backoff — and retries, never past its own
     death, up to [retries] times.  A message that exhausts its retries
     is declared permanently lost and feeds the same starvation
     accounting as a sender death.  Retries bypass the port booking: the
     plan priced one transfer per message, and charging ports for
     adversarial re-sends would let a fault perturb fault-free traffic
     ordering (same simplification as the recovery layer's re-sends). *)
  let emit eng ~srid ~drow rid slot vi =
    let src_proc = eng.proc.(srid) and dproc = eng.proc.(rid) in
    let finish = eng.st_finish.(srid) and w = eng.pred_vol.(vi) *. drow.(dproc) in
    if w = 0. then arrival_event eng (finish +. w) rid slot
    else begin
      (* [infinity] once the sender's death cuts the transfer off *)
      let depart = ref finish in
      if Array.length eng.ports > 0 then begin
        let send_free = eng.ports.(src_proc) and recv_free = eng.recv_ports in
        let si = min_idx send_free and duplex = Array.length recv_free > 0 in
        let recv_free = if duplex then recv_free.(dproc) else send_free in
        let ri = min_idx recv_free in
        depart := Float.max finish send_free.(si);
        if duplex then depart := Float.max !depart recv_free.(ri);
        if !depart +. w <= eng.fail_times.(src_proc) then begin
          send_free.(si) <- !depart +. w;
          if duplex then recv_free.(ri) <- !depart +. w
        end
        else depart := infinity
      end;
      if !depart = infinity then drop_sender eng rid slot
      else if eng.fault_free then arrival_event eng (!depart +. w) rid slot
      else begin
        (* attempt [!i] departs at [!depart]; -1 once it is settled *)
        let f = eng.faults and i = ref 0 in
        while !i >= 0 do
          let arrival = !depart +. w in
          if
            not
              (Rng.bernoulli eng.frng f.Scenario.loss
              || (f.Scenario.outages <> []
                 && Scenario.in_outage f ~src:src_proc ~dst:dproc ~at:arrival))
          then begin
            i := -1;
            arrival_event eng arrival rid slot
          end
          else begin
            let redepart = !depart +. (f.Scenario.rtt_factor *. w *. ldexp 1. !i) in
            (* out of retries, or the sender dies before it can re-send *)
            if !i < f.Scenario.retries && redepart <= eng.fail_times.(src_proc)
            then begin
              eng.retransmissions <- eng.retransmissions + 1;
              depart := redepart;
              incr i
            end
            else begin
              i := -1;
              eng.lost_messages <- eng.lost_messages + 1;
              drop_sender eng rid slot
            end
          end
        done
      end
    end

  (* The message-free path's emission: a plan message from completed
     row [srid] to input [slot] of row [drid] arrives at [finish + w],
     fixed now.  It takes the sequence number its arrival event would
     have taken and counts as processed; its slot keeps the earliest
     arrival (first copy wins), and the receiver gets one ready event
     once every input has an arrival.  [vi] and [drow] are as in
     [emit]. *)
  let fold_arrival eng ~srid ~drow drid slot vi =
    let w = eng.pred_vol.(vi) *. drow.(eng.proc.(drid)) in
    let at = eng.st_finish.(srid) +. w in
    eng.seq <- eng.seq + 1;
    eng.events <- eng.events + 1;
    if at >= eng.vmax_at then begin
      eng.vmax_at <- at;
      eng.vmax_seq <- eng.seq
    end;
    if eng.tag.(drid) = t_waiting then begin
      if eng.sat.(slot) = infinity then begin
        eng.sat.(slot) <- at;
        eng.pend.(slot) <- eng.seq;
        eng.unsat.(drid) <- eng.unsat.(drid) - 1;
        if eng.unsat.(drid) = 0 then settle_ready eng drid
      end
      else if at < eng.sat.(slot) then begin
        eng.sat.(slot) <- at;
        eng.pend.(slot) <- eng.seq;
        if eng.unsat.(drid) = 0 && eng.rdy.(drid) = slot then
          settle_ready eng drid
      end
    end

  (* Emit one message per retained plan pair originating at completed
     static row [rid], plus one per runtime subscription, newest first;
     a dropped message costs the receiver one potential sender.  In the
     message-free path the plan messages of a completion popped in order
     are folded; those of a retroactive one are arrival events, counted
     here like the folded ones. *)
  let emit_completions eng ~retro rid =
    let drow = Platform.delay_row eng.pl eng.proc.(rid) in
    if static_row eng rid then begin
      let lo = walk eng rid in
      for i = lo to eng.w_top - 1 do
        let j = eng.w_idx.(i) in
        let dst = eng.succ_tasks.(j) and pos = eng.in_pos.(eng.succ_edges.(j)) in
        let drid = (dst * eng.kk) + eng.w_dst.(i) in
        let slot = eng.slot_off.(drid) + pos and vi = eng.pred_off.(dst) + pos in
        if eng.fold && not retro then fold_arrival eng ~srid:rid ~drow drid slot vi
        else begin
          if eng.fold then eng.events <- eng.events + 1;
          emit eng ~srid:rid ~drow drid slot vi
        end
      done;
      eng.w_top <- lo
    end;
    let w = ref eng.sub_head.(rid) in
    while !w >= 0 do
      let drid = eng.wire_row.(!w) and slot = eng.wire_slot.(!w) in
      let vi = eng.pred_off.(row_task eng drid) + slot - eng.slot_off.(drid) in
      emit eng ~srid:rid ~drow drid slot vi;
      w := eng.wire_next.(!w)
    done

  (* A pop of an arrival-kind event for a static replica in the
     message-free path: its ready event (the key recorded in the slot),
     a stale ready event, or an arrival sent as an event (see
     [process]).  None counts: folded arrivals were counted when sent. *)
  let static_arrival eng ~at ~seq rid slot =
    if eng.tag.(rid) = t_waiting then begin
      let ready_event = eng.sat.(slot) = at && eng.pend.(slot) = seq in
      if (not ready_event) && not (slot_delivered eng slot) then begin
        (* first copy delivered, as the per-message engine does *)
        if eng.sat.(slot) = infinity then
          eng.unsat.(rid) <- eng.unsat.(rid) - 1;
        let was_latest = eng.rdy.(rid) = slot in
        eng.sat.(slot) <- at;
        eng.pend.(slot) <- seq;
        if eng.unsat.(rid) = 0 && (was_latest || eng.rdy.(rid) < 0) then
          settle_ready eng rid
      end;
      try_advance eng eng.proc.(rid)
    end

  let process eng ~at ~seq ~retro ~a:task ~b:k ~c =
    eng.now <- at;
    let rid = rid_of eng task k in
    if c >= 0 && folded eng rid then
      static_arrival eng ~at ~seq rid (eng.slot_off.(rid) + c)
    else if c >= 0 then begin
      (* arrival of a copy of input [c] *)
      eng.events <- eng.events + 1;
      if eng.tag.(rid) = t_waiting then begin
        let slot = eng.slot_off.(rid) + c in
        if eng.sat.(slot) = infinity then begin
          eng.sat.(slot) <- at;
          eng.unsat.(rid) <- eng.unsat.(rid) - 1
        end;
        try_advance eng eng.proc.(rid)
      end
    end
    else begin
      eng.events <- eng.events + 1;
      (* A completion event for a replica that was lost in the meantime
         cannot happen: losses only strike waiting replicas or processors
         already checked at start. *)
      assert (eng.tag.(rid) = t_running);
      eng.tag.(rid) <- t_done;
      let p = eng.proc.(rid) in
      eng.free_at.(p) <- eng.st_finish.(rid);
      emit_completions eng ~retro rid;
      try_advance eng p
    end;
    drain_dirty eng

  (* A pop below the high-water mark is retroactive: a replica unblocked
     by a loss may start, and so complete, before instants already
     processed.  Which folded arrivals the per-message engine would have
     delivered by then is not a matter of keys any more, so such a
     completion sends its plan messages as events. *)
  let pop_and_process eng =
    let at = Heap.min_key eng.heap and seq = Heap.min_seq eng.heap in
    let p = Heap.min_payload eng.heap in
    Heap.drop_min eng.heap;
    eng.pops <- eng.pops + 1;
    let retro = delivered eng at seq in
    if not retro then begin
      eng.hi_at <- at;
      eng.hi_seq <- seq
    end;
    process eng ~at ~seq ~retro ~a:(task_of p) ~b:(rep_of p) ~c:(pos_of p)

  (* Every folded arrival up to the horizon counts as delivered; after a
     full drain the per-message engine's last event would be the latest
     folded arrival, if that comes after every popped event. *)
  let settle_horizon eng horizon =
    if horizon < infinity then begin
      if not (delivered eng horizon max_int) then begin
        eng.hi_at <- horizon;
        eng.hi_seq <- max_int
      end;
      if horizon > eng.now then eng.now <- horizon
    end
    else if not (delivered eng eng.vmax_at eng.vmax_seq) then begin
      eng.now <- eng.vmax_at;
      eng.hi_at <- eng.vmax_at;
      eng.hi_seq <- eng.vmax_seq
    end

  let advance_until eng horizon =
    let continue_sim = ref true in
    while !continue_sim do
      if Heap.is_empty eng.heap || Heap.min_key eng.heap > horizon then
        continue_sim := false
      else pop_and_process eng
    done;
    settle_horizon eng horizon

  let drain eng = advance_until eng infinity
  let now eng = eng.now
  let events_processed eng = eng.events
  let heap_pops eng = eng.pops
  let n_replicas eng task = eng.kk + eng.n_extra.(task)

  let replica_state eng ~task ~rep =
    let rid = rid_of eng task rep in
    let tg = eng.tag.(rid) in
    if tg = t_waiting then Waiting
    else if tg = t_running then
      Running { start = eng.st_start.(rid); finish = eng.st_finish.(rid) }
    else if tg = t_done then
      Done { start = eng.st_start.(rid); finish = eng.st_finish.(rid) }
    else Lost_replica

  let replica_proc eng ~task ~rep = eng.proc.(rid_of eng task rep)
  let free_at eng p = eng.free_at.(p)
  let rid eng ~task ~rep = rid_of eng task rep

  let row_state eng rid =
    let tg = eng.tag.(rid) in
    if tg = t_waiting then Row_waiting
    else if tg = t_running then Row_running
    else if tg = t_done then Row_done
    else Row_lost

  let row_finish eng rid = eng.st_finish.(rid)
  let row_proc eng rid = eng.proc.(rid)
  let iter_hosted eng p f =
    let buf = eng.q_buf.(p) in
    for i = 0 to eng.q_tail.(p) - 1 do
      f buf.(i)
    done

  let drain_lost eng f =
    (* [f] may lose more rows; they join the log behind the ones read *)
    let i = ref 0 in
    while !i < eng.n_lost_log do
      f eng.lost_log.(!i);
      incr i
    done;
    eng.n_lost_log <- 0

  let row_input_satisfied eng rid pos =
    let slot = eng.slot_off.(rid) + pos in
    if folded eng rid then slot_delivered eng slot
    else eng.sat.(slot) < infinity

  let input_satisfied eng ~task ~rep ~pos =
    row_input_satisfied eng (rid_of eng task rep) pos

  let kill_replica eng ~task ~rep =
    let rid = rid_of eng task rep in
    match eng.tag.(rid) with
    | tg when tg = t_waiting ->
        (* The kill is a decision taken at virtual time [now]; whatever
           was queued behind the killed replica only becomes runnable
           now, not retroactively. *)
        let p = eng.proc.(rid) in
        if eng.free_at.(p) < eng.now then eng.free_at.(p) <- eng.now;
        lose eng rid;
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

  (* Room for one more row with [n] input slots fed by [n_src] sources.
     Both the rows and the slots grow by an eighth, so a recovery that
     injects a few hundred replicas copies the large static slot arrays
     once or twice instead of doubling them; the wiring, which only
     injected rows have, doubles. *)
  let reserve eng n n_src =
    let rows = Array.length eng.tag in
    if eng.n_rows = rows then begin
      let len = rows + max 16 (rows / 8) in
      eng.tag <- grown eng.tag len t_waiting;
      eng.st_start <- grown eng.st_start len 0.;
      eng.st_finish <- grown eng.st_finish len 0.;
      eng.unsat <- grown eng.unsat len 0;
      eng.sub_head <- grown eng.sub_head len (-1);
      eng.proc <- grown eng.proc len 0;
      eng.key <- grown eng.key len 0;
      eng.slot_off <- grown eng.slot_off (len + 1) 0
    end;
    let used = eng.slot_off.(eng.n_rows) and slots = Array.length eng.sat in
    if used + n > slots then begin
      let len = max (used + n) (with_headroom slots) in
      eng.sat <- grown eng.sat len infinity;
      eng.pend <- grown eng.pend len 0
    end;
    let wired = used + n + 1 - eng.slot_off.(eng.n_static) in
    if wired > Array.length eng.wire_lo then
      eng.wire_lo <- grown eng.wire_lo (max wired (2 * Array.length eng.wire_lo)) 0;
    let need = eng.n_wire + n_src in
    if need > Array.length eng.wire_src then begin
      let len = max (max 64 need) (2 * Array.length eng.wire_src) in
      eng.wire_src <- grown eng.wire_src len 0;
      eng.wire_row <- grown eng.wire_row len 0;
      eng.wire_slot <- grown eng.wire_slot len 0;
      eng.wire_next <- grown eng.wire_next len (-1)
    end

  let on_completion = neg_infinity

  let inject eng ~task ~proc ~src_lo ~src_row ~src_at =
    if task < 0 || task >= Array.length eng.extra then
      invalid_arg "Event_sim.Engine.inject: task";
    if proc < 0 || proc >= Array.length eng.free_at then
      invalid_arg "Event_sim.Engine.inject: proc";
    let pbase = eng.pred_off.(task) in
    let net = eng.pred_off.(task + 1) - pbase in
    if Array.length src_lo <= net then
      invalid_arg "Event_sim.Engine.inject: one source range per in-edge";
    let k = eng.kk + eng.n_extra.(task) in
    check_replica k;
    reserve eng net (src_lo.(net) - src_lo.(0));
    (* Validate every source while writing the row's slots and wiring
       past the used ones, and publish the row only then: a malformed
       call must not leave a half-wired ghost behind. *)
    let rid = eng.n_rows and n_static_slots = eng.slot_off.(eng.n_static) in
    let base = eng.slot_off.(rid) and w0 = eng.n_wire - src_lo.(0) in
    for pos = 0 to net - 1 do
      let slot = base + pos in
      if src_lo.(pos + 1) <= src_lo.(pos) then
        invalid_arg "Event_sim.Engine.inject: input with no source";
      eng.pend.(slot) <- src_lo.(pos + 1) - src_lo.(pos);
      eng.wire_lo.(slot - n_static_slots) <- w0 + src_lo.(pos);
      for i = src_lo.(pos) to src_lo.(pos + 1) - 1 do
        let srid = src_row.(i) and at = src_at.(i) in
        if srid < 0 || srid >= eng.n_rows then
          invalid_arg "Event_sim.Engine.inject: source row";
        if row_task eng srid <> eng.pred_tasks.(pbase + pos) then
          invalid_arg "Event_sim.Engine.inject: source task mismatch";
        if at = on_completion then begin
          if eng.tag.(srid) = t_done || eng.tag.(srid) = t_lost then
            invalid_arg "Event_sim.Engine.inject: subscribed source done or lost"
        end
        else if Float.is_nan at then
          invalid_arg "Event_sim.Engine.inject: NaN arrival"
        else if at < eng.now then
          invalid_arg "Event_sim.Engine.inject: arrival in the past";
        eng.wire_src.(w0 + i) <- srid;
        eng.wire_row.(w0 + i) <- rid;
        eng.wire_slot.(w0 + i) <- slot;
        eng.wire_next.(w0 + i) <- -1
      done
    done;
    (* Publish the row.  Rows and slots past the used ones are fresh from
       [reserve]: waiting, no subscribers, no arrival. *)
    eng.n_wire <- w0 + src_lo.(net);
    eng.wire_lo.(base + net - n_static_slots) <- eng.n_wire;
    eng.unsat.(rid) <- net;
    eng.proc.(rid) <- proc;
    eng.key.(rid) <- key_of ~task ~rep:k;
    eng.slot_off.(rid + 1) <- base + net;
    eng.n_rows <- rid + 1;
    let n = eng.n_extra.(task) in
    if n = Array.length eng.extra.(task) then
      eng.extra.(task) <- grown eng.extra.(task) (max 2 (2 * n)) 0;
    eng.extra.(task).(n) <- rid;
    eng.n_extra.(task) <- n + 1;
    (* Subscriptions and re-sends, last source first: the order the
       legacy source lists took them in, which fixes the subscribers'
       emission order and the re-sends' sequence numbers. *)
    for pos = net - 1 downto 0 do
      for i = src_lo.(pos + 1) - 1 downto src_lo.(pos) do
        let at = src_at.(i) in
        if at = on_completion then begin
          let srid = src_row.(i) in
          eng.wire_next.(w0 + i) <- eng.sub_head.(srid);
          eng.sub_head.(srid) <- w0 + i
        end
        else if at < infinity then push_event eng at rid pos
      done
    done;
    enqueue eng proc rid;
    (* An injection decided at virtual time [now] cannot start earlier
       than [now], even on an idle processor.  Bumping the availability is
       safe: every event up to [now] is processed, so nothing else queued
       on [proc] could legally start before [now] either. *)
    if eng.free_at.(proc) < eng.now then eng.free_at.(proc) <- eng.now;
    Queue.add proc eng.dirty;
    drain_dirty eng;
    k

  let exists_source eng rid pos f =
    if static_row eng rid then begin
      let k = eng.pred_off.(row_task eng rid) + pos in
      let n =
        Comm_plan.senders eng.plan ~eps:eng.eps eng.pred_edges.(k)
          ~dst:(rid mod eng.kk) eng.from
      in
      let src = eng.pred_tasks.(k) * eng.kk and i = ref 0 in
      while !i < n && not (f (src + eng.from.(!i))) do
        incr i
      done;
      !i < n
    end
    else begin
      let s = eng.slot_off.(rid) + pos - eng.slot_off.(eng.n_static) in
      let i = ref eng.wire_lo.(s) in
      while !i < eng.wire_lo.(s + 1) && not (f eng.wire_src.(!i)) do
        incr i
      done;
      !i < eng.wire_lo.(s + 1)
    end

  (* Anything not completed when the event heap has drained can never
     run; report it as lost.  (After [drain] no replica is [Running]: a
     running replica always has a pending completion event.) *)
  let result eng =
    let outcomes =
      Array.init (Array.length eng.extra) (fun t ->
          Array.init (n_replicas eng t) (fun k ->
              let rid = rid_of eng t k in
              if eng.tag.(rid) = t_done then
                Completed
                  { start = eng.st_start.(rid); finish = eng.st_finish.(rid) }
              else Lost))
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
             (fun acc e -> Float.max acc (earliest_finish outcomes.(e)))
             0. (Dag.exits eng.g))
    in
    {
      latency;
      outcomes;
      events_processed = eng.events;
      retransmissions = eng.retransmissions;
      lost_messages = eng.lost_messages;
    }
end

module Private = struct
  let payload_bits = Engine.payload_bits
  let encode ~task ~rep ~pos = Engine.encode ~a:task ~b:rep ~c:pos
  let decode = Engine.decode
  let check_tasks = Engine.check_tasks
  let check_replica = Engine.check_replica
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
      if Float.is_nan at then invalid_arg "Event_sim.run_timed: NaN instant";
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
