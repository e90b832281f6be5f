module Dag = Ftsched_dag.Dag
module Platform = Ftsched_platform.Platform
module Instance = Ftsched_model.Instance
module Schedule = Ftsched_schedule.Schedule
module Comm_plan = Ftsched_schedule.Comm_plan
module Rng = Ftsched_util.Rng

type committed = {
  proc : int;
  start_opt : float;
  finish_opt : float;
  start_pess : float;
  finish_pess : float;
}

type state = {
  inst : Instance.t;
  rng : Rng.t;
  n_tasks : int;
  n_procs : int;
  replicas : int;
  timeline : Proc_state.t;
  ready_opt : float array;
  ready_pess : float array;
  placed : committed array option array;
  selected : Comm_plan.pair list array;
  in_opt : float array;
  in_pess : float array;
  tmp_opt : float array;
  tmp_pess : float array;
  fin_opt : float array;
  fin_pess : float array;
  chosen : int array;
  replica_on : int array;
  edges : Edge_select.t;
  trace : Trace.t option;
  (* CSR adjacency of the instance's DAG (Dag.Csr), cached here so the
     per-task hot loops index flat arrays instead of walking freshly
     allocated predecessor/successor lists. *)
  pred_off : int array;
  pred_task : int array;
  pred_vol : float array;
  pred_edge : int array;
  succ_off : int array;
  succ_task : int array;
}

type tie_break = Rng_tie | Lifo_tie

type discipline =
  | Priority of { key : state -> int -> float; tie : tie_break }
  | Fixed_order of (state -> int array)
  | Urgency of (state -> free:int array -> int * float)

type policy = {
  name : string;
  replicas : int;
  discipline : discipline;
  prepare : state -> int -> unit;
  evaluate : state -> int -> unit;
  choose : state -> int -> unit;
  commit : state -> int -> committed array;
  after_commit : state -> int -> committed array -> unit;
  insertion : bool;
  selected_comm : bool;
}

type deadline_failure = { task : int; deadline : float; finish : float }

let replicas_of st t =
  match st.placed.(t) with
  | Some r -> r
  | None -> invalid_arg "Driver: predecessor not placed"

let count_evals st n =
  match st.trace with Some tr -> Trace.add_evals tr n | None -> ()

let count_reductions st n =
  match st.trace with Some tr -> Trace.add_reductions tr n | None -> ()

(* Equations (1)/(3), input side, hoisted: one pass over the predecessors
   fills per-target-processor arrival bounds, instead of re-reducing every
   predecessor's replica row for every candidate processor.  The
   predecessor walk indexes the pre-flattened CSR arrays and hoists the
   delay-matrix row per replica, so the reduction allocates nothing. *)
let prepare_inputs st t =
  let pl = Instance.platform st.inst in
  let m = st.n_procs in
  let in_opt = st.in_opt and in_pess = st.in_pess in
  let ao = st.tmp_opt and ap = st.tmp_pess in
  Array.fill in_opt 0 m 0.;
  Array.fill in_pess 0 m 0.;
  let lo = st.pred_off.(t) and hi = st.pred_off.(t + 1) in
  for k = lo to hi - 1 do
    let vol = st.pred_vol.(k) in
    let rs = replicas_of st st.pred_task.(k) in
    Array.fill ao 0 m infinity;
    Array.fill ap 0 m 0.;
    for i = 0 to Array.length rs - 1 do
      let c = rs.(i) in
      let row = Platform.delay_row pl c.proc in
      let f_opt = c.finish_opt and f_pess = c.finish_pess in
      for p = 0 to m - 1 do
        let w = vol *. row.(p) in
        let o = f_opt +. w and q = f_pess +. w in
        if o < ao.(p) then ao.(p) <- o;
        if q > ap.(p) then ap.(p) <- q
      done
    done;
    for p = 0 to m - 1 do
      if ao.(p) > in_opt.(p) then in_opt.(p) <- ao.(p);
      if ap.(p) > in_pess.(p) then in_pess.(p) <- ap.(p)
    done
  done;
  count_reductions st (hi - lo)

let eval_inputs st t =
  let exec = Instance.exec_row st.inst t in
  for p = 0 to st.n_procs - 1 do
    let e = exec.(p) in
    st.fin_opt.(p) <- e +. Float.max st.in_opt.(p) st.ready_opt.(p);
    st.fin_pess.(p) <- e +. Float.max st.in_pess.(p) st.ready_pess.(p)
  done

let top_level st t =
  let max_from = Platform.max_delays_from (Instance.platform st.inst) in
  let lo = st.pred_off.(t) and hi = st.pred_off.(t + 1) in
  let acc = ref 0. in
  for k = lo to hi - 1 do
    let vol = st.pred_vol.(k) in
    let rs = replicas_of st st.pred_task.(k) in
    let earliest = ref infinity in
    for i = 0 to Array.length rs - 1 do
      let c = rs.(i) in
      let a = c.finish_opt +. (vol *. max_from.(c.proc)) in
      if a < !earliest then earliest := a
    done;
    if !earliest > !acc then acc := !earliest
  done;
  count_reductions st (hi - lo);
  !acc

(* One insertion pass over the keys: [out.(0 .. len-1)] holds the best
   indices so far, increasing by (key, index).  A later index never
   displaces an equal key, so ties go to the smaller index, as in a sort
   by (key, index). *)
let best_by_key key ~n ~k out =
  if k < 1 || k > n then invalid_arg "Driver.best_by_key: need 1 <= k <= n";
  let len = ref 0 in
  for p = 0 to n - 1 do
    let x = key.(p) in
    if !len < k || Float.compare x key.(out.(k - 1)) < 0 then begin
      let i = ref (if !len < k then !len else k - 1) in
      while !i > 0 && Float.compare x key.(out.(!i - 1)) < 0 do
        out.(!i) <- out.(!i - 1);
        decr i
      done;
      out.(!i) <- p;
      if !len < k then incr len
    end
  done

let best_by_finish st ~k = best_by_key st.fin_opt ~n:st.n_procs ~k st.chosen

let commit_straight st t =
  let exec = Instance.exec_row st.inst t in
  Array.init st.replicas (fun i ->
      let p = st.chosen.(i) in
      let e = exec.(p) in
      {
        proc = p;
        start_opt = st.fin_opt.(p) -. e;
        finish_opt = st.fin_opt.(p);
        start_pess = st.fin_pess.(p) -. e;
        finish_pess = st.fin_pess.(p);
      })

let no_after_commit _ _ _ = ()

(* Insertion-based earliest finish: slide into the earliest timeline gap
   at or after the input-arrival bound of {!prepare_inputs}. *)
let eval_insertion st t =
  let exec = Instance.exec_row st.inst t in
  for p = 0 to st.n_procs - 1 do
    let dur = exec.(p) in
    let start =
      Proc_state.earliest_gap st.timeline p ~ready:st.in_opt.(p) ~duration:dur
    in
    let f = start +. dur in
    st.fin_opt.(p) <- f;
    st.fin_pess.(p) <- f
  done

(* Re-derive the gap start for the chosen processors (the timeline is
   unchanged since evaluation) so the committed replica starts at the
   true slot start rather than at [finish - duration], which can differ
   in the last bits. *)
let commit_insertion st t =
  let exec = Instance.exec_row st.inst t in
  Array.init st.replicas (fun i ->
      let p = st.chosen.(i) in
      let start =
        Proc_state.earliest_gap st.timeline p ~ready:st.in_opt.(p)
          ~duration:exec.(p)
      in
      {
        proc = p;
        start_opt = start;
        finish_opt = st.fin_opt.(p);
        start_pess = start;
        finish_pess = st.fin_opt.(p);
      })

(* Priority list α: a binary max-heap keyed by (priority, tie, task id);
   the head H(α) is the maximum binding.  Task ids are unique, so the
   key order is total, the pop sequence is unique, and schedules are
   bit-identical — the pinned schedule digests check it. *)
module Alpha = Ftsched_ds.Bin_heap

type workspace = {
  mutable w_m : int;
  mutable w_insertion : bool;
  mutable w_timeline : Proc_state.t;
  mutable w_placed : committed array option array;
  mutable w_selected : Comm_plan.pair list array;
  mutable w_in_opt : float array;
  mutable w_in_pess : float array;
  mutable w_tmp_opt : float array;
  mutable w_tmp_pess : float array;
  mutable w_fin_opt : float array;
  mutable w_fin_pess : float array;
  mutable w_chosen : int array;
  mutable w_replica_on : int array;
  w_edges : Edge_select.t;
  mutable w_remaining : int array;
  w_alpha : Alpha.t;
  mutable w_next : int array;
  mutable w_prev : int array;
}

let empty_workspace () =
  {
    w_m = 1;
    w_insertion = false;
    w_timeline = Proc_state.create ~m:1 ~insertion:false;
    w_placed = [||];
    w_selected = [||];
    w_in_opt = [||];
    w_in_pess = [||];
    w_tmp_opt = [||];
    w_tmp_pess = [||];
    w_fin_opt = [||];
    w_fin_pess = [||];
    w_chosen = [||];
    w_replica_on = [||];
    w_edges = Edge_select.create ();
    w_remaining = [||];
    w_alpha = Alpha.create ~capacity:64 ();
    w_next = [||];
    w_prev = [||];
  }

let workspace = empty_workspace

(* Bring a workspace to the exact state fresh allocation would produce
   for this call shape, growing (never shrinking) what mismatches. *)
let ready_workspace w ~v ~m ~ne ~insertion =
  if w.w_m <> m || w.w_insertion <> insertion then begin
    w.w_timeline <- Proc_state.create ~m ~insertion;
    w.w_m <- m;
    w.w_insertion <- insertion
  end
  else Proc_state.reset w.w_timeline;
  if Array.length w.w_placed < v then w.w_placed <- Array.make v None
  else Array.fill w.w_placed 0 v None;
  if Array.length w.w_selected < ne then w.w_selected <- Array.make ne []
  else Array.fill w.w_selected 0 ne [];
  if Array.length w.w_in_opt < m then begin
    w.w_in_opt <- Array.make m 0.;
    w.w_in_pess <- Array.make m 0.;
    w.w_tmp_opt <- Array.make m 0.;
    w.w_tmp_pess <- Array.make m 0.;
    w.w_fin_opt <- Array.make m 0.;
    w.w_fin_pess <- Array.make m 0.;
    w.w_chosen <- Array.make m 0;
    w.w_replica_on <- Array.make m (-1)
  end
  else
    (* a run that raised mid-commit may have left entries set *)
    Array.fill w.w_replica_on 0 m (-1);
  if Array.length w.w_remaining < v then begin
    w.w_remaining <- Array.make v 0;
    w.w_next <- Array.make v (-1);
    w.w_prev <- Array.make v (-1)
  end;
  Alpha.clear w.w_alpha

let now () = Sys.time ()

let run ?(seed = 0) ~instance ~policy ?release ?deadlines ?trace ?workspace () =
  let g = Instance.dag instance in
  let v = Dag.n_tasks g in
  let m = Instance.n_procs instance in
  let k = policy.replicas in
  if k < 1 || k > m then
    invalid_arg "Driver.run: need 1 <= replicas <= number of processors";
  (match release with
  | Some r when Array.length r <> m -> invalid_arg "Driver.run: release size"
  | Some r when Array.exists (fun x -> not (x >= 0. && x < infinity)) r ->
      invalid_arg "Driver.run: release entries must be finite and >= 0"
  | _ -> ());
  (match deadlines with
  | Some d when Array.length d <> v -> invalid_arg "Driver.run: deadlines size"
  | _ -> ());
  let ne = Dag.n_edges g in
  let w = match workspace with Some w -> w | None -> empty_workspace () in
  ready_workspace w ~v ~m ~ne ~insertion:policy.insertion;
  let st =
    {
      inst = instance;
      rng = Rng.create ~seed;
      n_tasks = v;
      n_procs = m;
      replicas = k;
      timeline = w.w_timeline;
      ready_opt = Proc_state.ready_opt w.w_timeline;
      ready_pess = Proc_state.ready_pess w.w_timeline;
      placed = w.w_placed;
      selected = w.w_selected;
      in_opt = w.w_in_opt;
      in_pess = w.w_in_pess;
      tmp_opt = w.w_tmp_opt;
      tmp_pess = w.w_tmp_pess;
      fin_opt = w.w_fin_opt;
      fin_pess = w.w_fin_pess;
      chosen = w.w_chosen;
      replica_on = w.w_replica_on;
      edges = w.w_edges;
      trace;
      pred_off = Dag.Csr.pred_offsets g;
      pred_task = Dag.Csr.pred_tasks g;
      pred_vol = Dag.Csr.pred_volumes g;
      pred_edge = Dag.Csr.pred_edges g;
      succ_off = Dag.Csr.succ_offsets g;
      succ_task = Dag.Csr.succ_tasks g;
    }
  in
  (* Residual timelines: pre-commit each processor's foreign busy tail as
     an opaque slot so ready times and gap searches alike start there. *)
  (match release with
  | None -> ()
  | Some r ->
      Array.iteri
        (fun p rel ->
          if rel > 0. then
            Proc_state.commit_slot st.timeline p ~start:0. ~finish:rel
              ~pess_finish:rel)
        r);
  (match trace with
  | Some tr -> Trace.start tr ~algorithm:policy.name
  | None -> ());
  (* Phase timers: [lap phase since] books the time elapsed since [since]
     to [phase] and returns the current instant; both cost nothing on an
     untraced run. *)
  let tick () = match trace with Some _ -> now () | None -> 0. in
  let lap phase since =
    match trace with
    | Some tr ->
        let t = now () in
        Trace.add_phase tr phase (t -. since);
        t
    | None -> 0.
  in
  let failure = ref None in
  let step_count = ref 0 in
  (* The step record of a traced run, built from the buffers: every
     processor's evaluation, in processor order, or under [Urgency] the
     chosen placements, in replica order. *)
  let record tr ~urgent ~prio t committed =
    let eval p =
      { Trace.proc = p; finish_opt = st.fin_opt.(p); finish_pess = st.fin_pess.(p) }
    in
    let edges =
      if policy.selected_comm then
        List.init (st.pred_off.(t + 1) - st.pred_off.(t)) (fun i ->
            let e = st.pred_edge.(st.pred_off.(t) + i) in
            ( e,
              List.map
                (fun { Comm_plan.src_replica; dst_replica } ->
                  (src_replica, dst_replica))
                st.selected.(e) ))
      else []
    in
    Trace.record tr
      {
        Trace.step = !step_count;
        task = t;
        priority = prio;
        evals =
          (if urgent then Array.init k (fun i -> eval st.chosen.(i))
           else Array.init m eval);
        chosen =
          Array.map
            (fun (c : committed) ->
              { Trace.proc = c.proc; start = c.start_opt; finish = c.finish_opt })
            committed;
        edges;
      }
  in
  (* Evaluate, select and commit one task.  Under [Urgency] the policy
     already evaluated and selected ([urgent]).  Returns [false] when the
     bicriteria deadline test fails. *)
  let do_task ~urgent ~prio t =
    if not urgent then begin
      let t0 = tick () in
      policy.prepare st t;
      policy.evaluate st t;
      count_evals st m;
      let t1 = lap `Evaluate t0 in
      policy.choose st t;
      ignore (lap `Choose t1)
    end;
    let deadline_ok =
      match deadlines with
      | None -> true
      | Some dl ->
          let worst = ref 0. in
          for i = 0 to k - 1 do
            worst := Float.max !worst st.fin_opt.(st.chosen.(i))
          done;
          if !worst > dl.(t) then begin
            failure := Some { task = t; deadline = dl.(t); finish = !worst };
            false
          end
          else true
    in
    if deadline_ok then begin
      let t2 = tick () in
      for i = 0 to k - 1 do
        st.replica_on.(st.chosen.(i)) <- i
      done;
      let committed = policy.commit st t in
      for i = 0 to k - 1 do
        st.replica_on.(st.chosen.(i)) <- -1
      done;
      st.placed.(t) <- Some committed;
      Array.iter
        (fun c ->
          Proc_state.commit_slot st.timeline c.proc ~start:c.start_opt
            ~finish:c.finish_opt ~pess_finish:c.finish_pess)
        committed;
      policy.after_commit st t committed;
      ignore (lap `Commit t2);
      (match trace with
      | Some tr -> record tr ~urgent ~prio t committed
      | None -> ());
      incr step_count;
      true
    end
    else false
  in
  let entry_tasks = Dag.entries g in
  (* Incremental ready counts: a task enters the free set exactly when
     its pending-predecessor counter hits zero. *)
  let remaining = w.w_remaining in
  for t = 0 to v - 1 do
    remaining.(t) <- st.pred_off.(t + 1) - st.pred_off.(t)
  done;
  (* Count [t]'s successors down; [free] each one whose last input just
     arrived. *)
  let release_succs t free =
    for k = st.succ_off.(t) to st.succ_off.(t + 1) - 1 do
      let t' = st.succ_task.(k) in
      remaining.(t') <- remaining.(t') - 1;
      if remaining.(t') = 0 then free t'
    done
  in
  (* cleared when the bicriteria deadline test fails *)
  let running = ref true in
  (match policy.discipline with
  | Priority { key; tie } ->
      let alpha = w.w_alpha in
      let seq = ref 0 in
      let push_free t =
        let prio = key st t in
        let tie =
          match tie with
          | Rng_tie -> Rng.float_in st.rng 0. 1.
          | Lifo_tie ->
              (* most recently freed wins exact priority ties, matching a
                 newest-first ready-list scan *)
              incr seq;
              float_of_int !seq
        in
        Alpha.push alpha ~prio ~tie ~task:t
      in
      (match tie with
      | Rng_tie -> Array.iter push_free entry_tasks
      | Lifo_tie ->
          (* reversed so the first entry task gets the largest sequence
             number: ties among entries resolve in entry order *)
          for i = Array.length entry_tasks - 1 downto 0 do
            push_free entry_tasks.(i)
          done);
      while !running && not (Alpha.is_empty alpha) do
        let t = Alpha.max_task alpha and prio = Alpha.max_prio alpha in
        Alpha.drop_max alpha;
        if do_task ~urgent:false ~prio t then release_succs t push_free
        else running := false
      done
  | Fixed_order order ->
      Array.iter
        (fun t ->
          if !running && not (do_task ~urgent:false ~prio:nan t) then
            running := false)
        (order st)
  | Urgency urgency ->
      (* The free set as an intrusive doubly-linked list over int arrays,
         newest first: O(1) insertion and removal where the list-based
         loop paid an O(n) [List.filter] per scheduled task.  [snapshot]
         materializes the membership for the policy callback, newest
         first — the order the old list exposed. *)
      let next = w.w_next and prev = w.w_prev in
      let head = ref (-1) in
      let count = ref 0 in
      let push_front t =
        next.(t) <- !head;
        prev.(t) <- -1;
        if !head >= 0 then prev.(!head) <- t;
        head := t;
        incr count
      in
      let remove t =
        if prev.(t) >= 0 then next.(prev.(t)) <- next.(t) else head := next.(t);
        if next.(t) >= 0 then prev.(next.(t)) <- prev.(t);
        decr count
      in
      (* backwards, so the first entry task ends up at the head *)
      for i = Array.length entry_tasks - 1 downto 0 do
        push_front entry_tasks.(i)
      done;
      let snapshot () =
        let a = Array.make !count 0 in
        let i = ref 0 and t = ref !head in
        while !t >= 0 do
          a.(!i) <- !t;
          incr i;
          t := next.(!t)
        done;
        a
      in
      while !running && !count > 0 do
        let free = snapshot () in
        let t0 = tick () in
        let t, prio = urgency st ~free in
        ignore (lap `Evaluate t0);
        if do_task ~urgent:true ~prio t then begin
          remove t;
          release_succs t push_front
        end
        else running := false
      done);
  (match trace with
  | Some tr -> Trace.finish tr ~gap:(Proc_state.gap_stats st.timeline)
  | None -> ());
  match !failure with
  | Some f -> Error f
  | None ->
      let replicas =
        Array.init v (fun task ->
            match st.placed.(task) with
            | None ->
                (* Unreachable for complete runs: a DAG's topological
                   closure frees every task exactly once. *)
                assert false
            | Some row ->
                Array.mapi
                  (fun index (c : committed) ->
                    {
                      Schedule.task;
                      index;
                      proc = c.proc;
                      start = c.start_opt;
                      finish = c.finish_opt;
                      pess_start = c.start_pess;
                      pess_finish = c.finish_pess;
                    })
                  row)
      in
      let comm =
        if policy.selected_comm then
          (* the plan's own copy: a pooled [selected] array outlives the
             run and may be longer than this instance's edge count *)
          Comm_plan.Selected (Array.sub st.selected 0 ne)
        else Comm_plan.All_to_all
      in
      Ok (Schedule.create ~instance ~eps:(policy.replicas - 1) ~replicas ~comm)

let schedule ?seed ~instance ~policy ?release ?trace ?workspace () =
  match run ?seed ~instance ~policy ?release ?trace ?workspace () with
  | Ok s -> s
  | Error _ -> assert false (* no deadlines supplied: cannot fail *)
