module Dag = Ftsched_dag.Dag
module Platform = Ftsched_platform.Platform
module Instance = Ftsched_model.Instance
module Driver = Ftsched_kernel.Driver

let schedule ?seed ?(ports = 1) ?trace inst ~eps =
  let g = Instance.dag inst in
  let pl = Instance.platform inst in
  let m = Instance.n_procs inst in
  if ports < 1 then invalid_arg "Ca_ftsa.schedule: ports must be positive";
  (* Per-processor outgoing ports: the policy's private state, threaded
     through the closures below.  Evaluation peeks, commit books. *)
  let port_free = Array.init m (fun _ -> Array.make ports 0.) in
  let peek_port proc = Ftsched_util.Float_utils.min_array port_free.(proc) in
  let book_port proc ~ready ~dur =
    let ports = port_free.(proc) in
    let best = ref 0 in
    Array.iteri (fun i t -> if t < ports.(!best) then best := i) ports;
    let depart = Float.max ready ports.(!best) in
    ports.(!best) <- depart +. dur;
    depart
  in
  (* Contention-priced input bounds: each candidate message is priced at
     max(data ready, sender's earliest free port) + transfer time.  The
     port peek is replica-local, so the per-target-processor reduction
     hoists just like equation (1). *)
  let prepare (st : Driver.state) t =
    Array.fill st.Driver.in_opt 0 m 0.;
    Dag.iter_preds g t (fun _ t' vol ->
        let rs = Driver.replicas_of st t' in
        let ao = st.Driver.tmp_opt in
        Array.fill ao 0 m infinity;
        Array.iter
          (fun (c : Driver.committed) ->
            let base =
              Float.max c.Driver.finish_opt (peek_port c.Driver.proc)
            in
            for p = 0 to m - 1 do
              let a =
                if c.Driver.proc = p then c.Driver.finish_opt
                else base +. (vol *. Platform.delay pl c.Driver.proc p)
              in
              if a < ao.(p) then ao.(p) <- a
            done)
          rs;
        for p = 0 to m - 1 do
          if ao.(p) > st.Driver.in_opt.(p) then st.Driver.in_opt.(p) <- ao.(p)
        done)
  in
  (* Evaluation is optimistic-only: commit re-times both bounds after
     booking the actual transfers. *)
  let evaluate (st : Driver.state) t =
    for p = 0 to m - 1 do
      let f =
        Instance.exec inst t p
        +. Float.max st.Driver.in_opt.(p) st.Driver.ready_opt.(p)
      in
      st.Driver.fin_opt.(p) <- f;
      st.Driver.fin_pess.(p) <- f
    done
  in
  (* Book every replica-to-replica message on the senders' ports, then
     derive each replica's start from its first booked copy per input. *)
  let commit (st : Driver.state) t =
    let k = eps + 1 in
    let chosen = Array.sub st.Driver.chosen 0 k in
    let input_opt = Array.make k 0. in
    let input_pess = Array.make k 0. in
    Dag.iter_preds g t (fun _ t' vol ->
        let rs = Driver.replicas_of st t' in
        let arr_opt = Array.make k infinity in
        Array.iter
          (fun (c : Driver.committed) ->
            Array.iteri
              (fun i p ->
                let a_opt, a_pess =
                  if c.Driver.proc = p then (c.Driver.finish_opt, c.Driver.finish_pess)
                  else begin
                    let w = vol *. Platform.delay pl c.Driver.proc p in
                    let depart =
                      book_port c.Driver.proc ~ready:c.Driver.finish_opt ~dur:w
                    in
                    (* the pessimistic estimate stays contention-free:
                       equation (3)'s guarantee semantics, see mli *)
                    (depart +. w, c.Driver.finish_pess +. w)
                  end
                in
                if a_opt < arr_opt.(i) then arr_opt.(i) <- a_opt;
                if a_pess > input_pess.(i) then input_pess.(i) <- a_pess)
              chosen)
          rs;
        for i = 0 to k - 1 do
          if arr_opt.(i) > input_opt.(i) then input_opt.(i) <- arr_opt.(i)
        done);
    Array.mapi
      (fun i p ->
        let e = Instance.exec inst t p in
        let start =
          Float.max input_opt.(i) st.Driver.ready_opt.(p)
        in
        let start_pess =
          Float.max start
            (Float.max input_pess.(i) st.Driver.ready_pess.(p))
        in
        {
          Driver.proc = p;
          start_opt = start;
          finish_opt = start +. e;
          start_pess;
          finish_pess = start_pess +. e;
        })
      chosen
  in
  Ftsa_policy.run ?seed ?trace ~instance:inst
    {
      (Ftsa_policy.policy ~instance:inst ~eps ~mode:Ftsa_policy.All_to_all_comm)
      with
      name = "ca-ftsa";
      prepare;
      evaluate;
      commit;
    }
