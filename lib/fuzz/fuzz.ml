module Rng = Ftsched_util.Rng
module Dag = Ftsched_dag.Dag
module Generators = Ftsched_dag.Generators
module Platform = Ftsched_platform.Platform
module Instance = Ftsched_model.Instance
module Schedule = Ftsched_schedule.Schedule
module Validate = Ftsched_schedule.Validate
module Serialize = Ftsched_schedule.Serialize
module Comm_plan = Ftsched_schedule.Comm_plan
module Edge_select = Ftsched_kernel.Edge_select
module Edge_select_ref = Ftsched_oracle.Edge_select_ref
module Schedulers = Ftsched_core.Schedulers
module Scenario = Ftsched_sim.Scenario
module Crash_exec = Ftsched_sim.Crash_exec
module Worst_case = Ftsched_sim.Worst_case
module Event_sim = Ftsched_sim.Event_sim
module Event_sim_ref = Ftsched_oracle.Event_sim_ref
module Crash_exec_ref = Ftsched_oracle.Crash_exec_ref
module Recovery = Ftsched_recovery.Recovery
module Recovery_ref = Ftsched_oracle.Recovery_ref
module Par = Ftsched_par.Par
module Stream = Ftsched_stream.Stream

type case = { instance : Instance.t; eps : int; sched_seed : int }

type oracle =
  | Crash
  | Structural
  | Survivability
  | Executor_agreement
  | Round_trip
  | Selection
  | Stream_lost
  | Parser_safety

let oracle_name = function
  | Crash -> "crash"
  | Structural -> "structural"
  | Survivability -> "survivability"
  | Executor_agreement -> "executor-agreement"
  | Round_trip -> "round-trip"
  | Selection -> "selection"
  | Stream_lost -> "stream-lost"
  | Parser_safety -> "parser-safety"

let oracle_of_name = function
  | "crash" -> Some Crash
  | "structural" -> Some Structural
  | "survivability" -> Some Survivability
  | "executor-agreement" -> Some Executor_agreement
  | "round-trip" -> Some Round_trip
  | "selection" -> Some Selection
  | "stream-lost" -> Some Stream_lost
  | "parser-safety" -> Some Parser_safety
  | _ -> None

type violation = { oracle : oracle; detail : string }

(* ------------------------------------------------------------------ *)
(* Case generation                                                     *)

let gen_case ~seed =
  let rng = Rng.create ~seed:((1_000_003 * seed) + 17) in
  let m = Rng.int_in rng 2 5 in
  let eps = Rng.int rng (min 3 m) in
  let n = Rng.int_in rng 3 14 in
  let dag =
    match Rng.int rng 5 with
    | 0 -> Generators.layered rng ~n_tasks:n ()
    | 1 -> Generators.erdos_renyi rng ~n_tasks:n ~edge_prob:0.3 ()
    | 2 ->
        Generators.fork_join rng
          ~stages:(1 + (n / 6))
          ~width:(2 + Rng.int rng 3) ()
    | 3 -> Generators.random_out_tree rng ~n_tasks:n ~max_children:3 ()
    | _ -> Generators.chain rng ~n_tasks:n ()
  in
  let platform =
    Platform.random rng ~m ~delay_lo:0.25 ~delay_hi:1.5
      ~symmetric:(Rng.bool rng) ()
  in
  let instance = Instance.random_exec rng ~dag ~platform () in
  { instance; eps; sched_seed = seed }

(* ------------------------------------------------------------------ *)
(* Oracles                                                             *)

let tol = 1e-6

(* Relative tolerance for the selection-value comparisons; executor
   agreement compares latencies exactly. *)
let close a b = Float.abs (a -. b) <= tol *. Float.max 1. (Float.abs a)

let pp_opt_latency ppf = function
  | Some l -> Format.fprintf ppf "%.9g" l
  | None -> Format.pp_print_string ppf "defeated"

(* Reconstruct the bipartite candidate graph of one DAG edge from the
   final schedule, mirroring the MC-FTSA construction of §4.2: a source
   replica colocated with one of the destination's processors has a
   single forced edge to that colocated destination replica; every
   other source replica may feed any destination replica.  Weights are
   the completion time the destination would reach through that edge
   alone. *)
let candidate_edges s ~src ~dst ~volume =
  let inst = Schedule.instance s in
  let k = Schedule.eps s + 1 in
  let srcs = Schedule.replicas s src and dsts = Schedule.replicas s dst in
  List.concat
    (List.init k (fun l ->
         let sr = srcs.(l) in
         match
           Array.find_opt
             (fun (dr : Schedule.replica) -> dr.proc = sr.proc)
             dsts
         with
         | Some dr ->
             [
               {
                 Edge_select_ref.left = l;
                 right = dr.index;
                 weight = sr.finish +. Instance.exec inst dst dr.proc;
                 forced = true;
               };
             ]
         | None ->
             List.init k (fun r ->
                 let dr = dsts.(r) in
                 {
                   Edge_select_ref.left = l;
                   right = r;
                   weight =
                     sr.finish
                     +. Instance.comm_time inst ~volume ~src:sr.proc
                          ~dst:dr.proc
                     +. Instance.exec inst dst dr.proc;
                   forced = false;
                 })))

let check (sched : Schedulers.t) case =
  let { instance = inst; eps; sched_seed } = case in
  match sched.run ~seed:sched_seed inst ~eps with
  | exception e ->
      [
        {
          oracle = Crash;
          detail = Printf.sprintf "scheduler raised %s" (Printexc.to_string e);
        };
      ]
  | s ->
      let acc = ref [] in
      let add oracle fmt =
        Format.kasprintf (fun detail -> acc := { oracle; detail } :: !acc) fmt
      in
      let guarded oracle f =
        try f ()
        with e ->
          add oracle "oracle raised %s" (Printexc.to_string e)
      in
      let m = Instance.n_procs inst in
      let seps = Schedule.eps s in
      (* (a) structural invariants *)
      guarded Structural (fun () ->
          (match Validate.check s with
          | Ok () -> ()
          | Error errs ->
              add Structural "%s"
                (String.concat "; "
                   (List.map (Format.asprintf "%a" Validate.pp_error) errs)));
          let lb = Schedule.latency_lower_bound s
          and ub = Schedule.latency_upper_bound s in
          if lb > ub +. tol then add Structural "M* %.9g exceeds M %.9g" lb ub);
      (* (a') survivability: Theorem 4.1 for all-to-all plans; for
         selected plans the strict-policy gap of Prop. 4.3 is documented
         and expected, so there the reroute repair must always deliver *)
      guarded Survivability (fun () ->
          let policy, name =
            if Comm_plan.is_all_to_all (Schedule.comm s) then
              (Crash_exec.Strict, "strict")
            else (Crash_exec.Reroute, "reroute")
          in
          match Worst_case.first_defeat ~policy s ~count:seps with
          | None -> ()
          | Some sc ->
              add Survivability "%s policy defeated by %a" name Scenario.pp sc);
      (* (b) executor agreement: structural re-timing vs event-driven *)
      guarded Executor_agreement (fun () ->
          let scenarios =
            Scenario.none :: List.init m (fun p -> Scenario.of_list [ p ])
          in
          let half_mstar = 0.5 *. Schedule.latency_lower_bound s in
          List.iter
            (fun sc ->
              let a =
                (Crash_exec.run ~policy:Crash_exec.Strict s sc)
                  .Crash_exec.latency
              in
              let r = Event_sim.run_crash s sc in
              let b = r.Event_sim.latency in
              (match (a, b) with
              | None, None -> ()
              | Some x, Some y when x = y -> ()
              | _ ->
                  add Executor_agreement
                    "scenario %a: crash_exec=%a event_sim=%a" Scenario.pp sc
                    pp_opt_latency a pp_opt_latency b);
              (* the flat-array engine must match the frozen pairing-heap
                 reference bit for bit, not just up to tolerance *)
              if r <> Event_sim_ref.run_crash s sc then
                add Executor_agreement
                  "scenario %a: flat engine differs from reference engine"
                  Scenario.pp sc;
              (* the same failures at half of M*, mid-run, where the
                 message-free path answers as of an instant with
                 messages in flight *)
              let fail_times = Array.make m infinity in
              Array.iter
                (fun p -> fail_times.(p) <- half_mstar)
                sc.Scenario.failed;
              if Event_sim.run s ~fail_times <> Event_sim_ref.run s ~fail_times
              then
                add Executor_agreement
                  "scenario %a at M*/2: flat engine differs from reference \
                   engine"
                  Scenario.pp sc;
              (* and the flat-array crash replay its frozen list-based
                 reference, under both policies — the only independent
                 check the reroute repair has *)
              List.iter
                (fun (policy, name) ->
                  if
                    Crash_exec.run ~policy s sc
                    <> Crash_exec_ref.run ~policy s sc
                  then
                    add Executor_agreement
                      "scenario %a: %s crash replay differs from reference"
                      Scenario.pp sc name)
                [
                  (Crash_exec.Strict, "strict");
                  (Crash_exec.Reroute, "reroute");
                ])
            scenarios;
          (* the recovery controller against its frozen list-based
             reference: each single crash at M*/2, then every processor
             but the last crashing at staggered instants, beyond any
             replication, so the sweeps kill, re-map and repair *)
          let mstar = Schedule.latency_lower_bound s in
          let delta = 0.1 *. mstar in
          List.iter
            (fun (what, timed) ->
              if
                Recovery.run_timed ~delta s timed
                <> Recovery_ref.run_timed ~delta s timed
              then
                add Executor_agreement
                  "%s: recovery differs from reference controller" what)
            (List.init m (fun p ->
                 ( Printf.sprintf "P%d crashing at M*/2" p,
                   [ { Scenario.proc = p; at = half_mstar } ] ))
            @ [
                ( "all but the last processor crashing",
                  List.init (m - 1) (fun p ->
                      {
                        Scenario.proc = p;
                        at = mstar *. float_of_int (p + 1) /. float_of_int m;
                      }) );
              ]);
          (* dynamic re-timing only ever starts replicas earlier, so the
             fault-free replay cannot exceed the planned lower bound *)
          match
            (Crash_exec.run ~policy:Crash_exec.Strict s Scenario.none)
              .Crash_exec.latency
          with
          | None -> add Executor_agreement "fault-free replay defeated"
          | Some l ->
              let lb = Schedule.latency_lower_bound s in
              if l > lb +. (tol *. Float.max 1. lb) then
                add Executor_agreement
                  "fault-free replay %.9g exceeds M* %.9g" l lb);
      (* (c) serializer round-trip *)
      guarded Round_trip (fun () ->
          let str = Serialize.schedule_to_string s in
          let s' = Serialize.schedule_of_string str in
          let str' = Serialize.schedule_to_string s' in
          if str <> str' then
            add Round_trip "re-serialization differs from original");
      (* (d) MC selection legality, and the flat selectors against the
         frozen list-based ones *)
      guarded Selection (fun () ->
          let plan = Schedule.comm s in
          if not (Comm_plan.is_all_to_all plan) then begin
            let g = Instance.dag inst in
            let k = seps + 1 in
            let one_to_one pairs =
              Comm_plan.is_one_to_one
                (Comm_plan.of_lists
                   [|
                     List.map
                       (fun (l, r) ->
                         { Comm_plan.src_replica = l; dst_replica = r })
                       pairs;
                   |])
                ~eps:seps 0
            in
            let flat = Edge_select.create () in
            let ps = Array.make (Comm_plan.widest plan ~eps:seps) 0 in
            let pd = Array.make (Array.length ps) 0 in
            for e = 0 to Dag.n_edges g - 1 do
              let src, dst = Dag.edge_endpoints g e in
              let volume = Dag.edge_volume g e in
              let cand = candidate_edges s ~src ~dst ~volume in
              let opt = Edge_select_ref.bottleneck_value ~eps:seps cand in
              let gsel = Edge_select_ref.greedy ~eps:seps cand in
              let bsel = Edge_select_ref.bottleneck ~eps:seps cand in
              let rsel = Edge_select_ref.redundant ~eps:seps ~senders:2 cand in
              let flat_sel select =
                Edge_select_ref.load flat ~eps:seps cand;
                select flat;
                Edge_select_ref.selection flat
              in
              if flat_sel Edge_select.greedy <> gsel then
                add Selection "edge %d: flat greedy differs from reference" e;
              if flat_sel Edge_select.bottleneck <> bsel then
                add Selection
                  "edge %d: flat bottleneck differs from reference" e;
              if flat_sel (Edge_select.redundant ~senders:2) <> rsel then
                add Selection
                  "edge %d: flat redundant differs from reference" e;
              if Edge_select.bottleneck_value flat <> opt then
                add Selection
                  "edge %d: flat bottleneck value differs from reference" e;
              if not (one_to_one gsel) then
                add Selection "edge %d: greedy selection not one-to-one" e;
              if not (one_to_one bsel) then
                add Selection
                  "edge %d: bottleneck selection not one-to-one" e;
              let bmax = Edge_select_ref.max_weight cand bsel in
              if not (close bmax opt) then
                add Selection
                  "edge %d: bottleneck certificate mismatch (max %.9g vs \
                   value %.9g)"
                  e bmax opt;
              let gmax = Edge_select_ref.max_weight cand gsel in
              if gmax +. tol < opt then
                add Selection
                  "edge %d: greedy max %.9g beats optimal bottleneck %.9g"
                  e gmax opt;
              (* the schedule's own pairs: pure selections must be
                 one-to-one and built from admissible edges, and no
                 admissible one-to-one selection can beat the
                 optimum *)
              let n = Comm_plan.pairs plan ~eps:seps e ~srcs:ps ~dsts:pd in
              let row = List.init n (fun i -> (ps.(i), pd.(i))) in
              if List.length row = k then begin
                if not (Comm_plan.is_one_to_one plan ~eps:seps e) then
                  add Selection
                    "edge %d (%d→%d): schedule selection not one-to-one" e
                    src dst;
                match Edge_select_ref.max_weight cand row with
                | exception Edge_select_ref.Infeasible msg ->
                    add Selection
                      "edge %d: schedule selection uses inadmissible \
                       pair: %s"
                      e msg
                | w ->
                    if w +. tol < opt then
                      add Selection
                        "edge %d: schedule selection max %.9g below \
                         optimal bottleneck %.9g"
                        e w opt
              end
            done
          end);
      List.rev !acc

(* ------------------------------------------------------------------ *)
(* Shrinking                                                           *)

(* Rebuild an instance without task [t] (indices above [t] shift down). *)
let drop_task inst t =
  let g = Instance.dag inst in
  let v = Dag.n_tasks g and m = Instance.n_procs inst in
  let b = Dag.Builder.create () in
  for i = 0 to v - 1 do
    if i <> t then ignore (Dag.Builder.add_task ~label:(Dag.label g i) b)
  done;
  let remap i = if i < t then i else i - 1 in
  Dag.iter_edges g (fun _e ~src ~dst ~volume ->
      if src <> t && dst <> t then
        Dag.Builder.add_edge b ~src:(remap src) ~dst:(remap dst) ~volume);
  let dag = Dag.Builder.build b in
  let exec =
    Array.init (v - 1) (fun i ->
        let old = if i < t then i else i + 1 in
        Array.init m (fun p -> Instance.exec inst old p))
  in
  Instance.create ~dag ~platform:(Instance.platform inst) ~exec

(* Rebuild an instance without processor [p]. *)
let drop_proc inst p =
  let g = Instance.dag inst in
  let pl = Instance.platform inst in
  let v = Dag.n_tasks g and m = Instance.n_procs inst in
  let remap q = if q < p then q else q + 1 in
  let delay =
    Array.init (m - 1) (fun k ->
        Array.init (m - 1) (fun h -> Platform.delay pl (remap k) (remap h)))
  in
  let exec =
    Array.init v (fun t ->
        Array.init (m - 1) (fun q -> Instance.exec inst t (remap q)))
  in
  Instance.create ~dag:g ~platform:(Platform.create ~delay) ~exec

(* Rebuild an instance keeping only the listed edge ids. *)
let keep_edges inst keep =
  let g = Instance.dag inst in
  let v = Dag.n_tasks g and m = Instance.n_procs inst in
  let kept = Hashtbl.create (2 * List.length keep) in
  List.iter (fun e -> Hashtbl.replace kept e ()) keep;
  let b = Dag.Builder.create () in
  for i = 0 to v - 1 do
    ignore (Dag.Builder.add_task ~label:(Dag.label g i) b)
  done;
  Dag.iter_edges g (fun e ~src ~dst ~volume ->
      if Hashtbl.mem kept e then Dag.Builder.add_edge b ~src ~dst ~volume);
  let exec =
    Array.init v (fun t -> Array.init m (fun p -> Instance.exec inst t p))
  in
  Instance.create ~dag:(Dag.Builder.build b) ~platform:(Instance.platform inst)
    ~exec

(* ddmin over a list of edge ids: repeatedly try to remove one chunk of
   the current list, doubling the chunk count when nothing can go. *)
let ddmin still_fails ids =
  let rec go ids n =
    let len = List.length ids in
    if len <= 1 || n > len then ids
    else begin
      let chunk = max 1 (len / n) in
      let rec try_chunks i =
        if i * chunk >= len then None
        else
          let kept =
            List.filteri
              (fun j _ -> j < i * chunk || j >= min len ((i + 1) * chunk))
              ids
          in
          if still_fails kept then Some kept else try_chunks (i + 1)
      in
      match try_chunks 0 with
      | Some kept -> go kept (max 2 (n - 1))
      | None -> if n >= len then ids else go ids (min len (2 * n))
    end
  in
  if ids = [] then [] else if still_fails [] then [] else go ids 2

let shrink ?(max_evals = 2000) sched case oracle =
  let evals = ref 0 and steps = ref 0 in
  let fails c =
    if !evals >= max_evals then false
    else begin
      incr evals;
      List.exists (fun v -> v.oracle = oracle) (check sched c)
    end
  in
  let current = ref case in
  let progress = ref true in
  while !progress && !evals < max_evals do
    progress := false;
    let c = !current in
    let g = Instance.dag c.instance in
    let m = Instance.n_procs c.instance in
    let eps_cands =
      if c.eps > 0 then
        List.sort_uniq compare [ c.eps / 2; c.eps - 1 ]
        |> List.map (fun e -> { c with eps = e })
      else []
    in
    let task_cands =
      if Dag.n_tasks g > 1 then
        Array.to_list (Array.append (Dag.entries g) (Dag.exits g))
        |> List.sort_uniq compare
        |> List.map (fun t -> { c with instance = drop_task c.instance t })
      else []
    in
    let proc_cands =
      if m > 1 && m - 1 > c.eps then
        List.init m (fun p -> { c with instance = drop_proc c.instance p })
      else []
    in
    match List.find_opt fails (eps_cands @ task_cands @ proc_cands) with
    | Some c' ->
        current := c';
        incr steps;
        progress := true
    | None ->
        let ids = List.init (Dag.n_edges g) Fun.id in
        if ids <> [] then begin
          let kept =
            ddmin
              (fun keep ->
                fails { c with instance = keep_edges c.instance keep })
              ids
          in
          if List.length kept < List.length ids then begin
            current := { c with instance = keep_edges c.instance kept };
            incr steps;
            progress := true
          end
        end
  done;
  (!current, !steps, !evals)

(* ------------------------------------------------------------------ *)
(* Stream traces: the fifth oracle family.  A whole streaming trace —
   arrivals, admission, chaos, execution — is a pure function of one
   trace seed, so the case IS the seed: nothing to shrink, and the
   witness file only needs to store it.  The oracle is the never-lost
   invariant of [Stream.check_report]. *)

let stream_config =
  {
    Stream.default_config with
    Stream.m = 4;
    duration = 12.;
    rate = 1.0;
    capacity = 3;
    chaos =
      { Stream.default_chaos with Stream.crash_rate = 0.2; loss = 0.05 };
  }

let check_stream ~seed =
  match Stream.run_trace ~config:stream_config ~seed () with
  | exception e ->
      [ { oracle = Stream_lost; detail = "raised " ^ Printexc.to_string e } ]
  | report ->
      List.map
        (fun detail -> { oracle = Stream_lost; detail })
        (Stream.check_report report)

(* ------------------------------------------------------------------ *)
(* Parser safety: the sixth oracle family.  Like stream traces the case
   IS the seed: per seed, serialize a random instance and its schedule,
   derive a deterministic battery of adversarial mutants — truncations,
   bit flips, huge counts spliced into numeric tokens, line deletions —
   and require every mutant to either parse or be rejected with the
   parser's typed exceptions ([Failure] / [Invalid_argument]).  Any
   other escape (an unchecked-allocation [Out_of_memory], a stray
   [Not_found], [Stack_overflow]) is a violation. *)

let parser_mutants = 24

let mutate_doc rng doc =
  let n = String.length doc in
  if n = 0 then doc
  else
    match Rng.int rng 4 with
    | 0 -> String.sub doc 0 (Rng.int rng n)
    | 1 ->
        let b = Bytes.of_string doc in
        for _ = 1 to 1 + Rng.int rng 8 do
          let i = Rng.int rng n in
          Bytes.set b i
            (Char.chr
               (Char.code (Bytes.get b i) lxor (1 lsl Rng.int rng 8)))
        done;
        Bytes.to_string b
    | 2 ->
        (* splice huge values into every numeric token of one line: on a
           header line this declares counts far past the caps and the
           available input *)
        let lines = Array.of_list (String.split_on_char '\n' doc) in
        let i = Rng.int rng (Array.length lines) in
        lines.(i) <-
          String.concat " "
            (List.map
               (fun w ->
                 if int_of_string_opt w <> None then
                   string_of_int (100_000_000 + Rng.int rng 1_000_000_000)
                 else w)
               (String.split_on_char ' ' lines.(i)));
        String.concat "\n" (Array.to_list lines)
    | _ ->
        (* delete one line: declared counts now exceed what remains *)
        let lines = Array.of_list (String.split_on_char '\n' doc) in
        let i = Rng.int rng (Array.length lines) in
        String.concat "\n"
          (List.filteri (fun j _ -> j <> i) (Array.to_list lines))

let check_parser ~seed =
  let rng = Rng.create ~seed:((7_368_787 * seed) + 5) in
  let case = gen_case ~seed in
  let bad = ref [] in
  let record fmt =
    Printf.ksprintf
      (fun detail -> bad := { oracle = Parser_safety; detail } :: !bad)
      fmt
  in
  let battery ~what ~parse doc =
    (match parse doc with
    | _ -> ()
    | exception e ->
        record "pristine %s document rejected: %s" what (Printexc.to_string e));
    for _ = 1 to parser_mutants do
      match parse (mutate_doc rng doc) with
      | _ -> ()
      | exception (Failure _ | Invalid_argument _) -> ()
      | exception e ->
          record "%s mutant escaped the parser with %s" what
            (Printexc.to_string e)
    done
  in
  battery ~what:"instance"
    ~parse:(fun d -> ignore (Serialize.instance_of_string d))
    (Serialize.instance_to_string case.instance);
  (match
     Ftsched_core.Ftsa.schedule ~seed:case.sched_seed case.instance
       ~eps:case.eps
   with
  | exception _ -> () (* scheduler crashes belong to the Crash oracle *)
  | s ->
      battery ~what:"schedule"
        ~parse:(fun d -> ignore (Serialize.schedule_of_string d))
        (Serialize.schedule_to_string s));
  List.rev !bad

(* ------------------------------------------------------------------ *)
(* Witnesses: one versioned envelope for every replayable case.  A
   magic line, a [kind] header, the kind's own headers, optional [#]
   note lines, and — for the instance-carrying kinds — the
   {!Serialize} instance document.  The tournament (lib/tournament)
   writes its incumbents through the same pair, so [ftsched fuzz
   --replay] ingests them: a found adversarial instance becomes a fuzz
   seed run through the full oracle battery of both policies it
   separates. *)

type witness =
  | Instance of { scheduler : string; oracle : oracle; case : case }
  | Stream_seed of int
  | Parser_seed of int
  | Tournament of {
      policy_a : string;
      policy_b : string;
      metric : string;
      ratio : float;
      case : case;
    }

let witness_magic = "ftsched-witness v2"

let kind_name = function
  | Instance _ -> "instance"
  | Stream_seed _ -> "stream"
  | Parser_seed _ -> "parser"
  | Tournament _ -> "tournament"

let write_witness ~path ?(notes = []) w =
  let buf = Buffer.create 4096 in
  let header key fmt = Printf.bprintf buf ("%s " ^^ fmt ^^ "\n") key in
  Buffer.add_string buf (witness_magic ^ "\n");
  header "kind" "%s" (kind_name w);
  let case_headers c =
    header "eps" "%d" c.eps;
    header "sched-seed" "%d" c.sched_seed
  in
  (match w with
  | Instance { scheduler; oracle; case } ->
      header "scheduler" "%s" scheduler;
      header "oracle" "%s" (oracle_name oracle);
      case_headers case
  | Stream_seed seed | Parser_seed seed -> header "seed" "%d" seed
  | Tournament { policy_a; policy_b; metric; ratio; case } ->
      header "policy-a" "%s" policy_a;
      header "policy-b" "%s" policy_b;
      header "metric" "%s" metric;
      (* %h keeps the ratio bit-exact across the round trip, like every
         float in the instance document below. *)
      header "ratio" "%h" ratio;
      case_headers case);
  List.iter
    (fun n ->
      Printf.bprintf buf "# %s\n"
        (String.map (function '\n' -> ' ' | c -> c) n))
    notes;
  (match w with
  | Instance { case; _ } | Tournament { case; _ } ->
      Buffer.add_string buf (Serialize.instance_to_string case.instance)
  | Stream_seed _ | Parser_seed _ -> ());
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> Buffer.output_buffer oc buf)

let read_witness ~path =
  let fail fmt = Printf.ksprintf (fun m -> failwith (path ^ ": " ^ m)) fmt in
  let lines =
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
    |> String.split_on_char '\n'
  in
  (match lines with
  | magic :: _ when String.trim magic = witness_magic -> ()
  | _ -> fail "bad magic (expected %S)" witness_magic);
  (* headers run up to the instance document's own magic line *)
  let rec split acc = function
    | [] -> (List.rev acc, None)
    | l :: _ as doc when String.trim l = "ftsched v1" ->
        (List.rev acc, Some (String.concat "\n" doc))
    | l :: tl -> split (l :: acc) tl
  in
  let headers, doc = split [] (List.tl lines) in
  let req key =
    match
      List.find_map
        (fun l ->
          match String.split_on_char ' ' (String.trim l) with
          | k :: rest when k = key -> Some (String.concat " " rest)
          | _ -> None)
        headers
    with
    | Some v -> v
    | None -> fail "missing %S header" key
  in
  let parsed key parse =
    let v = req key in
    match parse v with Some x -> x | None -> fail "bad %s %S" key v
  in
  let case () =
    match doc with
    | None -> fail "missing instance document"
    | Some d ->
        let eps = parsed "eps" int_of_string_opt in
        let sched_seed = parsed "sched-seed" int_of_string_opt in
        { instance = Serialize.instance_of_string d; eps; sched_seed }
  in
  match req "kind" with
  | "instance" ->
      let scheduler = req "scheduler" in
      let oracle = parsed "oracle" oracle_of_name in
      Instance { scheduler; oracle; case = case () }
  | "stream" -> Stream_seed (parsed "seed" int_of_string_opt)
  | "parser" -> Parser_seed (parsed "seed" int_of_string_opt)
  | "tournament" ->
      let policy_a = req "policy-a" and policy_b = req "policy-b" in
      let metric = req "metric" in
      let ratio = parsed "ratio" float_of_string_opt in
      Tournament { policy_a; policy_b; metric; ratio; case = case () }
  | k -> fail "unknown witness kind %S" k

let witness_name = function
  | Instance { scheduler; _ } -> scheduler
  | Stream_seed seed -> Printf.sprintf "stream seed %d" seed
  | Parser_seed seed -> Printf.sprintf "parser seed %d" seed
  | Tournament { policy_a; policy_b; _ } ->
      Printf.sprintf "%s-vs-%s" policy_a policy_b

let witness_filename ~seed = function
  | Instance { scheduler; oracle; _ } ->
      Printf.sprintf "seed%d-%s-%s.case" seed scheduler (oracle_name oracle)
  | Stream_seed s -> Printf.sprintf "stream-seed%d.case" s
  | Parser_seed s -> Printf.sprintf "parser-seed%d.case" s
  | Tournament { policy_a; policy_b; _ } ->
      Printf.sprintf "%s-vs-%s-seed%d.case" policy_a policy_b seed

let replay ?(schedulers = Schedulers.all) path =
  let ( let* ) = Result.bind in
  let find name =
    match List.find_opt (fun s -> s.Schedulers.name = name) schedulers with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "unknown scheduler %S" name)
  in
  match read_witness ~path with
  | exception e -> Error (Printexc.to_string e)
  | w ->
      let* violations =
        match w with
        | Instance { scheduler; case; _ } ->
            let* s = find scheduler in
            Ok (check s case)
        | Stream_seed seed -> Ok (check_stream ~seed)
        | Parser_seed seed -> Ok (check_parser ~seed)
        | Tournament { policy_a; policy_b; case; _ } ->
            let* a = find policy_a in
            let* b = find policy_b in
            let tag p =
              List.map (fun v -> { v with detail = p ^ ": " ^ v.detail })
            in
            Ok (tag policy_a (check a case) @ tag policy_b (check b case))
      in
      Ok (witness_name w, violations)

let replay_corpus ?schedulers dir =
  let entries = Sys.readdir dir in
  Array.sort compare entries;
  Array.to_list entries
  |> List.filter (fun f -> Filename.check_suffix f ".case")
  |> List.map (fun f ->
         let path = Filename.concat dir f in
         (path, replay ?schedulers path))

let replay_command ~path = Printf.sprintf "ftsched fuzz --replay %s" path

(* ------------------------------------------------------------------ *)
(* Campaign                                                            *)

type shrink_stats = { original : case; steps : int; evaluations : int }

type finding = {
  seed : int;
  witness : witness;
  violations : violation list;
  shrink : shrink_stats option;
}

(* The first violation of each oracle, in check order: an oracle can
   fire on several scenarios, but the shrinker minimizes per oracle. *)
let first_per_oracle vs =
  List.filteri
    (fun i v -> List.find_index (fun v' -> v'.oracle = v.oracle) vs = Some i)
    vs

let run_seed ?(schedulers = Schedulers.all) seed =
  let case = gen_case ~seed in
  List.concat_map
    (fun sched ->
      first_per_oracle (check sched case)
      |> List.map (fun v ->
             let shrunk, steps, evaluations = shrink sched case v.oracle in
             (* prefer the violation detail as seen on the minimal
                witness — that is what the witness file reproduces *)
             let violation =
               match
                 List.find_opt
                   (fun v' -> v'.oracle = v.oracle)
                   (check sched shrunk)
               with
               | Some v' -> v'
               | None -> v
             in
             {
               seed;
               witness =
                 Instance
                   { scheduler = sched.Schedulers.name; oracle = v.oracle; case = shrunk };
               violations = [ violation ];
               shrink = Some { original = case; steps; evaluations };
             }))
    schedulers

(* The stream and parser-safety cases ARE their seed: nothing to shrink. *)
let seed_finding ~seed witness = function
  | [] -> []
  | violations -> [ { seed; witness; violations; shrink = None } ]

type report = {
  seeds_requested : int;
  seeds_run : int;
  schedulers_run : int;
  findings : (finding * string option) list;
}

let campaign ?(schedulers = Schedulers.all) ?jobs ?(should_stop = fun () -> false)
    ?(dir = "_fuzz") ?(save = true) ~seeds () =
  let jobs_eff = match jobs with Some j -> j | None -> Par.default_jobs () in
  let chunk = max 1 (jobs_eff * 4) in
  let found = ref [] and start = ref 0 in
  while !start < seeds && not (should_stop ()) do
    let n = min chunk (seeds - !start) in
    let base = !start in
    let results =
      Par.parallel_init ?jobs n (fun i ->
          let seed = base + i in
          run_seed ~schedulers seed
          @ seed_finding ~seed (Stream_seed seed) (check_stream ~seed)
          @ seed_finding ~seed (Parser_seed seed) (check_parser ~seed))
    in
    found := !found @ List.concat results;
    start := !start + n
  done;
  let save_finding f =
    if not save then (f, None)
    else begin
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let path =
        Filename.concat dir (witness_filename ~seed:f.seed f.witness)
      in
      let notes =
        List.map
          (fun v -> Printf.sprintf "[%s] %s" (oracle_name v.oracle) v.detail)
          f.violations
      in
      write_witness ~path ~notes f.witness;
      (f, Some path)
    end
  in
  {
    seeds_requested = seeds;
    seeds_run = !start;
    schedulers_run = List.length schedulers;
    findings = List.map save_finding !found;
  }

let pp_finding ppf f =
  let size c =
    Format.asprintf "%d tasks / %d edges / %d procs / eps %d"
      (Instance.n_tasks c.instance)
      (Dag.n_edges (Instance.dag c.instance))
      (Instance.n_procs c.instance)
      c.eps
  in
  (match f.witness with
  | Instance { scheduler; _ } ->
      Format.fprintf ppf "seed %d / %s:" f.seed scheduler
  | w -> Format.fprintf ppf "%s:" (witness_name w));
  List.iter
    (fun v ->
      Format.fprintf ppf "@,  [%s] %s" (oracle_name v.oracle) v.detail)
    f.violations;
  match (f.witness, f.shrink) with
  | Instance { case; _ }, Some s ->
      Format.fprintf ppf
        "@,  original: %s@,  shrunk:   %s (%d steps, %d evaluations)"
        (size s.original) (size case) s.steps s.evaluations
  | _ -> ()
