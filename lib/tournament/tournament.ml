module Rng = Ftsched_util.Rng
module Table = Ftsched_util.Table
module Instance = Ftsched_model.Instance
module Schedule = Ftsched_schedule.Schedule
module Validate = Ftsched_schedule.Validate
module Serialize = Ftsched_schedule.Serialize
module Scenario = Ftsched_sim.Scenario
module Crash_exec = Ftsched_sim.Crash_exec
module Worst_case = Ftsched_sim.Worst_case
module Fuzz = Ftsched_fuzz.Fuzz
module Schedulers = Ftsched_core.Schedulers
module Par = Ftsched_par.Par

(* ------------------------------------------------------------------ *)
(* Metrics and outcomes                                                *)

type metric = Guaranteed | Crash_worst

let metric_name = function
  | Guaranteed -> "guaranteed"
  | Crash_worst -> "crash-worst"

let metric_of_name = function
  | "guaranteed" -> Some Guaranteed
  | "crash-worst" -> Some Crash_worst
  | _ -> None

type outcome = Defeated | Makespan of float

(* Score one policy on a genome, or [None] when the policy failed to
   produce a valid schedule at all (scheduler raised, or Validate
   rejected the output).  Those are fuzzer findings, not tournament
   evidence: the candidate instance is rejected so every witness this
   module saves replays through clean schedules. *)
let eval_policy (sched : Schedulers.t) ~metric ~sched_seed
    (g : Mutate.genome) =
  match sched.Schedulers.run ~seed:sched_seed g.Mutate.instance ~eps:g.Mutate.eps with
  | exception _ -> None
  | s -> (
      match Validate.check s with
      | Error _ -> None
      | Ok () -> (
          match metric with
          | Guaranteed ->
              let ub = Schedule.latency_upper_bound s in
              if Float.is_finite ub && ub > 0. then Some (Makespan ub)
              else None
          | Crash_worst -> (
              (* the fault-free replay, then every exactly-eps crash set
                 under the strict policy; one defeat is the strongest
                 possible separation, +infinity dominance *)
              match
                ( Crash_exec.latency_result s Scenario.none,
                  Worst_case.analyze ~policy:Crash_exec.Strict s
                    ~count:g.Mutate.eps )
              with
              | exception _ -> None
              | Error _, _ -> Some Defeated
              | Ok _, { Worst_case.defeated; _ } when defeated > 0 ->
                  Some Defeated
              | Ok _, { Worst_case.stats = None; _ } -> None
              | Ok fault_free, { Worst_case.stats = Some st; _ } ->
                  let worst = Float.max fault_free st.Worst_case.worst in
                  if Float.is_finite worst && worst >= 0. then
                    Some (Makespan worst)
                  else None)))

(* NaN-safe dominance ratio M_A / M_B.  [b] Defeated rejects the
   candidate outright (a defeated yardstick measures nothing); [a]
   Defeated with a surviving [b] is +infinity, never NaN.  All ranking
   downstream goes through [Float.compare] on the result. *)
let ratio ~a ~b =
  match (a, b) with
  | _, Defeated -> None
  | Defeated, Makespan _ -> Some infinity
  | Makespan x, Makespan y ->
      let r = x /. y in
      if Float.is_nan r then None else Some r

let score ~a ~b ~metric ~sched_seed g =
  match eval_policy a ~metric ~sched_seed g with
  | None -> None
  | Some oa -> (
      match eval_policy b ~metric ~sched_seed g with
      | None -> None
      | Some ob -> ratio ~a:oa ~b:ob)

(* ------------------------------------------------------------------ *)
(* Per-pair simulated annealing                                        *)

type pair_report = {
  policy_a : string;
  policy_b : string;
  pair_seed : int;
  sched_seed : int;
  best : Mutate.genome option;
      (** the incumbent, {e reparsed} from its own serialized form so
          the saved witness is the exact genome that scored [best_ratio] *)
  best_ratio : float;  (** [neg_infinity] when [best = None] *)
  baseline_ratio : float option;
      (** best ratio over the [baseline] random instances, when asked *)
  evaluated : int;
  accepted : int;
  rejected : int;  (** candidates that failed validity or scoring *)
  round_trip_failures : int;
      (** improvements discarded because serialize-then-replay did not
          reproduce the ratio bit-for-bit *)
  best_trace : float list;
      (** best-so-far ratio after each accepted step, oldest first —
          monotone non-decreasing by construction, pinned by QCheck *)
}

(* Geometric cooling from [temp] down to [temp * 0.02]. *)
let temperature ~temp ~iters i =
  temp *. (0.02 ** (float_of_int i /. float_of_int (max 1 iters)))

let search ?(iters = 200) ?(temp = 0.25) ?(metric = Guaranteed)
    ?(baseline = 0) ~seed (a : Schedulers.t) (b : Schedulers.t) =
  let sched_seed = seed in
  let score_g g = score ~a ~b ~metric ~sched_seed g in
  let evaluated = ref 0 in
  let rejected = ref 0 in
  let accepted = ref 0 in
  let round_trip_failures = ref 0 in
  let best_trace = ref [] in
  let try_score g =
    incr evaluated;
    match Mutate.valid g with
    | Error _ ->
        incr rejected;
        None
    | Ok () -> (
        match score_g g with
        | None ->
            incr rejected;
            None
        | Some r -> Some r)
  in
  (* Save-then-replay: reparse the serialized incumbent and require the
     reparsed genome to reproduce the ratio bit-for-bit.  The reparsed
     genome becomes the stored incumbent, so what the witness file
     carries IS what scored. *)
  let replayable g r =
    match
      let doc = Serialize.instance_to_string g.Mutate.instance in
      let g' =
        { Mutate.instance = Serialize.instance_of_string doc;
          eps = g.Mutate.eps }
      in
      (g', score_g g')
    with
    | exception _ -> None
    | g', Some r' when Float.compare r' r = 0 -> Some g'
    | _ -> None
  in
  let rng = Rng.create ~seed in
  (* Seed genome: first random draw that scores. *)
  let rec init k =
    if k = 0 then None
    else
      let g = Mutate.random rng in
      match try_score g with
      | Some r -> Some (g, r)
      | None -> init (k - 1)
  in
  let state = init 64 in
  let best = ref None and best_ratio = ref neg_infinity in
  let record_best g r =
    match replayable g r with
    | Some g' ->
        best := Some g';
        best_ratio := r
    | None -> incr round_trip_failures
  in
  (match state with Some (g, r) -> record_best g r | None -> ());
  (match state with
  | None -> ()
  | Some (g0, r0) ->
      let cur = ref g0 and cur_ratio = ref r0 in
      for i = 0 to iters - 1 do
        match Mutate.mutate rng !cur with
        | None -> incr rejected
        | Some cand -> (
            match try_score cand with
            | None -> ()
            | Some r ->
                let t = temperature ~temp ~iters i in
                let accept =
                  if Float.compare r !cur_ratio >= 0 then true
                  else
                    (* r < cur, both finite or cur = +inf; the
                       exponent is finite-negative or -inf, so the
                       probability is in [0, 1) and exp(-inf) = 0
                       makes a downgrade from +inf impossible. *)
                    Rng.bernoulli rng (exp ((r -. !cur_ratio) /. t))
                in
                if accept then begin
                  incr accepted;
                  cur := cand;
                  cur_ratio := r;
                  if Float.compare r !best_ratio > 0 then record_best cand r;
                  best_trace := !best_ratio :: !best_trace
                end)
      done);
  (* Independent RNG stream for the random-search yardstick: the best
     ratio plain random instances of the same size achieve. *)
  let baseline_ratio =
    if baseline <= 0 then None
    else begin
      let brng = Rng.create ~seed:(seed + 1_000_003) in
      let bbest = ref nan in
      for _ = 1 to baseline do
        let g = Mutate.random brng in
        match score_g g with
        | None -> ()
        | Some r ->
            if Float.is_nan !bbest || Float.compare r !bbest > 0 then
              bbest := r
      done;
      if Float.is_nan !bbest then None else Some !bbest
    end
  in
  {
    policy_a = a.Schedulers.name;
    policy_b = b.Schedulers.name;
    pair_seed = seed;
    sched_seed;
    best = !best;
    best_ratio = !best_ratio;
    baseline_ratio;
    evaluated = !evaluated;
    accepted = !accepted;
    rejected = !rejected;
    round_trip_failures = !round_trip_failures;
    best_trace = List.rev !best_trace;
  }

(* ------------------------------------------------------------------ *)
(* Campaign: all ordered pairs in parallel                             *)

type report = {
  metric : metric;
  iters : int;
  temp : float;
  seed : int;
  pair_reports : pair_report list;
}

let ordered_pairs policies =
  List.concat_map
    (fun a ->
      List.filter_map
        (fun b ->
          if a.Schedulers.name = b.Schedulers.name then None else Some (a, b))
        policies)
    policies

let campaign ?jobs ?(policies = Schedulers.all) ?pairs ?(iters = 200)
    ?(temp = 0.25) ?(metric = Guaranteed) ?(baseline = 0) ~seed () =
  let all = ordered_pairs policies in
  let all =
    match pairs with
    | None -> all
    | Some k -> List.filteri (fun i _ -> i < k) all
  in
  let indexed = List.mapi (fun i p -> (i, p)) all in
  let pair_reports =
    (* Per-pair seed derived as seed + 31*i (the repo-wide convention),
       so the campaign is bit-identical for any [jobs]. *)
    Par.parallel_map ?jobs
      (fun (i, (a, b)) ->
        search ~iters ~temp ~metric ~baseline ~seed:(seed + (31 * i)) a b)
      indexed
  in
  { metric; iters; temp; seed; pair_reports }

(* The digest the determinism tests (and CI) compare across [-j]:
   every per-pair headline number in [%h], so bit-identical means
   bit-identical. *)
let report_digest r =
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "metric=%s iters=%d temp=%h seed=%d\n" (metric_name r.metric)
    r.iters r.temp r.seed;
  List.iter
    (fun p ->
      Printf.bprintf buf "%s|%s|%d|%h|%d|%d|%d|%d\n" p.policy_a p.policy_b
        p.pair_seed p.best_ratio p.evaluated p.accepted p.rejected
        p.round_trip_failures)
    r.pair_reports;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* ------------------------------------------------------------------ *)
(* Dominance matrix                                                    *)

let ratio_cell r =
  if r = infinity then "inf"
  else if r = neg_infinity then "-"
  else Printf.sprintf "%.3f" r

let matrix_table r =
  let names =
    List.sort_uniq compare
      (List.concat_map
         (fun p -> [ p.policy_a; p.policy_b ])
         r.pair_reports)
  in
  let cell a b =
    if a = b then "."
    else
      match
        List.find_opt
          (fun p -> p.policy_a = a && p.policy_b = b)
          r.pair_reports
      with
      | Some p when p.best <> None -> ratio_cell p.best_ratio
      | _ -> "-"
  in
  let t = Table.create ~columns:("A\\B" :: names) in
  List.iter (fun a -> Table.add_row t (a :: List.map (cell a) names)) names;
  t

(* ------------------------------------------------------------------ *)
(* Witnesses                                                           *)

let save_witnesses ~dir r =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  List.filter_map
    (fun p ->
      match p.best with
      | None -> None
      | Some g ->
          let w =
            Fuzz.Tournament
              {
                policy_a = p.policy_a;
                policy_b = p.policy_b;
                metric = metric_name r.metric;
                ratio = p.best_ratio;
                case =
                  {
                    Fuzz.instance = g.Mutate.instance;
                    eps = g.Mutate.eps;
                    sched_seed = p.sched_seed;
                  };
              }
          in
          let path =
            Filename.concat dir (Fuzz.witness_filename ~seed:p.pair_seed w)
          in
          Fuzz.write_witness ~path w;
          Some (p, path))
    r.pair_reports

(* Re-run a saved witness and require the stored ratio bit-for-bit. *)
let replay path =
  match Fuzz.read_witness ~path with
  | exception e -> Error (Printexc.to_string e)
  | Fuzz.Tournament w -> (
      let find = Schedulers.find in
      match (find w.policy_a, find w.policy_b, metric_of_name w.metric) with
      | None, _, _ -> Error (Printf.sprintf "unknown policy %S" w.policy_a)
      | _, None, _ -> Error (Printf.sprintf "unknown policy %S" w.policy_b)
      | _, _, None -> Error (Printf.sprintf "unknown metric %S" w.metric)
      | Some a, Some b, Some metric -> (
          let g = { Mutate.instance = w.case.instance; eps = w.case.eps } in
          match score ~a ~b ~metric ~sched_seed:w.case.sched_seed g with
          | None -> Error "witness instance no longer scores"
          | Some r ->
              if Float.compare r w.ratio = 0 then Ok r
              else
                Error
                  (Printf.sprintf "ratio drifted: stored %h, replayed %h"
                     w.ratio r)))
  | _ -> Error (path ^ ": not a tournament witness")

let replay_command ~path = Printf.sprintf "ftsched tournament --replay %s" path

(* ------------------------------------------------------------------ *)

let pp_pair_report ppf p =
  let baseline =
    match p.baseline_ratio with
    | None -> ""
    | Some b -> Printf.sprintf " baseline %s" (ratio_cell b)
  in
  Fmt.pf ppf "%-13s vs %-13s ratio %-9s%s  (eval %d acc %d rej %d rt-fail %d)"
    p.policy_a p.policy_b
    (if p.best = None then "-" else ratio_cell p.best_ratio)
    baseline p.evaluated p.accepted p.rejected p.round_trip_failures
