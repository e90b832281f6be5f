module Metrics = Ftsched_schedule.Metrics

type eval = { proc : int; finish_opt : float; finish_pess : float }
type replica = { proc : int; start : float; finish : float }

type step = {
  step : int;
  task : int;
  priority : float;
  evals : eval array;
  chosen : replica array;
  edges : (int * (int * int) list) list;
}

type t = {
  mutable algo : string;
  mutable rev_steps : step list;
  mutable n_steps : int;
  mutable candidate_evals : int;
  mutable reductions : int;
  mutable t_evaluate : float;
  mutable t_choose : float;
  mutable t_commit : float;
  mutable gap : Proc_state.gap_stats;
}

let create () =
  {
    algo = "";
    rev_steps = [];
    n_steps = 0;
    candidate_evals = 0;
    reductions = 0;
    t_evaluate = 0.;
    t_choose = 0.;
    t_commit = 0.;
    gap = { Proc_state.searches = 0; scanned = 0 };
  }

let algorithm t = t.algo
let steps t = List.rev t.rev_steps

let start t ~algorithm =
  t.algo <- algorithm;
  t.rev_steps <- [];
  t.n_steps <- 0;
  t.candidate_evals <- 0;
  t.reductions <- 0;
  t.t_evaluate <- 0.;
  t.t_choose <- 0.;
  t.t_commit <- 0.;
  t.gap <- { Proc_state.searches = 0; scanned = 0 }

let record t step =
  t.rev_steps <- step :: t.rev_steps;
  t.n_steps <- t.n_steps + 1

let add_evals t n = t.candidate_evals <- t.candidate_evals + n
let add_reductions t n = t.reductions <- t.reductions + n
let reductions t = t.reductions

let add_phase t phase dt =
  match phase with
  | `Evaluate -> t.t_evaluate <- t.t_evaluate +. dt
  | `Choose -> t.t_choose <- t.t_choose +. dt
  | `Commit -> t.t_commit <- t.t_commit +. dt

let finish t ~gap = t.gap <- gap

let stats t =
  let steps = t.n_steps in
  {
    Metrics.steps;
    candidate_evals = t.candidate_evals;
    evals_per_task =
      (if steps = 0 then 0.
       else float_of_int t.candidate_evals /. float_of_int steps);
    gap_searches = t.gap.Proc_state.searches;
    mean_gap_depth =
      (if t.gap.Proc_state.searches = 0 then 0.
       else
         float_of_int t.gap.Proc_state.scanned
         /. float_of_int t.gap.Proc_state.searches);
    evaluate_time = t.t_evaluate;
    choose_time = t.t_choose;
    commit_time = t.t_commit;
  }

(* Hand-rolled JSON: the repo carries no JSON dependency and the records
   are flat arrays of numbers. *)
let buf_float b f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Buffer.add_string b (Printf.sprintf "%.1f" f)
  else Buffer.add_string b (Printf.sprintf "%.17g" f)

let save_jsonl t ~path =
  let oc = open_out path in
  let b = Buffer.create 4096 in
  List.iter
    (fun s ->
      Buffer.clear b;
      Buffer.add_string b
        (Printf.sprintf "{\"step\":%d,\"task\":%d,\"priority\":" s.step s.task);
      if Float.is_nan s.priority then Buffer.add_string b "null"
      else buf_float b s.priority;
      Buffer.add_string b ",\"evals\":[";
      Array.iteri
        (fun i (e : eval) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_string b (Printf.sprintf "{\"proc\":%d,\"fopt\":" e.proc);
          buf_float b e.finish_opt;
          Buffer.add_string b ",\"fpess\":";
          buf_float b e.finish_pess;
          Buffer.add_char b '}')
        s.evals;
      Buffer.add_string b "],\"chosen\":[";
      Array.iteri
        (fun i (r : replica) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_string b (Printf.sprintf "{\"proc\":%d,\"start\":" r.proc);
          buf_float b r.start;
          Buffer.add_string b ",\"finish\":";
          buf_float b r.finish;
          Buffer.add_char b '}')
        s.chosen;
      Buffer.add_string b "]";
      (match s.edges with
      | [] -> ()
      | edges ->
          Buffer.add_string b ",\"edges\":[";
          List.iteri
            (fun i (e, pairs) ->
              if i > 0 then Buffer.add_char b ',';
              Buffer.add_string b (Printf.sprintf "{\"edge\":%d,\"pairs\":[" e);
              List.iteri
                (fun j (l, r) ->
                  if j > 0 then Buffer.add_char b ',';
                  Buffer.add_string b (Printf.sprintf "[%d,%d]" l r))
                pairs;
              Buffer.add_string b "]}")
            edges;
          Buffer.add_string b "]");
      Buffer.add_string b "}\n";
      Buffer.output_buffer oc b)
    (steps t);
  let s = stats t in
  Printf.fprintf oc
    "{\"summary\":{\"algorithm\":%S,\"steps\":%d,\"candidate_evals\":%d,\
     \"gap_searches\":%d,\"mean_gap_depth\":%.6f,\"evaluate_time\":%.6f,\
     \"choose_time\":%.6f,\"commit_time\":%.6f}}\n"
    t.algo s.Metrics.steps s.Metrics.candidate_evals s.Metrics.gap_searches
    s.Metrics.mean_gap_depth s.Metrics.evaluate_time s.Metrics.choose_time
    s.Metrics.commit_time;
  close_out oc
