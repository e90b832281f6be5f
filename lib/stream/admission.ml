module Instance = Ftsched_model.Instance
module Schedule = Ftsched_schedule.Schedule
module Ftsa = Ftsched_core.Ftsa

type reject_reason =
  | Backpressure of { inflight : int; capacity : int }
  | Deadline_infeasible of { needed : float; deadline : float }

let pp_reject ppf = function
  | Backpressure { inflight; capacity } ->
      Format.fprintf ppf "backpressure (%d/%d in flight)" inflight capacity
  | Deadline_infeasible { needed; deadline } ->
      Format.fprintf ppf "deadline infeasible (needs %.4g, deadline %.4g)"
        needed deadline

type plan = {
  schedule : Schedule.t;
  release : float array;
  eps_planned : int;
  degraded_admission : bool;
  rel_finish : float;
}

type t = {
  m : int;
  capacity : int;
  avail : float array;  (* absolute instant each processor frees up *)
  mutable finishes : float list;  (* guaranteed finishes of admitted jobs *)
}

let create ~m ~capacity =
  if m <= 0 then invalid_arg "Admission.create: m";
  if capacity <= 0 then invalid_arg "Admission.create: capacity";
  { m; capacity; avail = Array.make m 0.; finishes = [] }

let n_procs c = c.m

let prune c ~now = c.finishes <- List.filter (fun f -> f > now) c.finishes

let inflight c ~now =
  prune c ~now;
  List.length c.finishes

let residual c ~now =
  Array.map (fun a -> Float.max 0. (a -. now)) c.avail

let occupy c ~proc ~until =
  if proc < 0 || proc >= c.m then invalid_arg "Admission.occupy: proc";
  if not (until >= 0. && until < infinity) then
    invalid_arg "Admission.occupy: until";
  c.avail.(proc) <- Float.max c.avail.(proc) until

(* The busy tail a plan reserves on each processor: the latest
   pessimistic finish of a replica hosted there (equation (3) prices the
   tail under up to [eps] in-plan crashes). *)
let plan_tails m s =
  Array.init m (fun p ->
      Array.fold_left
        (fun tail (r : Schedule.replica) -> Float.max tail r.pess_finish)
        0. (Schedule.timeline s p))

let try_admit ?workspace c ~now ~deadline ~eps ~seed inst =
  if Instance.n_procs inst <> c.m then
    invalid_arg "Admission.try_admit: instance platform size";
  if eps < 0 || eps >= c.m then invalid_arg "Admission.try_admit: eps";
  prune c ~now;
  let inflight = List.length c.finishes in
  if inflight >= c.capacity then
    Error (Backpressure { inflight; capacity = c.capacity })
  else begin
    let release = residual c ~now in
    (* Graceful degradation: largest replication level that still meets
       the deadline on the residual timelines, down to none. *)
    let rec attempt e =
      let s = Ftsa.schedule ~seed ~release ?workspace inst ~eps:e in
      let rel_finish = Schedule.latency_upper_bound s in
      if now +. rel_finish <= deadline then
        Ok
          {
            schedule = s;
            release;
            eps_planned = e;
            degraded_admission = e < eps;
            rel_finish;
          }
      else if e > 0 then attempt (e - 1)
      else Error (Deadline_infeasible { needed = now +. rel_finish; deadline })
    in
    match attempt eps with
    | Error _ as err -> err
    | Ok plan ->
        let tails = plan_tails c.m plan.schedule in
        Array.iteri
          (fun p tail ->
            if tail > 0. then c.avail.(p) <- Float.max c.avail.(p) (now +. tail))
          tails;
        c.finishes <- (now +. plan.rel_finish) :: c.finishes;
        Ok plan
  end
