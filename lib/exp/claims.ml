module Table = Ftsched_util.Table
module Ftsa = Ftsched_core.Ftsa
module Mc_ftsa = Ftsched_core.Mc_ftsa
module Ftbar = Ftsched_baseline.Ftbar

type verdict = {
  id : string;
  claim : string;
  holds : bool;
  detail : string;
}

(* Helpers over per-granularity series. *)
let series results metric =
  List.map (fun (g, rs) -> (g, Runner.mean_of rs metric)) results

let forall_g pairs f = List.for_all (fun (_, v) -> f v) pairs

let zip_with a b f =
  List.map2 (fun (g, x) (g', y) ->
      assert (g = g');
      (g, f x y))
    a b

let fmt_ratio pairs =
  String.concat " "
    (List.map (fun (g, r) -> Printf.sprintf "%.1f:%.2f" g r) pairs)

let verify ?(spec = Workload.quick) ?(master_seed = 2008) () =
  let sweep eps crash_counts =
    Runner.sweep spec ~master_seed ~eps ~crash_counts ~crash_samples:2 ()
  in
  let e1 = sweep 1 [ 1 ] in
  let e2 = sweep 2 [ 0; 2 ] in
  let verdicts = ref [] in
  let check id claim holds detail =
    verdicts := { id; claim; holds; detail } :: !verdicts
  in
  (* --- bounds, ε = 1 ------------------------------------------------ *)
  let ftsa_lb = series e1 Runner.(Lower Ftsa)
  and ftbar_lb = series e1 Runner.(Lower Ftbar) in
  let r1 = zip_with ftsa_lb ftbar_lb (fun a b -> a /. b) in
  check "fig1.ftsa-lb-beats-ftbar-lb"
    "FTSA's lower bound is below FTBAR's at every granularity (Fig. 1a)"
    (forall_g r1 (fun r -> r < 1.))
    (fmt_ratio r1);
  let ff = series e1 Runner.Fault_free_ftsa in
  let r2 = zip_with ftsa_lb ff (fun a b -> a /. b) in
  check "fig1.ftsa-lb-near-fault-free"
    "FTSA's lower bound stays close to the fault-free latency (within 40%)"
    (forall_g r2 (fun r -> r < 1.4))
    (fmt_ratio r2);
  let mc_lb = series e1 Runner.(Lower Mc_ftsa)
  and mc_ub = series e1 Runner.(Upper Mc_ftsa) in
  let r3 = zip_with mc_ub mc_lb (fun a b -> a /. b) in
  check "fig1.mc-ub-tight"
    "MC-FTSA's upper bound is within 10% of its lower bound (Fig. 1a)"
    (forall_g r3 (fun r -> r < 1.1))
    (fmt_ratio r3);
  check "fig1.mc-lb-above-ftsa-lb"
    "MC-FTSA's lower bound sits slightly above FTSA's"
    (List.for_all2 (fun (_, mc) (_, f) -> mc >= f *. 0.98) mc_lb ftsa_lb)
    (fmt_ratio (zip_with mc_lb ftsa_lb (fun a b -> a /. b)));
  let coarse l = List.filter (fun (g, _) -> g >= 1.0) l in
  let r4 = zip_with (coarse mc_ub) (coarse ftbar_lb) (fun a b -> a /. b) in
  check "fig1.mc-ub-below-ftbar-lb-coarse"
    "For granularity >= 1, MC-FTSA's upper bound beats even FTBAR's lower \
     bound (eps = 1)"
    (forall_g r4 (fun r -> r < 1.))
    (fmt_ratio r4);
  (* --- crashes ------------------------------------------------------- *)
  let r5 =
    zip_with
      (series e1 Runner.(Crash (Ftsa, 1)))
      (series e1 Runner.(Crash (Ftbar, 1)))
      (fun a b -> a /. b)
  in
  check "fig1.crash-ftsa-beats-ftbar"
    "Under one actual crash, FTSA finishes before FTBAR at every granularity"
    (forall_g r5 (fun r -> r < 1.))
    (fmt_ratio r5);
  let r6 =
    zip_with
      (coarse (series e1 Runner.(Crash (Mc_ftsa, 1))))
      (coarse (series e1 Runner.(Crash (Ftbar, 1))))
      (fun a b -> a /. b)
  in
  check "fig1.crash-mc-beats-ftbar-coarse"
    "Under one crash, MC-FTSA beats FTBAR at coarse grain (eps = 1)"
    (forall_g r6 (fun r -> r < 1.05))
    (fmt_ratio r6);
  (* --- growth -------------------------------------------------------- *)
  let monotone_ish l =
    (* allow single-step noise: each point at most 10% below its
       predecessor, and last point well above first *)
    let rec ok = function
      | (_, a) :: ((_, b) :: _ as rest) -> b >= a *. 0.9 && ok rest
      | _ -> true
    in
    match (l, List.rev l) with
    | (_, first) :: _, (_, last) :: _ -> ok l && last > 1.5 *. first
    | _ -> false
  in
  check "fig1.latency-grows-with-granularity"
    "Normalized latency increases with granularity (Figs. 1-3)"
    (monotone_ish ftsa_lb)
    (fmt_ratio (List.map (fun (g, v) -> (g, v)) ftsa_lb));
  (* --- ε = 2 vs ε = 1 ------------------------------------------------ *)
  let mean l = List.fold_left (fun acc (_, v) -> acc +. v) 0. l
               /. float_of_int (List.length l) in
  let lb1 = mean ftsa_lb and lb2 = mean (series e2 Runner.(Lower Ftsa)) in
  check "fig2.overhead-grows-with-eps"
    "Tolerating more failures costs more latency (Fig. 2 vs Fig. 1)"
    (lb2 > lb1)
    (Printf.sprintf "mean FTSA-LB eps1=%.1f eps2=%.1f" lb1 lb2);
  let c2 = mean (series e2 Runner.(Crash (Ftsa, 2)))
  and c0 = mean (series e2 Runner.(Crash (Ftsa, 0))) in
  check "fig2.crashes-absorbed"
    "On 20 processors the extra latency caused by actual crashes is small \
     (already absorbed by replication)"
    (c2 < 1.10 *. c0)
    (Printf.sprintf "mean crash2/crash0 = %.3f" (c2 /. c0));
  (* --- Table 1 ------------------------------------------------------- *)
  (* Growth of the running time from 200 to 1600 tasks — sizes large
     enough that the asymptotic free-set factor dominates the flat-array
     engine's small constants.  CPU-time ratios get noisy when the test
     battery runs beside domain-heavy suites, so every sample repeats its
     run back to back until it has taken at least 10 ms, each round
     interleaves the samples of both schedulers, and the verdict is the
     median over rounds of FTBAR's growth over FTSA's. *)
  let instance n = Workload.sized ~seed:(master_seed + n) ~n_tasks:n ~m:20 in
  let cpu_per_run schedule inst =
    Runner.cpu_per_run (fun () -> schedule inst)
  in
  let small = instance 200 and big = instance 1600 in
  (* the big run sits between two small samples, so a drift in machine
     speed over the sample pair cancels to first order *)
  let growth schedule =
    let before = cpu_per_run schedule small in
    let t_big = cpu_per_run schedule big in
    2. *. t_big /. (before +. cpu_per_run schedule small)
  in
  let rounds =
    Array.init 7 (fun _ ->
        let f = growth (fun i -> Ftsa.schedule i ~eps:2) in
        (f, growth (fun i -> Ftbar.schedule i ~npf:2)))
  in
  let median f = Ftsched_util.Stats.median (Array.map f rounds) in
  let ratio = median (fun (f, b) -> b /. f) in
  check "table1.ftbar-scales-worse"
    "FTBAR's running time grows much faster with the task count than \
     FTSA's (Table 1)"
    (ratio > 2.)
    (Printf.sprintf
       "growth x8 tasks: FTSA %.1fx, FTBAR %.1fx (median ratio %.2f over %d \
        rounds)"
       (median fst) (median snd) ratio (Array.length rounds));
  (* --- message economics --------------------------------------------- *)
  let inst =
    Workload.instance spec ~master_seed ~granularity:1.0 ~index:0
  in
  let module Schedule = Ftsched_schedule.Schedule in
  let msgs s = Schedule.inter_processor_messages s in
  let m_ftsa = msgs (Ftsa.schedule ~seed:master_seed inst ~eps:2) in
  let m_mc = msgs (Mc_ftsa.schedule ~seed:master_seed inst ~eps:2) in
  check "sec4.mc-message-reduction"
    "MC-FTSA sends at most (eps+1)x fewer messages than FTSA's quadratic \
     fan-out on the same instance (§4.2)"
    (m_mc * 2 <= m_ftsa)
    (Printf.sprintf "FTSA=%d MC=%d" m_ftsa m_mc);
  List.rev !verdicts

let to_table verdicts =
  let t = Table.create ~columns:[ "verdict"; "id"; "claim"; "evidence" ] in
  List.iter
    (fun v ->
      Table.add_row t
        [ (if v.holds then "PASS" else "FAIL"); v.id; v.claim; v.detail ])
    verdicts;
  t

let all_hold = List.for_all (fun v -> v.holds)
