module Instance = Ftsched_model.Instance
module Driver = Ftsched_kernel.Driver

type t = {
  name : string;
  run :
    ?trace:Ftsched_kernel.Trace.t ->
    seed:int ->
    Instance.t ->
    eps:int ->
    Ftsched_schedule.Schedule.t;
}

(* Deterministic per-platform parameters, recomputed from the current m
   so the fuzzer's shrinker can drop processors; [domains_for] yields at
   least eps+1 domains whenever eps < m. *)
let rates_for m = Array.init m (fun p -> 0.0005 *. float_of_int (p + 1))

let domains_for ~m ~eps =
  let d = min m (eps + 2) in
  Array.init m (fun p -> p mod d)

(* FTSA warm-starts from a per-domain workspace: callers fan out over
   the Domain pool (fuzz and tournament campaigns, the daemon's
   handlers), a workspace is single-owner, and results are bit-for-bit
   identical with or without one. *)
let ftsa_workspace : Driver.workspace Domain.DLS.key =
  Domain.DLS.new_key Driver.workspace

let mc name strategy =
  { name; run = (fun ?trace ~seed -> Mc_ftsa.schedule ~seed ~strategy ?trace) }

let fault_free name schedule =
  { name; run = (fun ?trace ~seed:_ inst ~eps:_ -> schedule ?trace inst) }

let all =
  [
    {
      name = "ftsa";
      run =
        (fun ?trace ~seed inst ~eps ->
          let workspace = Domain.DLS.get ftsa_workspace in
          Ftsa.schedule ~seed ?trace ~workspace inst ~eps);
    };
    mc "mc-ftsa" Mc_ftsa.Greedy;
    mc "mc-bottleneck" Mc_ftsa.Bottleneck;
    mc "mc-redundant" (Mc_ftsa.Redundant 2);
    {
      name = "ca-ftsa";
      run = (fun ?trace ~seed inst ~eps -> Ca_ftsa.schedule ~seed ?trace inst ~eps);
    };
    {
      name = "r-ftsa";
      run =
        (fun ?trace ~seed inst ->
          let rates = rates_for (Instance.n_procs inst) in
          R_ftsa.schedule ~seed ?trace ~rates inst);
    };
    {
      name = "ftsa-domains";
      run =
        (fun ?trace ~seed inst ~eps ->
          let domains = domains_for ~m:(Instance.n_procs inst) ~eps in
          Ftsa_domains.schedule ~seed ?trace ~domains inst ~eps);
    };
    {
      name = "ftbar";
      run =
        (fun ?trace ~seed inst ~eps ->
          Ftsched_baseline.Ftbar.schedule ~seed ?trace inst ~npf:eps);
    };
    fault_free "heft" Ftsched_baseline.Heft.schedule;
    fault_free "peft" Ftsched_baseline.Peft.schedule;
    fault_free "cpop" Ftsched_baseline.Cpop.schedule;
  ]

let find name = List.find_opt (fun s -> s.name = name) all
let names = List.map (fun s -> s.name) all
