(* The deterministic experiment drivers at their smallest sweeps, each
   reduced to one digest of its CSV tables.  test_exp pins the digests;
   test_par checks them against the worker count. *)

module Workload = Ftsched_exp.Workload
module Figures = Ftsched_exp.Figures
module Table = Ftsched_util.Table

let tiny_spec = Workload.with_graphs_per_point Workload.quick 2

(* tiniest spec that still exercises the sweep paths quickly *)
let micro_spec =
  Workload.with_procs (Workload.with_graphs_per_point Workload.quick 1) 8

let all : (string * (unit -> Table.t list)) list =
  [
    ( "fig1",
      fun () ->
        let p =
          Figures.figure ~spec:tiny_spec ~master_seed:5 ~crash_samples:1 ~eps:1
            ~crash_counts:[ 0; 1 ] ()
        in
        [ p.Figures.bounds; p.Figures.crash; p.Figures.overhead;
          p.Figures.mc_defeats ] );
    ( "fig4",
      fun () ->
        let latency, overhead =
          Figures.figure4 ~spec:tiny_spec ~master_seed:5 ~crash_samples:1 ()
        in
        [ latency; overhead ] );
    ( "contention",
      fun () ->
        [ Figures.contention_ablation ~spec:micro_spec ~eps:1 ~ports:[ 1 ] () ]
    );
    ( "reliability",
      fun () ->
        [
          Figures.reliability_ablation ~spec:micro_spec ~trials:50 ~p_fail:0.1
            ();
        ] );
    ( "rftsa",
      fun () -> [ Figures.rftsa_ablation ~spec:micro_spec ~trials:20 ~eps:1 () ]
    );
    ( "redundancy",
      fun () ->
        [ Figures.redundancy_ablation ~spec:micro_spec ~scenarios_per_graph:2
            ~eps:2 () ] );
    ( "procs",
      fun () ->
        [ Figures.procs_sweep ~spec:micro_spec ~crash_samples:1 ~eps:1
            ~procs:[ 4; 16 ] () ] );
    ( "recovery",
      fun () ->
        let p =
          Figures.recovery_ablation ~spec:tiny_spec ~scenarios_per_graph:2
            ~eps:2 ~intensities:[ 0.15 ] ~delta_factors:[ 0.02 ] ()
        in
        [ p.Figures.campaign; p.Figures.exact_eps ] );
    ( "linkloss",
      fun () ->
        [ Figures.link_loss_ablation ~spec:tiny_spec ~scenarios_per_graph:2
            ~eps:2 ~losses:[ 0.05; 0.3 ] () ] );
  ]

let digest tables =
  Digest.to_hex
    (Digest.string (String.concat "\n" (List.map Table.to_csv tables)))

(* Every driver's digest, computed with the pool's default worker count
   pinned to [jobs]; the previous default is restored afterwards. *)
let digests ~jobs =
  let before = Ftsched_par.Par.default_jobs () in
  Ftsched_par.Par.set_default_jobs jobs;
  Fun.protect
    ~finally:(fun () -> Ftsched_par.Par.set_default_jobs before)
    (fun () -> List.map (fun (name, run) -> (name, digest (run ()))) all)
