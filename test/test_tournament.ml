(* Tests for Ftsched_tournament: the mutation kernel's closure property
   (every operator maps valid genomes to valid genomes), NaN-safe
   ranking, the monotone incumbent trace, -j determinism of campaign
   digests, and the save-then-replay witness path — including fuzz
   ingestion of tournament witnesses. *)

module Mutate = Ftsched_tournament.Mutate
module Tournament = Ftsched_tournament.Tournament
module Fuzz = Ftsched_fuzz.Fuzz
module Rng = Ftsched_util.Rng
module Instance = Ftsched_model.Instance
open Helpers

let sched name = Option.get (Ftsched_core.Schedulers.find name)
let ftsa = sched "ftsa"
let mc_ftsa = sched "mc-ftsa"

(* ------------------------------------------------------------------ *)
(* Mutation closure                                                    *)

(* Every operator, applied anywhere in a short random mutation walk,
   must produce a genome that is again valid: acyclic (Dag.Builder
   enforces it), weakly connected when the seed was, finite positive
   costs, eps <= m-1, under the serializer caps, and bit-identical
   through a serialize round trip.  One QCheck case = one seed genome
   plus one attempt of every operator at each step of the walk. *)
let prop_mutation_closure =
  QCheck.Test.make ~name:"mutation ops are closed over valid genomes"
    ~count:60
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let g0 = Mutate.random rng in
      (match Mutate.valid g0 with
      | Ok () -> ()
      | Error msg -> QCheck.Test.fail_reportf "seed genome invalid: %s" msg);
      let cur = ref g0 in
      for _step = 0 to 3 do
        List.iter
          (fun op ->
            match Mutate.apply rng op !cur with
            | None -> ()
            | Some g' -> (
                match Mutate.valid g' with
                | Ok () -> cur := g'
                | Error msg ->
                    QCheck.Test.fail_reportf "%s broke validity: %s"
                      (Mutate.op_name op) msg))
          Mutate.all_ops
      done;
      true)

let test_mutate_makes_progress () =
  (* [mutate] should essentially always find an applicable operator. *)
  let rng = Rng.create ~seed:42 in
  let g = Mutate.random rng in
  let applied = ref 0 in
  let cur = ref g in
  for _ = 1 to 50 do
    match Mutate.mutate rng !cur with
    | Some g' ->
        incr applied;
        cur := g'
    | None -> ()
  done;
  Alcotest.(check bool) "mutations applied" true (!applied >= 45)

(* ------------------------------------------------------------------ *)
(* NaN-safe ranking                                                    *)

let test_ratio_nan_safety () =
  let some_inf = Tournament.ratio ~a:Tournament.Defeated ~b:(Tournament.Makespan 2.) in
  Alcotest.(check bool) "a defeated -> +inf" true (some_inf = Some infinity);
  Alcotest.(check bool) "b defeated -> rejected" true
    (Tournament.ratio ~a:(Tournament.Makespan 2.) ~b:Tournament.Defeated = None);
  Alcotest.(check bool) "both defeated -> rejected" true
    (Tournament.ratio ~a:Tournament.Defeated ~b:Tournament.Defeated = None);
  (match Tournament.ratio ~a:(Tournament.Makespan 6.) ~b:(Tournament.Makespan 2.) with
  | Some r -> check_float "finite ratio" 3. r
  | None -> Alcotest.fail "finite pair must score");
  (* no combination may ever surface NaN *)
  List.iter
    (fun (a, b) ->
      match Tournament.ratio ~a ~b with
      | Some r -> Alcotest.(check bool) "never NaN" false (Float.is_nan r)
      | None -> ())
    [
      (Tournament.Defeated, Tournament.Defeated);
      (Tournament.Defeated, Tournament.Makespan 1.);
      (Tournament.Makespan 1., Tournament.Defeated);
      (Tournament.Makespan 0., Tournament.Makespan 0.);
      (Tournament.Makespan 1., Tournament.Makespan 1.);
    ]

let test_metric_names () =
  List.iter
    (fun m ->
      match Tournament.metric_of_name (Tournament.metric_name m) with
      | Some m' -> Alcotest.(check bool) "metric name round-trip" true (m = m')
      | None -> Alcotest.fail "metric name did not round-trip")
    [ Tournament.Guaranteed; Tournament.Crash_worst ];
  Alcotest.(check bool) "unknown rejected" true
    (Tournament.metric_of_name "bogus" = None)

(* ------------------------------------------------------------------ *)
(* Annealer                                                            *)

(* The incumbent trace is best-so-far after each accepted step: it must
   be monotone non-decreasing under Float.compare even though the
   annealer itself accepts downhill moves. *)
let prop_incumbent_monotone =
  QCheck.Test.make ~name:"incumbent ratio monotone non-decreasing" ~count:15
    QCheck.(int_range 0 5_000)
    (fun seed ->
      let r = Tournament.search ~iters:40 ~seed ftsa mc_ftsa in
      let rec mono = function
        | a :: (b :: _ as tl) ->
            if Float.compare a b > 0 then
              QCheck.Test.fail_reportf "trace decreased: %h -> %h" a b
            else mono tl
        | _ -> true
      in
      mono r.Tournament.best_trace)

let test_search_beats_nothing_silently () =
  (* A short search on the default metric must produce an incumbent:
     every policy schedules every valid instance, so only round-trip
     failures could starve it — and those are counted. *)
  let r = Tournament.search ~iters:30 ~seed:11 ftsa mc_ftsa in
  Alcotest.(check bool) "found incumbent" true (r.Tournament.best <> None);
  Alcotest.(check bool) "ratio is finite or +inf" true
    (not (Float.is_nan r.Tournament.best_ratio));
  check_int "no round-trip failures" 0 r.Tournament.round_trip_failures

let test_campaign_digest_jobs_invariant () =
  let campaign jobs =
    Tournament.campaign ~jobs ~pairs:4 ~iters:25 ~seed:3 ()
  in
  let d1 = Tournament.report_digest (campaign 1) in
  let d4 = Tournament.report_digest (campaign 4) in
  Alcotest.(check string) "-j1 = -j4 digest" d1 d4

let test_baseline_stream_independent () =
  (* Scoring a baseline must not perturb the annealing stream: same
     seed, with and without baseline, same incumbent. *)
  let a = Tournament.search ~iters:25 ~seed:5 ftsa mc_ftsa in
  let b = Tournament.search ~iters:25 ~seed:5 ~baseline:20 ftsa mc_ftsa in
  Alcotest.(check bool) "same incumbent ratio" true
    (Float.compare a.Tournament.best_ratio b.Tournament.best_ratio = 0);
  Alcotest.(check bool) "baseline present" true
    (b.Tournament.baseline_ratio <> None)

(* ------------------------------------------------------------------ *)
(* Witnesses                                                           *)

let with_temp_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ftsched-test-tournament-%d" (Unix.getpid ()))
  in
  if Sys.file_exists dir then
    Array.iter
      (fun e -> Sys.remove (Filename.concat dir e))
      (Sys.readdir dir)
  else Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun e -> Sys.remove (Filename.concat dir e))
        (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let test_witnesses_replay_bit_for_bit () =
  with_temp_dir (fun dir ->
      let report = Tournament.campaign ~jobs:2 ~pairs:3 ~iters:30 ~seed:7 () in
      let witnesses = Tournament.save_witnesses ~dir report in
      Alcotest.(check bool) "witnesses saved" true (witnesses <> []);
      List.iter
        (fun (p, path) ->
          match Tournament.replay path with
          | Ok r ->
              Alcotest.(check bool)
                (path ^ " ratio reproduced") true
                (Float.compare r p.Tournament.best_ratio = 0)
          | Error msg -> Alcotest.failf "%s: %s" path msg)
        witnesses)

let test_fuzz_ingests_tournament_witnesses () =
  with_temp_dir (fun dir ->
      let report = Tournament.campaign ~jobs:2 ~pairs:2 ~iters:25 ~seed:9 () in
      let witnesses = Tournament.save_witnesses ~dir report in
      Alcotest.(check bool) "witnesses saved" true (witnesses <> []);
      (* fuzz --replay dispatches on the magic and runs the full oracle
         battery of both policies; clean schedules replay clean *)
      List.iter
        (fun (_, path) ->
          match Fuzz.replay path with
          | Ok (_, []) -> ()
          | Ok (name, vs) ->
              Alcotest.failf "%s: %s fired %d oracle(s)" path name
                (List.length vs)
          | Error msg -> Alcotest.failf "%s: %s" path msg)
        witnesses;
      (* and replay_corpus picks them up next to ordinary fuzz cases *)
      let results = Fuzz.replay_corpus dir in
      check_int "corpus size" (List.length witnesses) (List.length results))

let test_tournament_witness_io_roundtrip () =
  with_temp_dir (fun dir ->
      let rng = Rng.create ~seed:13 in
      let g = Mutate.random rng in
      let ratio = 0x1.921fb54442d18p+1 in
      let case =
        {
          Fuzz.instance = g.Mutate.instance;
          eps = g.Mutate.eps;
          sched_seed = 99;
        }
      in
      let path = Filename.concat dir "io-roundtrip.case" in
      Fuzz.write_witness ~path
        (Fuzz.Tournament
           {
             policy_a = "ftsa";
             policy_b = "mc-ftsa";
             metric = "guaranteed";
             ratio;
             case;
           });
      (match Fuzz.read_witness ~path with
      | Fuzz.Tournament w ->
          Alcotest.(check string) "policy a" "ftsa" w.policy_a;
          Alcotest.(check string) "policy b" "mc-ftsa" w.policy_b;
          Alcotest.(check string) "metric" "guaranteed" w.metric;
          Alcotest.(check bool) "ratio bit-exact" true
            (Float.compare ratio w.ratio = 0);
          check_int "eps" case.eps w.case.eps;
          check_int "sched seed" case.sched_seed w.case.sched_seed;
          Alcotest.(check bool) "instance bit-identical" true
            (Ftsched_schedule.Serialize.instance_to_string case.instance
            = Ftsched_schedule.Serialize.instance_to_string w.case.instance)
      | _ -> Alcotest.fail "read back as another witness kind");
      (* the tournament replays only its own kind *)
      Fuzz.write_witness ~path (Fuzz.Stream_seed 3);
      match Tournament.replay path with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "a stream witness replayed as a tournament")

let () =
  Alcotest.run "tournament"
    [
      ( "mutate",
        [
          quick prop_mutation_closure;
          Alcotest.test_case "mutate applies" `Quick test_mutate_makes_progress;
        ] );
      ( "ranking",
        [
          Alcotest.test_case "ratio NaN-safe" `Quick test_ratio_nan_safety;
          Alcotest.test_case "metric names" `Quick test_metric_names;
        ] );
      ( "annealer",
        [
          quick prop_incumbent_monotone;
          Alcotest.test_case "incumbent found" `Quick
            test_search_beats_nothing_silently;
          Alcotest.test_case "digest jobs-invariant" `Quick
            test_campaign_digest_jobs_invariant;
          Alcotest.test_case "baseline independent" `Quick
            test_baseline_stream_independent;
        ] );
      ( "witness",
        [
          Alcotest.test_case "save-then-replay bit-for-bit" `Quick
            test_witnesses_replay_bit_for_bit;
          Alcotest.test_case "fuzz ingestion" `Quick
            test_fuzz_ingests_tournament_witnesses;
          Alcotest.test_case "io round-trip" `Quick
            test_tournament_witness_io_roundtrip;
        ] );
    ]
