(* Tests for Ftsched_fuzz: the differential harness itself.

   The central test seeds a known bug — a scheduler that stacks two
   replicas of every task on the same processor, which
   [Schedule.create] accepts but Prop. 4.1 forbids — and proves the
   pipeline end to end: the structural oracle fires, the shrinker
   converges to the 1-task / 2-processor / 0-edge minimal witness, the
   witness file under [_fuzz/] is replayable, and the replay reproduces
   the same violation.  Every witness kind shares one file envelope,
   round-tripped below. *)

module Fuzz = Ftsched_fuzz.Fuzz
module Schedule = Ftsched_schedule.Schedule
module Serialize = Ftsched_schedule.Serialize
module Instance = Ftsched_model.Instance
module Dag = Ftsched_dag.Dag
open Helpers

let check_size = Alcotest.(check (pair (pair int int) (pair int int)))

(* FTSA with every task's replica 1 forced onto replica 0's processor.
   Only misbehaves when eps >= 1, so eps cannot shrink below 1. *)
let dup_proc_bug =
  {
    Ftsched_core.Schedulers.name = "ftsa-dup-proc";
    run =
      (fun ?trace:_ ~seed inst ~eps ->
        let s = Ftsched_core.Ftsa.schedule ~seed inst ~eps in
        if eps = 0 then s
        else begin
          let v = Instance.n_tasks inst in
          let replicas =
            Array.init v (fun t -> Array.copy (Schedule.replicas s t))
          in
          Array.iter
            (fun row ->
              row.(1) <-
                { row.(1) with Schedule.proc = row.(0).Schedule.proc })
            replicas;
          Schedule.create ~instance:inst ~eps ~replicas ~comm:(Schedule.comm s)
        end);
  }

(* the first generated case with eps >= 1 (so the bug can express) *)
let buggy_seed =
  let rec go seed =
    if (Fuzz.gen_case ~seed).Fuzz.eps >= 1 then seed else go (seed + 1)
  in
  go 0

(* ((tasks, edges), (procs, eps)) *)
let case_size (c : Fuzz.case) =
  ( (Instance.n_tasks c.instance, Dag.n_edges (Instance.dag c.instance)),
    (Instance.n_procs c.instance, c.eps) )

let test_registry () =
  List.iter
    (fun n ->
      match Fuzz.oracle_of_name n with
      | Some o -> Alcotest.(check string) "name round-trip" n (Fuzz.oracle_name o)
      | None -> Alcotest.failf "oracle_of_name %S" n)
    [
      "crash"; "structural"; "survivability"; "executor-agreement";
      "round-trip"; "selection";
    ];
  check_bool "unknown oracle" true (Fuzz.oracle_of_name "bogus" = None)

let test_clean_seeds () =
  (* every registered scheduler passes every oracle on the first seeds *)
  for seed = 0 to 4 do
    match Fuzz.run_seed seed with
    | [] -> ()
    | f :: _ ->
        Alcotest.failf "seed %d: %s" seed
          (Format.asprintf "@[<v>%a@]" Fuzz.pp_finding f)
  done

let test_gen_case_deterministic () =
  let a = Fuzz.gen_case ~seed:7 and b = Fuzz.gen_case ~seed:7 in
  check_bool "same shape" true (case_size a = case_size b);
  check_bool "seed changes shape or costs" true
    (Serialize.instance_to_string a.instance
    <> Serialize.instance_to_string (Fuzz.gen_case ~seed:8).Fuzz.instance)

let test_injected_bug_detected () =
  let case = Fuzz.gen_case ~seed:buggy_seed in
  let violations = Fuzz.check dup_proc_bug case in
  check_bool "structural oracle fires" true
    (List.exists (fun v -> v.Fuzz.oracle = Fuzz.Structural) violations)

let test_shrinker_converges () =
  let case = Fuzz.gen_case ~seed:buggy_seed in
  let shrunk, steps, evals = Fuzz.shrink dup_proc_bug case Fuzz.Structural in
  check_bool "made progress" true (steps > 0);
  check_bool "bounded evals" true (evals <= 2000);
  (* 1-minimal witness: one task, zero edges, two processors, eps 1 *)
  check_size "minimal witness" ((1, 0), (2, 1)) (case_size shrunk);
  check_bool "still fails" true
    (List.exists
       (fun v -> v.Fuzz.oracle = Fuzz.Structural)
       (Fuzz.check dup_proc_bug shrunk))

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path body =
  Out_channel.with_open_bin path (fun oc -> output_string oc body)

(* The serialized form of a witness: the writer emits every field (floats
   in hex), so equal bytes after write -> read -> write prove the reader
   inverts the writer. *)
let witness_bytes w =
  let path = Filename.temp_file "ftsched_fuzz" ".case" in
  Fuzz.write_witness ~path w;
  let body = read_file path in
  Sys.remove path;
  body

let test_witness_roundtrip () =
  let case = Fuzz.gen_case ~seed:buggy_seed in
  let witnesses =
    [
      Fuzz.Instance
        { scheduler = "ftsa-dup-proc"; oracle = Fuzz.Structural; case };
      Fuzz.Stream_seed 17;
      Fuzz.Parser_seed 4;
      Fuzz.Tournament
        {
          policy_a = "ftsa";
          policy_b = "mc-ftsa";
          metric = "guaranteed";
          ratio = 0x1.921fb54442d18p+1;
          case;
        };
    ]
  in
  let path = Filename.temp_file "ftsched_fuzz" ".case" in
  List.iter
    (fun w ->
      (* notes are comments: written, then ignored by the reader *)
      Fuzz.write_witness ~path ~notes:[ "a note"; "two\nlines" ] w;
      let body = read_file path in
      check_bool "v2 magic first" true
        (String.starts_with ~prefix:"ftsched-witness v2\nkind " body);
      let w' = Fuzz.read_witness ~path in
      Alcotest.(check string)
        "round trip is the identity" (witness_bytes w) (witness_bytes w'))
    witnesses;
  (match Fuzz.read_witness ~path with
  | Fuzz.Tournament { ratio; case = c; _ } ->
      check_bool "ratio bit-exact" true
        (Float.compare ratio 0x1.921fb54442d18p+1 = 0);
      check_int "eps" case.eps c.Fuzz.eps;
      check_int "sched seed" case.sched_seed c.Fuzz.sched_seed;
      Alcotest.(check string)
        "instance bytes"
        (Serialize.instance_to_string case.instance)
        (Serialize.instance_to_string c.Fuzz.instance)
  | _ -> Alcotest.fail "kind not preserved");
  (* the retired v1 formats and an envelope without a kind are rejected *)
  let rejects what body needle =
    write_file path body;
    match Fuzz.read_witness ~path with
    | _ -> Alcotest.failf "%s accepted" what
    | exception Failure msg ->
        check_bool (what ^ " names the problem") true
          (Helpers.contains msg needle)
  in
  List.iter
    (fun old ->
      rejects (old ^ " v1 magic")
        (Printf.sprintf "ftsched-%s v1\nseed 3\n" old)
        "magic")
    [ "fuzz"; "stream"; "parser"; "tournament" ];
  rejects "missing kind" "ftsched-witness v2\nseed 3\n" "kind";
  rejects "unknown kind" "ftsched-witness v2\nkind bogus\nseed 3\n" "kind";
  Sys.remove path

let test_campaign_saves_replayable_witness () =
  (* end-to-end: campaign with the buggy scheduler finds, shrinks and
     saves a witness under _fuzz/ that replays to the same violation *)
  let report =
    Fuzz.campaign
      ~schedulers:[ dup_proc_bug ]
      ~jobs:2 ~seeds:(buggy_seed + 1) ()
  in
  check_int "all seeds run" (buggy_seed + 1) report.Fuzz.seeds_run;
  (* duplicated processors defeat several oracles at once; one
     counterexample (and one witness file) per violated oracle *)
  let shrunk, path =
    match
      List.filter_map
        (fun (f, path) ->
          match f.Fuzz.witness with
          | Fuzz.Instance { oracle = Fuzz.Structural; case; _ }
            when f.Fuzz.seed = buggy_seed ->
              Some (case, path)
          | _ -> None)
        report.Fuzz.findings
    with
    | [ (shrunk, Some path) ] -> (shrunk, path)
    | [ (_, None) ] -> Alcotest.fail "witness not saved"
    | l ->
        Alcotest.failf "expected one structural counterexample, got %d"
          (List.length l)
  in
  check_bool "under _fuzz/" true (String.length path >= 6 && String.sub path 0 6 = "_fuzz/");
  check_bool "witness exists" true (Sys.file_exists path);
  check_size "witness is minimal" ((1, 0), (2, 1)) (case_size shrunk);
  check_bool "replay command mentions file" true
    (Helpers.contains (Fuzz.replay_command ~path) path);
  (match Fuzz.replay ~schedulers:[ dup_proc_bug ] path with
  | Ok (name, violations) ->
      Alcotest.(check string) "replayed scheduler" "ftsa-dup-proc" name;
      check_bool "replay reproduces" true
        (List.exists (fun v -> v.Fuzz.oracle = Fuzz.Structural) violations)
  | Error msg -> Alcotest.failf "replay failed: %s" msg);
  (* the fixed scheduler registry does not know the buggy name *)
  (match Fuzz.replay path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "replay should reject an unknown scheduler");
  List.iter (fun (_, p) -> Option.iter Sys.remove p) report.Fuzz.findings

let test_campaign_bit_identical_across_jobs () =
  let run jobs =
    let r =
      Fuzz.campaign ~schedulers:[ dup_proc_bug ] ~jobs ~save:false
        ~seeds:(buggy_seed + 3) ()
    in
    List.map
      (fun ((f : Fuzz.finding), _) ->
        ( Fuzz.witness_filename ~seed:f.seed f.witness,
          witness_bytes f.witness,
          List.map
            (fun v -> (Fuzz.oracle_name v.Fuzz.oracle, v.Fuzz.detail))
            f.violations,
          Option.map
            (fun s -> (case_size s.Fuzz.original, s.Fuzz.steps, s.evaluations))
            f.shrink ))
      r.Fuzz.findings
  in
  check_bool "j1 = j3" true (run 1 = run 3)

let test_replay_errors () =
  (match Fuzz.replay "/nonexistent/witness.case" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing file should error");
  let path = Filename.temp_file "ftsched_fuzz" ".case" in
  let oc = open_out path in
  output_string oc "not a witness\n";
  close_out oc;
  (match Fuzz.replay path with
  | Error msg -> check_bool "mentions magic" true (Helpers.contains msg "magic")
  | Ok _ -> Alcotest.fail "bad magic should error");
  Sys.remove path

(* ---------------- stream oracle & corpus replay ---------------- *)

let test_stream_oracle_clean_and_deterministic () =
  for seed = 0 to 4 do
    (match Fuzz.check_stream ~seed with
    | [] -> ()
    | v :: _ ->
        Alcotest.failf "stream seed %d fired: %s" seed v.Fuzz.detail);
    check_bool "pure function of the seed" true
      (Fuzz.check_stream ~seed = Fuzz.check_stream ~seed)
  done

let test_stream_witness_roundtrip_via_replay () =
  let dir = Filename.temp_file "ftsched_corpus" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  (* a stream witness replays through the stream oracle... *)
  let spath = Filename.concat dir "stream-seed3.case" in
  let oc = open_out spath in
  output_string oc "ftsched-witness v2\nkind stream\nseed 3\n";
  close_out oc;
  (match Fuzz.replay spath with
  | Ok (name, violations) ->
      check_bool "named after the seed" true (Helpers.contains name "3");
      check_bool "clean seed replays clean" true (violations = [])
  | Error msg -> Alcotest.failf "stream replay failed: %s" msg);
  (* ...an instance witness through its scheduler, from the same dir *)
  Fuzz.write_witness
    ~path:(Filename.concat dir "seed1-ftsa-structural.case")
    (Fuzz.Instance
       {
         scheduler = "ftsa";
         oracle = Fuzz.Structural;
         case = Fuzz.gen_case ~seed:1;
       });
  (* non-.case files are ignored *)
  let oc = open_out (Filename.concat dir "README.txt") in
  output_string oc "not a witness\n";
  close_out oc;
  let results = Fuzz.replay_corpus dir in
  check_int "one result per .case file" 2 (List.length results);
  List.iter
    (fun (path, res) ->
      match res with
      | Ok (_, []) -> ()
      | Ok (_, v :: _) -> Alcotest.failf "%s fired: %s" path v.Fuzz.detail
      | Error msg -> Alcotest.failf "%s: %s" path msg)
    results;
  (* paths come back sorted by file name *)
  let paths = List.map fst results in
  check_bool "sorted" true (paths = List.sort compare paths);
  (* a corrupt file surfaces as an Error entry, not an exception *)
  let oc = open_out (Filename.concat dir "zz-bad.case") in
  output_string oc "ftsched-witness v2\nkind stream\nno seed here\n";
  close_out oc;
  (match Fuzz.replay_corpus dir with
  | [ _; _; (_, Error msg) ] ->
      check_bool "mentions the missing header" true
        (Helpers.contains msg "seed")
  | _ -> Alcotest.fail "corrupt witness should yield an Error entry");
  Array.iter
    (fun f -> Sys.remove (Filename.concat dir f))
    (Sys.readdir dir);
  Sys.rmdir dir

let test_campaign_reports_stream_violations_field () =
  (* with no schedulers a campaign runs only the per-seed stream and
     parser oracles: a clean one reports no findings, identically across
     worker counts *)
  let run jobs =
    Fuzz.campaign ~schedulers:[] ~jobs ~save:false ~seeds:6 ()
  in
  let r1 = run 1 and r3 = run 3 in
  check_int "seeds run" 6 r1.Fuzz.seeds_run;
  check_bool "clean" true (r1.Fuzz.findings = []);
  check_bool "j1 = j3" true (r3.Fuzz.findings = [])

let () =
  Alcotest.run "fuzz"
    [
      ( "harness",
        [
          Alcotest.test_case "registry" `Quick test_registry;
          Alcotest.test_case "clean seeds" `Quick test_clean_seeds;
          Alcotest.test_case "gen_case deterministic" `Quick
            test_gen_case_deterministic;
        ] );
      ( "injected-bug",
        [
          Alcotest.test_case "detected" `Quick test_injected_bug_detected;
          Alcotest.test_case "shrinker converges" `Quick test_shrinker_converges;
          Alcotest.test_case "campaign saves replayable witness" `Quick
            test_campaign_saves_replayable_witness;
          Alcotest.test_case "bit-identical across jobs" `Quick
            test_campaign_bit_identical_across_jobs;
        ] );
      ( "witness-io",
        [
          Alcotest.test_case "roundtrip" `Quick test_witness_roundtrip;
          Alcotest.test_case "replay errors" `Quick test_replay_errors;
        ] );
      ( "stream-oracle",
        [
          Alcotest.test_case "clean and deterministic" `Quick
            test_stream_oracle_clean_and_deterministic;
          Alcotest.test_case "corpus replay" `Quick
            test_stream_witness_roundtrip_via_replay;
          Alcotest.test_case "campaign stream field" `Quick
            test_campaign_reports_stream_violations_field;
        ] );
    ]
