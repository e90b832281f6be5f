(* The committed regression corpus under corpus/: witnesses in the
   [ftsched-witness v2] envelope that every build must replay clean.

   The tournament files are the PISA-style adversarial incumbents of
   [ftsched tournament --pairs 6 --iters 200 --seed 7 --dir test/corpus],
   plus one [--metric crash-worst] incumbent (of [--pairs 3 --iters 50
   --seed 7]) that pins the worst strict crash replay over every
   ε-subset.
   Besides passing every oracle of both policies, each must reproduce
   its stored makespan ratio bit for bit, so a change to any schedule on
   these annealed worst cases fails here.  The stream and parser
   witnesses pin one seed of each per-seed oracle. *)

module Fuzz = Ftsched_fuzz.Fuzz
module Tournament = Ftsched_tournament.Tournament
open Helpers

let dir = "corpus"

let test_replays_clean () =
  let results = Fuzz.replay_corpus dir in
  let kinds =
    List.sort_uniq compare
      (List.map
         (fun (path, _) ->
           match Fuzz.read_witness ~path with
           | Fuzz.Instance _ -> "instance"
           | Fuzz.Stream_seed _ -> "stream"
           | Fuzz.Parser_seed _ -> "parser"
           | Fuzz.Tournament _ -> "tournament")
         results)
  in
  Alcotest.(check (list string))
    "corpus holds every seed kind and tournament witnesses"
    [ "parser"; "stream"; "tournament" ]
    (List.filter (( <> ) "instance") kinds);
  List.iter
    (fun (path, res) ->
      match res with
      | Ok (_, []) -> ()
      | Ok (name, v :: _) ->
          Alcotest.failf "%s: %s fired [%s] %s" path name
            (Fuzz.oracle_name v.Fuzz.oracle)
            v.Fuzz.detail
      | Error msg -> Alcotest.failf "%s: %s" path msg)
    results

let test_tournament_ratios_reproduce () =
  let replayed =
    List.filter_map
      (fun (path, _) ->
        match Fuzz.read_witness ~path with
        | Fuzz.Tournament _ -> (
            match Tournament.replay path with
            | Ok _ -> Some path
            | Error msg -> Alcotest.failf "%s: %s" path msg)
        | _ -> None)
      (Fuzz.replay_corpus dir)
  in
  check_int "seven tournament witnesses" 7 (List.length replayed)

let () =
  Alcotest.run "corpus"
    [
      ( "corpus",
        [
          Alcotest.test_case "replays clean" `Quick test_replays_clean;
          Alcotest.test_case "tournament ratios reproduce" `Quick
            test_tournament_ratios_reproduce;
        ] );
    ]
