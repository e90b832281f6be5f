(* What one run of one workload measured, and how it is printed. *)

type metric = { name : string; value : float; unit_ : string }

type t = {
  workload : string;
  seed : int;
  reps : int;  (** measured repetitions (batch) or segments (serve) *)
  attempted : int;  (** operations attempted: instances or requests *)
  failed : int;  (** operations whose output failed a check *)
  problems : string list;  (** the failed checks, for the log *)
  digest : string;  (** MD5 of the run's [%h] results; seed-determined *)
  metrics : metric list;
}

let metric name unit_ value = { name; value; unit_ }
let correct r = r.failed = 0 && r.problems = []

(* Peak resident set of this process, in MB: [VmHWM] from /proc. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec go () =
    match input_line ic with
    | exception End_of_file -> failwith "VmHWM missing from /proc/self/status"
    | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
          (fun kb -> float_of_int kb /. 1024.)
    | _ -> go ()
  in
  go ()

let metrics_json r =
  Json.Obj
    (List.map
       (fun m ->
         (m.name, Json.Obj [ ("value", Json.Num m.value); ("unit", Json.Str m.unit_) ]))
       r.metrics)

(* The result line: the last line the benchmark prints. *)
let result_line r =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool (correct r));
         ("attempted", Json.Num (float_of_int r.attempted));
         ("failed", Json.Num (float_of_int r.failed));
         ("metrics", metrics_json r);
       ])

(* The commit, read from .git without running git; "unknown" outside a
   clone. *)
let commit () =
  let read path =
    try
      let ic = open_in path in
      Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
          Some (String.trim (input_line ic)))
    with Sys_error _ | End_of_file -> None
  in
  match read ".git/HEAD" with
  | Some head when String.starts_with ~prefix:"ref: " head -> (
      let ref_ = String.sub head 5 (String.length head - 5) in
      match read (Filename.concat ".git" ref_) with
      | Some c -> c
      | None -> (
          try
            let ic = open_in ".git/packed-refs" in
            Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
            let rec go () =
              match String.split_on_char ' ' (input_line ic) with
              | [ c; r ] when r = ref_ -> c
              | _ -> go ()
            in
            go ()
          with Sys_error _ | End_of_file -> "unknown"))
  | Some c -> c
  | None -> "unknown"

let date () =
  let t = Unix.gmtime (Unix.time ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (t.Unix.tm_year + 1900)
    (t.Unix.tm_mon + 1) t.Unix.tm_mday t.Unix.tm_hour t.Unix.tm_min
    t.Unix.tm_sec

(* A result file: the run's metrics plus the provenance [compare] prints. *)
let file_json ~seconds ~trace r =
  Json.Obj
    [
      ("workload", Json.Str r.workload);
      ("seed", Json.Num (float_of_int r.seed));
      ("seconds", Json.Num (float_of_int seconds));
      ("trace", Json.Bool trace);
      ("reps", Json.Num (float_of_int r.reps));
      ("commit", Json.Str (commit ()));
      ("ocaml", Json.Str Sys.ocaml_version);
      ("nproc", Json.Num (float_of_int (Domain.recommended_domain_count ())));
      ("date", Json.Str (date ()));
      ("digest", Json.Str r.digest);
      ("correct", Json.Bool (correct r));
      ("attempted", Json.Num (float_of_int r.attempted));
      ("failed", Json.Num (float_of_int r.failed));
      ("metrics", metrics_json r);
    ]
