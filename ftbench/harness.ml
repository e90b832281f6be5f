(* Run structure shared by the workloads: time-bounded repetitions,
   correctness bookkeeping and result digests. *)

type config = {
  seed : int;
  seconds : float;  (** measuring time of one run *)
  trace : bool;  (** per-layer run: spans on, per-layer metrics out *)
  quick : bool;  (** toy sizes, for the test suite *)
}

(* Repeat [rep] (given the repetition index) while another repetition of
   the mean length so far still fits in [seconds]; at least [min_reps]. *)
let repeat ~seconds ~min_reps rep =
  let t0 = Trace.now () in
  let rec go i acc =
    let elapsed = Trace.now () -. t0 in
    let mean = if i = 0 then 0. else elapsed /. float_of_int i in
    if i >= min_reps && elapsed +. mean > seconds then List.rev acc
    else go (i + 1) (rep i :: acc)
  in
  go 0 []

(* [f ()] and its wall-clock seconds. *)
let wall f =
  let t0 = Trace.now () in
  let x = f () in
  (x, Trace.now () -. t0)

(* [f ()] and the calling thread's CPU seconds in it. *)
let cpu f =
  let t0 = Trace.cpu_now () in
  let x = f () in
  (x, Trace.cpu_now () -. t0)

(* The median over repetitions of one per-repetition value: a run reports
   what its repetitions typically took, garbage-collection slices
   included. *)
let median_over f reps = Ftsched_util.Stats.median (Array.of_list (List.map f reps))

(* Mean over an array of per-operation values. *)
let mean_of f xs = Ftsched_util.Stats.mean (Array.map f xs)

(* Failed checks of one run. *)
type checks = { mutable failed : int; mutable problems : string list }

let checks () = { failed = 0; problems = [] }

(* Record a failed operation; the first few reasons are kept for the log. *)
let fail c fmt =
  Printf.ksprintf
    (fun msg ->
      c.failed <- c.failed + 1;
      if List.length c.problems < 8 then c.problems <- msg :: c.problems)
    fmt

(* A check that is not tied to one operation (digests, accounting). *)
let problem c fmt =
  Printf.ksprintf
    (fun msg -> if List.length c.problems < 8 then c.problems <- msg :: c.problems)
    fmt

(* The reasons one operation failed, counted as one failed operation by
   [count].  Operations running on pool workers collect them locally. *)
let errors () = ref []
let err errs fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt

let count c errs =
  match List.rev !errs with [] -> () | e :: _ -> fail c "%s" e

(* Validate.check, plus M* <= M (equations 2 and 4). *)
let check_plan ?req errs ~what s =
  let module Schedule = Ftsched_schedule.Schedule in
  let module Validate = Ftsched_schedule.Validate in
  (match
     Trace.span ?req ~layer:"schedule" ~name:"validate" (fun () ->
         Validate.check s)
   with
  | Ok () -> ()
  | Error es ->
      err errs "%s plan invalid: %s" what
        (String.concat "; " (List.map (Format.asprintf "%a" Validate.pp_error) es)));
  if Schedule.latency_lower_bound s > Schedule.latency_upper_bound s then
    err errs "%s plan has M* > M" what

let md5 parts = Digest.to_hex (Digest.string (String.concat "|" parts))

(* GC work per operation over a measured section, as per-layer extras. *)
type gc_mark = { minor : float; promoted : float; majors : int }

let gc_mark () =
  let s = Gc.quick_stat () in
  { minor = s.Gc.minor_words; promoted = s.Gc.promoted_words; majors = s.Gc.major_collections }

let gc_extras ~ops a b =
  let per x = x /. float_of_int (max 1 ops) in
  [
    ("gc.minor_mw", per ((b.minor -. a.minor) /. 1e6));
    ("gc.promoted_mw", per ((b.promoted -. a.promoted) /. 1e6));
    ("gc.major_collections", per (float_of_int (b.majors - a.majors)));
  ]
