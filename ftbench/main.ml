(* ftbench: the benchmark suite.

     dune exec ./ftbench/main.exe -- --workload W [--seed N] [--seconds S]
         [--trace 0|1] [--out FILE] [--trace-out FILE]
     dune exec ./ftbench/main.exe -- compare [--spec BENCHMARK.json] \
         A.json ... [-- B.json ...]

   A run prints a log, then, as its last line, one JSON object with the
   run's end-to-end metrics (or, with --trace 1, its per-layer metrics).
   It exits 1 when an output fails its check. *)

open Ftbench

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("ftbench: " ^ msg);
      exit 2)
    fmt

let int_arg flag v =
  match int_of_string_opt v with
  | Some n -> n
  | None -> die "%s expects an integer, got %S" flag v

let run_workload args =
  let workload = ref None and seed = ref 2008 and seconds = ref 20 in
  let trace = ref false in
  let out = ref None and trace_out = ref None in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest ->
        workload := Some w;
        parse rest
    | "--seed" :: n :: rest ->
        seed := int_arg "--seed" n;
        parse rest
    | "--seconds" :: n :: rest ->
        seconds := int_arg "--seconds" n;
        if !seconds < 1 then die "--seconds must be positive";
        parse rest
    | "--trace" :: ("0" | "1" as t) :: rest ->
        trace := t = "1";
        parse rest
    | "--out" :: path :: rest ->
        out := Some path;
        parse rest
    | "--trace-out" :: path :: rest ->
        trace_out := Some path;
        parse rest
    | arg :: _ -> die "unexpected argument %S" arg
  in
  parse args;
  let name = match !workload with Some w -> w | None -> die "--workload is required" in
  let run =
    match List.assoc_opt name Workloads.all with
    | Some run -> run
    | None ->
        die "unknown workload %S (known: %s)" name
          (String.concat ", " (List.map fst Workloads.all))
  in
  let cfg =
    {
      Harness.seed = !seed;
      seconds = float_of_int !seconds;
      trace = !trace;
      quick = false;
    }
  in
  Trace.reset ();
  Trace.enabled := !trace;
  let r =
    try run cfg
    with e ->
      prerr_endline ("ftbench: " ^ name ^ " failed: " ^ Printexc.to_string e);
      exit 1
  in
  Trace.enabled := false;
  Printf.printf "workload %s seed %d reps %d attempted %d failed %d digest %s\n"
    r.Report.workload r.Report.seed r.Report.reps r.Report.attempted
    r.Report.failed r.Report.digest;
  List.iter (fun p -> Printf.printf "check failed: %s\n" p) r.Report.problems;
  List.iter
    (fun (m : Report.metric) ->
      Printf.printf "  %-32s %14.6g %s\n" m.name m.value m.unit_)
    r.Report.metrics;
  if !trace then begin
    let path =
      match !trace_out with
      | Some p -> p
      | None ->
          if not (Sys.file_exists "_ftbench") then Sys.mkdir "_ftbench" 0o755;
          Printf.sprintf "_ftbench/trace-%s-%d.jsonl" name !seed
    in
    Trace.write_jsonl path (Trace.spans ());
    Printf.printf "spans: %s\n" path
  end;
  Option.iter
    (fun path ->
      let oc = open_out path in
      output_string oc
        (Json.to_string (Report.file_json ~seconds:!seconds ~trace:!trace r));
      output_char oc '\n';
      close_out oc)
    !out;
  print_endline (Report.result_line r);
  exit (if Report.correct r then 0 else 1)

let compare args =
  let rec split specs acc = function
    | "--spec" :: path :: rest -> split path acc rest
    | "--" :: rest -> (specs, List.rev acc, rest)
    | x :: rest -> split specs (x :: acc) rest
    | [] -> (specs, List.rev acc, [])
  in
  let specs, parent, change = split "BENCHMARK.json" [] args in
  if parent = [] then die "compare: no result files";
  exit (if Compare.main ~specs parent change > 0 then 1 else 0)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "compare" :: args -> compare args
  | [ "serve-child"; sock ] -> Serve_open.child_main sock
  | [ "pace-child"; size ] -> Pace.child_main (int_of_string size)
  | args -> run_workload args
