(* The [Printf]-and-[split] codec: the [Serialize] implementation that
   formatted every field with [Printf.sprintf] (floats with ["%h"]) into
   a [Buffer], and parsed by splitting the whole document into a line
   array and every line into a word list.  Kept as a differential
   baseline: the direct byte writer and single-cursor parser in
   {!Ftsched_schedule.Serialize} must emit the same bytes and give the
   same outcome — the same document, or the same exception and message —
   on every input; [test_schedule] and the scale oracle compare the two.
   The only changes since it was frozen: parse errors name the line that
   was read rather than the one after it, and a second [pairs] line for
   one edge fails at its line.  Keep this file frozen;
   behavioural changes belong in {!Ftsched_schedule.Serialize}. *)

module Dag = Ftsched_dag.Dag
module Platform = Ftsched_platform.Platform
module Instance = Ftsched_model.Instance
module Schedule = Ftsched_schedule.Schedule
module Comm_plan = Ftsched_schedule.Comm_plan

(* Floats are emitted as hex literals ("%h") so parsing restores the
   exact bit pattern. *)
let fl x = Printf.sprintf "%h" x

(* The textual format stores labels as the tail of a space-separated
   line, so only labels that survive trimming and whitespace
   normalization can round-trip.  Anything else is rejected up front —
   at the serialization site — instead of silently coming back
   different. *)
let label_round_trips label =
  let rejoined =
    String.split_on_char ' ' label
    |> List.filter (fun w -> w <> "")
    |> String.concat " "
  in
  (not (String.exists (fun c -> c = '\n' || c = '\r' || c = '\t') label))
  && rejoined = label

let buf_add_instance buf inst =
  let g = Instance.dag inst in
  let pl = Instance.platform inst in
  let v = Dag.n_tasks g and m = Platform.n_procs pl in
  Buffer.add_string buf (Printf.sprintf "instance %d %d %d\n" v m (Dag.n_edges g));
  for t = 0 to v - 1 do
    let label = Dag.label g t in
    if not (label_round_trips label) then
      invalid_arg
        (Printf.sprintf
           "Serialize: task %d label %S does not round-trip (newlines, \
            leading/trailing or repeated whitespace are not representable)"
           t label);
    Buffer.add_string buf (Printf.sprintf "label %s\n" label)
  done;
  Dag.iter_edges g (fun _e ~src ~dst ~volume ->
      Buffer.add_string buf (Printf.sprintf "edge %d %d %s\n" src dst (fl volume)));
  for k = 0 to m - 1 do
    let row =
      String.concat " "
        (List.init m (fun h -> fl (Platform.delay pl k h)))
    in
    Buffer.add_string buf (Printf.sprintf "delay %s\n" row)
  done;
  for t = 0 to v - 1 do
    let row =
      String.concat " " (List.init m (fun p -> fl (Instance.exec inst t p)))
    in
    Buffer.add_string buf (Printf.sprintf "exec %s\n" row)
  done

let instance_to_string inst =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "ftsched v1\n";
  buf_add_instance buf inst;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)

type cursor = { lines : string array; mutable pos : int }

let fail cur fmt =
  Printf.ksprintf (fun s -> failwith (Printf.sprintf "line %d: %s" cur.pos s)) fmt

(* Caps on declared sizes.  The parser allocates arrays sized by the
   counts a document {e declares}, so adversarial bytes ("instance
   999999999 9 9") could force huge allocations before any per-line
   validation fires.  Every declared count is checked against these caps
   — and against the amount of input actually present — before anything
   is allocated; violations raise a descriptive [Invalid_argument]. *)
let max_tasks = 200_000
let max_procs = 4_096
let max_edges = 2_000_000
let max_label_length = 4_096

let reject cur fmt =
  Printf.ksprintf
    (fun s -> invalid_arg (Printf.sprintf "Serialize: line %d: %s" cur.pos s))
    fmt

let remaining_lines cur = Array.length cur.lines - cur.pos

let check_count cur ~what ~cap n =
  if n < 0 then reject cur "negative %s count %d" what n;
  if n > cap then reject cur "%s count %d exceeds the cap %d" what n cap

let next cur =
  let rec skip () =
    if cur.pos >= Array.length cur.lines then fail cur "unexpected end of input"
    else begin
      let l = String.trim cur.lines.(cur.pos) in
      cur.pos <- cur.pos + 1;
      if l = "" then skip () else l
    end
  in
  skip ()

let words l = String.split_on_char ' ' l |> List.filter (fun w -> w <> "")

let float_of_word cur w =
  try float_of_string w with _ -> fail cur "bad float %S" w

let int_of_word cur w =
  try int_of_string w with _ -> fail cur "bad integer %S" w

let expect_tag cur tag line =
  match words line with
  | t :: rest when t = tag -> rest
  | _ -> fail cur "expected %S" tag

let parse_instance cur =
  let header = next cur in
  match words header with
  | [ "instance"; v; m; e ] ->
      let v = int_of_word cur v
      and m = int_of_word cur m
      and e = int_of_word cur e in
      check_count cur ~what:"task" ~cap:max_tasks v;
      check_count cur ~what:"processor" ~cap:max_procs m;
      check_count cur ~what:"edge" ~cap:max_edges e;
      if m = 0 then reject cur "processor count must be positive";
      (* An instance document needs v labels, e edges, m delay rows and
         v exec rows; declaring more than the input can possibly hold is
         rejected here, before any count-sized allocation. *)
      let needed = v + e + m + v in
      if needed > remaining_lines cur then
        reject cur
          "declared counts (v=%d m=%d e=%d) need %d lines but only %d remain"
          v m e needed (remaining_lines cur);
      let b = Dag.Builder.create () in
      for _ = 1 to v do
        let line = next cur in
        match words line with
        | "label" :: rest ->
            let label = String.concat " " rest in
            if String.length label > max_label_length then
              reject cur "label length %d exceeds the cap %d"
                (String.length label) max_label_length;
            ignore (Dag.Builder.add_task ~label b)
        | _ -> fail cur "expected label line"
      done;
      for _ = 1 to e do
        match words (next cur) with
        | [ "edge"; src; dst; vol ] ->
            Dag.Builder.add_edge b ~src:(int_of_word cur src)
              ~dst:(int_of_word cur dst) ~volume:(float_of_word cur vol)
        | _ -> fail cur "expected edge line"
      done;
      let dag = Dag.Builder.build b in
      (* Explicit in-order loops: [Array.init] with a side-effecting
         closure would tie the cursor position to the stdlib's
         (unspecified) evaluation order. *)
      let parse_row tag =
        let row = expect_tag cur tag (next cur) in
        if List.length row <> m then fail cur "%s row arity" tag;
        Array.of_list (List.map (float_of_word cur) row)
      in
      let delay = Array.make m [||] in
      for k = 0 to m - 1 do
        delay.(k) <- parse_row "delay"
      done;
      let platform = Platform.create ~delay in
      let exec = Array.make v [||] in
      for t = 0 to v - 1 do
        exec.(t) <- parse_row "exec"
      done;
      Instance.create ~dag ~platform ~exec
  | _ -> fail cur "expected instance header"

let check_magic cur =
  match words (next cur) with
  | [ "ftsched"; "v1" ] -> ()
  | _ -> fail cur "bad magic (expected \"ftsched v1\")"

let cursor_of_string s =
  { lines = Array.of_list (String.split_on_char '\n' s); pos = 0 }

let instance_of_string s =
  let cur = cursor_of_string s in
  check_magic cur;
  parse_instance cur

(* ------------------------------------------------------------------ *)
(* Schedules                                                           *)

let schedule_to_string sched =
  let buf = Buffer.create 8192 in
  Buffer.add_string buf "ftsched v1\n";
  let inst = Schedule.instance sched in
  buf_add_instance buf inst;
  let eps = Schedule.eps sched in
  Buffer.add_string buf (Printf.sprintf "schedule %d\n" eps);
  for task = 0 to Instance.n_tasks inst - 1 do
    Array.iter
      (fun (r : Schedule.replica) ->
        Buffer.add_string buf
          (Printf.sprintf "replica %d %d %d %s %s %s %s\n" r.task r.index
             r.proc (fl r.start) (fl r.finish) (fl r.pess_start)
             (fl r.pess_finish)))
      (Schedule.replicas sched task)
  done;
  (let plan = Schedule.comm sched in
   match
     if Comm_plan.is_all_to_all plan then None
     else
       Some
         (Array.init (Dag.n_edges (Instance.dag inst)) (fun e ->
              Comm_plan.to_list plan ~eps:(Schedule.eps sched) e))
   with
  | None -> Buffer.add_string buf "comm all\n"
  | Some sel ->
      Buffer.add_string buf "comm selected\n";
      Array.iteri
        (fun e pairs ->
          let body =
            String.concat " "
              (List.map
                 (fun { Comm_plan.src_replica; dst_replica } ->
                   Printf.sprintf "%d:%d" src_replica dst_replica)
                 pairs)
          in
          Buffer.add_string buf (Printf.sprintf "pairs %d %s\n" e body))
        sel);
  Buffer.contents buf

let schedule_of_string s =
  let cur = cursor_of_string s in
  check_magic cur;
  let inst = parse_instance cur in
  let v = Instance.n_tasks inst in
  let m = Instance.n_procs inst in
  let eps =
    match words (next cur) with
    | [ "schedule"; e ] ->
        let eps = int_of_word cur e in
        if eps < 0 || eps >= m then
          fail cur "eps %d out of range (m=%d)" eps m;
        eps
    | _ -> fail cur "expected schedule header"
  in
  let replicas = Array.make v [||] in
  for task = 0 to v - 1 do
    replicas.(task) <- Array.make (eps + 1) None
  done;
  for _ = 1 to v * (eps + 1) do
    match words (next cur) with
    | [ "replica"; task; index; proc; st; fi; ps; pf ] ->
        let task = int_of_word cur task and index = int_of_word cur index in
        if task < 0 || task >= v || index < 0 || index > eps then
          fail cur "replica out of range";
        let proc = int_of_word cur proc in
        (* Validated here so that a corrupt file fails at its own line
           instead of crashing far away inside [Schedule.create] or an
           array access in a consumer. *)
        if proc < 0 || proc >= m then
          fail cur "replica processor %d out of range (m=%d)" proc m;
        replicas.(task).(index) <-
          Some
            {
              Schedule.task;
              index;
              proc;
              start = float_of_word cur st;
              finish = float_of_word cur fi;
              pess_start = float_of_word cur ps;
              pess_finish = float_of_word cur pf;
            }
    | _ -> fail cur "expected replica line"
  done;
  let replicas =
    Array.map
      (Array.map (function
        | Some r -> r
        | None -> failwith "missing replica in schedule file"))
      replicas
  in
  let comm =
    match words (next cur) with
    | [ "comm"; "all" ] -> Comm_plan.all_to_all
    | [ "comm"; "selected" ] ->
        let e = Dag.n_edges (Instance.dag inst) in
        let sel = Array.make e [] and seen = Array.make e false in
        for _ = 1 to e do
          match words (next cur) with
          | "pairs" :: idx :: body ->
              let idx = int_of_word cur idx in
              if idx < 0 || idx >= e then fail cur "pairs edge out of range";
              if seen.(idx) then fail cur "pairs edge %d repeated" idx;
              seen.(idx) <- true;
              sel.(idx) <-
                List.map
                  (fun w ->
                    match String.split_on_char ':' w with
                    | [ a; b ] ->
                        let src_replica = int_of_word cur a
                        and dst_replica = int_of_word cur b in
                        if
                          src_replica < 0 || src_replica > eps
                          || dst_replica < 0 || dst_replica > eps
                        then
                          fail cur "pair %S replica out of range (eps=%d)" w
                            eps;
                        { Comm_plan.src_replica; dst_replica }
                    | _ -> fail cur "bad pair %S" w)
                  body
          | _ -> fail cur "expected pairs line"
        done;
        Comm_plan.of_lists sel
    | _ -> fail cur "expected comm line"
  in
  Schedule.create ~instance:inst ~eps ~replicas ~comm
