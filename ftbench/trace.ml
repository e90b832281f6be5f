(* The benchmark's clocks and its spans.

   Spans are recorded by the benchmark's own code around its calls into
   each library layer; the library itself carries no instrumentation.
   They are kept in memory and written out as JSONL when the run ends.
   With tracing off, [span] is a plain call, so untraced runs pay one
   branch per call. *)

(* Wall-clock time (CLOCK_MONOTONIC): run length, latencies, anything
   that waits on another process or spans several domains. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* The calling thread's CPU time (CLOCK_THREAD_CPUTIME_ID): what computing
   took, user and system, collections included.  It leaves out the time
   the thread waited for a CPU, and, with the kernel's paravirtual steal
   accounting, the time the host ran another tenant on the virtual CPU:
   on a shared host those waits come and go from run to run, while the
   work does not. *)
external thread_cpu_ns : unit -> int = "ftbench_thread_cpu_ns" [@@noalloc]

let cpu_ns () =
  let ns = thread_cpu_ns () in
  if ns < 0 then failwith "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed";
  ns

let cpu_now () = float_of_int (cpu_ns ()) *. 1e-9

(* Spans time on the recording thread's CPU clock, like the end-to-end
   times they break down. *)
type span = {
  id : int;
  parent : int;  (** 0 = top level *)
  req : int;  (** instance or request the span belongs to; -1 = none *)
  layer : string;
  name : string;
  start_ns : int64;  (** the thread's CPU clock *)
  end_ns : int64;
  alloc_words : float;  (** minor + major - promoted words during the span *)
}

let enabled = ref false
let recorded : span list ref = ref []
let next_id = ref 1
let current = ref 0

let reset () =
  recorded := [];
  next_id := 1;
  current := 0

let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* A top-level span timed by the caller. *)
let add ~layer ~name ~start_ns ~end_ns =
  let id = !next_id in
  incr next_id;
  recorded :=
    { id; parent = 0; req = -1; layer; name; start_ns; end_ns; alloc_words = 0. }
    :: !recorded

(* Spans nest through [current], so tracing is only ever on while one
   domain runs the workload. *)
let span ?(req = -1) ~layer ~name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = !current in
    current := id;
    let w0 = alloc_words () in
    let t0 = Int64.of_int (cpu_ns ()) in
    Fun.protect f ~finally:(fun () ->
        let t1 = Int64.of_int (cpu_ns ()) in
        let w1 = alloc_words () in
        current := parent;
        recorded :=
          {
            id;
            parent;
            req;
            layer;
            name;
            start_ns = t0;
            end_ns = t1;
            alloc_words = w1 -. w0;
          }
          :: !recorded)
  end

let spans () = List.rev !recorded

(* Self time: a span's duration minus the part of its interval that its
   children cover.  Children are clipped to the parent and overlapping
   children are counted once. *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.add children s.parent s) spans;
  List.map
    (fun s ->
      let ivs =
        Hashtbl.find_all children s.id
        |> List.filter_map (fun c ->
               let a = max c.start_ns s.start_ns and b = min c.end_ns s.end_ns in
               if Int64.compare a b < 0 then Some (a, b) else None)
        |> List.sort compare
      in
      let covered, _ =
        List.fold_left
          (fun (acc, reach) (a, b) ->
            let a = max a reach in
            if Int64.compare a b < 0 then (Int64.add acc (Int64.sub b a), b)
            else (acc, reach))
          (0L, Int64.min_int) ivs
      in
      (s, Int64.sub (Int64.sub s.end_ns s.start_ns) covered))
    spans

type layer_total = {
  calls : int;
  self_ms : float;  (** summed over calls *)
  alloc_words : float;  (** summed over calls, children included *)
}

(* Per [layer.name]: call count, summed self time and allocation. *)
let totals spans =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (s, self_ns) ->
      let key = s.layer ^ "." ^ s.name in
      let prev =
        Option.value (Hashtbl.find_opt tbl key)
          ~default:{ calls = 0; self_ms = 0.; alloc_words = 0. }
      in
      Hashtbl.replace tbl key
        {
          calls = prev.calls + 1;
          self_ms = prev.self_ms +. (Int64.to_float self_ns *. 1e-6);
          alloc_words = prev.alloc_words +. s.alloc_words;
        })
    (self_times spans);
  tbl

let write_jsonl path spans =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"req\":%d,\"layer\":%S,\"name\":%S,\
         \"start_ns\":%Ld,\"end_ns\":%Ld,\"alloc_words\":%.0f}\n"
        s.id s.parent s.req s.layer s.name s.start_ns s.end_ns s.alloc_words)
    spans
