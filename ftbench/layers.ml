(* The per-layer metrics of a traced run.

   Every workload reports every metric below.  A layer the workload never
   calls reads 0 (no calls, no time); the README lists which workload
   exercises which layer.  Times are mean self time per call, from the
   spans the benchmark recorded around its own calls into the library;
   the remaining values are supplied by the workload as [extras]. *)

(* Layers timed by spans: [<layer>.ms] is the mean self time per call. *)
let timed =
  [
    "dag.generate"; "model.instance"; "model.levels"; "kernel.ftsa";
    "kernel.mc_ftsa"; "schedule.validate"; "schedule.serialize";
    "schedule.parse"; "sim.crash_exec"; "sim.event_sim"; "recovery.run";
    "stream.run_trace";
  ]

(* Values the workloads measure themselves, with their units. *)
let measured =
  [
    ("sim.crash_exec.calls", "count");
    ("sim.event_sim.events", "count");
    ("sim.event_sim.events_per_s", "1/s");
    ("recovery.run.injections", "count");
    ("recovery.run.kills", "count");
    ("stream.admit_ratio", "ratio");
    ("stream.shadow_hit_ratio", "ratio");
    ("serve.p50_ms_lo", "ms");
    ("serve.p90_ms_lo", "ms");
    ("serve.p50_ms_hi", "ms");
    ("serve.p99_ms_hi", "ms");
    ("serve.max_rps", "req/s");
    ("serve.cold.p50_ms", "ms");
    ("serve.cold.p90_ms", "ms");
    ("serve.hot.p50_ms", "ms");
    ("serve.hot.p90_ms", "ms");
    ("serve.simulate.p50_ms", "ms");
    ("serve.simulate.p90_ms", "ms");
    ("serve.stream.p50_ms", "ms");
    ("serve.stream.p90_ms", "ms");
    ("serve.frame.encode_us", "us");
    ("serve.frame.decode_us", "us");
    ("serve.gen_lateness_ms.p99", "ms");
    ("serve.cache_hit_ratio", "ratio");
    ("serve.queue_high_water", "count");
    ("serve.compute.cold.ms", "ms");
    ("serve.compute.hot.ms", "ms");
    ("serve.compute.simulate.ms", "ms");
    ("serve.compute.stream.ms", "ms");
    ("serve.wait_ms.p50", "ms");
    ("serve.wait_ms.p99", "ms");
    ("par.speedup_j2", "ratio");
    ("par.efficiency_j2", "ratio");
    ("gc.minor_mw", "MW");
    ("gc.promoted_mw", "MW");
    ("gc.major_collections", "count");
    ("trace.overhead_pct", "%");
  ]

(* Derived from span allocation and the task / byte counts in [extras]
   ([kernel.ftsa.tasks], [kernel.mc_ftsa.tasks], [schedule.serialize.bytes]). *)
let derived =
  [
    ("dag.generate.alloc_mw", "MW");
    ("kernel.ftsa.words_per_task", "words");
    ("kernel.mc_ftsa.words_per_task", "words");
    ("schedule.serialize.mb", "MB");
  ]

let names =
  List.map (fun l -> (l ^ ".ms", "ms")) timed @ derived @ measured

let metrics ~spans ~extras =
  let totals = Trace.totals spans in
  let total key = Hashtbl.find_opt totals key in
  let extra k = Option.value (List.assoc_opt k extras) ~default:0. in
  let per_call key f =
    match total key with
    | Some t when t.Trace.calls > 0 -> f t
    | _ -> 0.
  in
  let ratio a b = if b > 0. then a /. b else 0. in
  let value name =
    match name with
    | "dag.generate.alloc_mw" ->
        per_call "dag.generate" (fun t ->
            t.Trace.alloc_words /. float_of_int t.Trace.calls /. 1e6)
    | "kernel.ftsa.words_per_task" ->
        per_call "kernel.ftsa" (fun t ->
            ratio t.Trace.alloc_words (extra "kernel.ftsa.tasks"))
    | "kernel.mc_ftsa.words_per_task" ->
        per_call "kernel.mc_ftsa" (fun t ->
            ratio t.Trace.alloc_words (extra "kernel.mc_ftsa.tasks"))
    | "schedule.serialize.mb" ->
        per_call "schedule.serialize" (fun t ->
            extra "schedule.serialize.bytes" /. float_of_int t.Trace.calls /. 1e6)
    | _ when String.ends_with ~suffix:".ms" name
             && List.mem (String.sub name 0 (String.length name - 3)) timed ->
        per_call
          (String.sub name 0 (String.length name - 3))
          (fun t -> t.Trace.self_ms /. float_of_int t.Trace.calls)
    | _ -> extra name
  in
  List.map (fun (name, unit_) -> Report.metric name unit_ (value name)) names
