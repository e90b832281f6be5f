(* Times at the machine's reference speed.

   Measured work is timed on the thread's CPU clock ([Trace.cpu_now]),
   which leaves out the time a shared host did not run the virtual CPU.
   How fast the vCPU runs while it does run still shifts by up to 1.5x,
   within seconds and for minutes at a time, and independently of the
   other vCPU, as the host's other tenants load the core behind it.  To
   cancel those shifts, a fixed reference kernel (allocation, a list sort
   and a balanced-tree build: the kind of work the library's own code
   does) runs on the same CPU as the measured work, between measured
   segments, timed on the same kind of clock, and each segment's time is
   multiplied by [nominal_s] over the kernel's time around it: what the
   segment would have taken at the speed at which the kernel takes
   [nominal_s].

   The kernel tracks the planners and the instance build closely (both
   slow down by the kernel's own factor); the event simulator, which waits
   on memory more, slows down less, so its scaled times keep part of the
   shift.

   Measured work runs on one CPU, [home]: [with_helper] pins the calling
   thread there, and a process it starts inherits the pin.  Work spread
   over every CPU (two domains) is scaled by the kernel's mean speed over
   every CPU.  The kernel runs in a helper process ([main.exe pace-child N])
   while this one waits, so the library's heap never slows the kernel and
   the kernel's garbage never lands in the library's heap.  The helper
   exits when its stdin closes, which [stop] does and which also happens if
   the benchmark dies. *)

(* About the kernel's median time on a 2-vCPU Intel Xeon virtual machine
   when the benchmark was introduced (27 ms at the quicker of its two
   speeds, 41 ms at the slower).  Changing it rescales every time the
   benchmark reports, so it stays frozen. *)
let nominal_s = 0.04

module Fmap = Map.Make (Float)

(* The kernel's size; toy runs (the test suite) use a small one. *)
let full_size = 50_000
let quick_size = 1_000

let kernel size =
  let rng = Random.State.make [| 7 |] in
  let xs = List.init size (fun _ -> Random.State.float rng 1.) in
  let sorted = List.sort Float.compare xs in
  let m = List.fold_left (fun m x -> Fmap.add x x m) Fmap.empty sorted in
  ignore (Sys.opaque_identity (Fmap.cardinal m))

(* The helper's side ([main.exe pace-child SIZE]): for each CPU number
   read, one kernel run on that CPU, its CPU seconds written back. *)
let child_main size =
  (try
     while true do
       let cpu = int_of_string (input_line stdin) in
       Affinity.set [| cpu |];
       let (), s = Harness.cpu (fun () -> kernel size) in
       Printf.printf "%h\n%!" s
     done
   with End_of_file -> ());
  exit 0

type t = {
  pid : int;
  to_child : out_channel;
  from_child : in_channel;
  cpus : int array;  (** every CPU the benchmark may use *)
  home : int;  (** the CPU measured work runs on *)
  nominal : float;  (** [nominal_s], for the kernel's size *)
  mutable last : (float * float) option;
      (** when the last kernel run on [home] ended, and its seconds *)
  mutable samples : float list;  (** every kernel time on [home], for the log *)
}

(* The median of [runs] kernel runs in the helper on [cpu]; seconds. *)
let sample ?(runs = 1) p cpu =
  let run () =
    output_string p.to_child (string_of_int cpu ^ "\n");
    flush p.to_child;
    match input_line p.from_child with
    | line -> float_of_string line
    | exception End_of_file -> failwith "pace: the helper process exited"
  in
  let s = Ftsched_util.Stats.median (Array.init runs (fun _ -> run ())) in
  if cpu = p.home then begin
    p.last <- Some (Trace.now (), s);
    p.samples <- s :: p.samples
  end;
  s

let start ~quick =
  let size = if quick then quick_size else full_size in
  let cpus = Affinity.get () in
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let pid =
    Unix.create_process exe [| exe; "pace-child"; string_of_int size |] in_r out_w Unix.stderr
  in
  Unix.close in_r;
  Unix.close out_w;
  let p =
    {
      pid;
      to_child = Unix.out_channel_of_descr in_w;
      from_child = Unix.in_channel_of_descr out_r;
      cpus;
      (* the last CPU: interrupts favour the first *)
      home = cpus.(Array.length cpus - 1);
      nominal = nominal_s *. float_of_int size /. float_of_int full_size;
      last = None;
      samples = [];
    }
  in
  (* the helper's heap grows to its working size in the first runs *)
  for _ = 1 to if quick then 1 else 5 do
    Array.iter (fun cpu -> ignore (sample p cpu)) cpus
  done;
  p.samples <- [];
  p

let stop p =
  close_out_noerr p.to_child;
  close_in_noerr p.from_child;
  ignore (Unix.waitpid [] p.pid)

(* Run [f] with a helper and the calling thread pinned to [home]; the pin
   is lifted and the helper stopped on every way out. *)
let with_helper ~quick f =
  let p = start ~quick in
  Fun.protect
    ~finally:(fun () ->
      stop p;
      if p.samples <> [] then
        Printf.printf "pace: %d kernel runs on CPU %d, median %.1f ms (reference %.1f ms)\n"
          (List.length p.samples) p.home
          (1e3 *. Ftsched_util.Stats.median (Array.of_list p.samples))
          (1e3 *. p.nominal))
    (fun () -> Affinity.within [| p.home |] (fun () -> f p))

(* Kernel runs on a CPU that has been idle, or busy with other work, read
   high now and then; such a sample is the median of three. *)
let settled = 3

(* The kernel's time on [home] now: the run that has just ended, if there
   is one, else a settled fresh one. *)
let current p =
  match p.last with
  | Some (at, s) when Trace.now () -. at < 0.05 -> s
  | _ -> sample ~runs:settled p p.home

(* The scale factor from kernel times: the reference over their mean
   speed. *)
let factor p times =
  p.nominal *. Ftsched_util.Stats.mean (Array.of_list (List.map (fun s -> 1. /. s) times))

(* [f ()] on [home], its raw seconds as [measure] takes them (CPU seconds
   by default), and the scale factor around it. *)
let timed ?(measure = Harness.cpu) p f =
  let before = current p in
  let x, raw = measure f in
  let after = sample p p.home in
  (x, raw, factor p [ before; after ])

(* [f ()] and its seconds at the reference speed. *)
let seconds ?measure p f =
  let x, raw, k = timed ?measure p f in
  (x, raw *. k)

(* [run] over [items] in [parts] slices, each timed by [timed] ([timed]
   or [timed_all] below), so the factor follows the machine through work
   that lasts seconds: each slice's results with its factor, and the
   whole at the reference speed. *)
let sliced ~parts timed items run =
  let n = Array.length items in
  let slices =
    List.init parts (fun j ->
        let lo = j * n / parts and hi = (j + 1) * n / parts in
        let xs, raw, k = timed (fun () -> run (Array.sub items lo (hi - lo))) in
        ((xs, k), raw *. k))
  in
  (List.map fst slices, List.fold_left (fun a (_, s) -> a +. s) 0. slices)

(* [f ()] with the calling thread, and any domain it starts, free to run
   on every CPU. *)
let everywhere p f = Affinity.within p.cpus f

(* [timed] for work shared out over every CPU as they free up, with the
   factor from kernel runs on each: their mean speed.  Its raw time is
   wall-clock, the time the domains took together. *)
let timed_all p f =
  let kernels runs = Array.to_list (Array.map (sample ~runs p) p.cpus) in
  let fresh = match p.last with Some (at, _) -> Trace.now () -. at < 0.05 | None -> false in
  let before = kernels (if fresh then 1 else settled) in
  let x, raw = everywhere p (fun () -> Harness.wall f) in
  let after = kernels 1 in
  (x, raw, factor p (before @ after))

(* [f ()] with the calling thread off [home] when there is another CPU:
   a client driving a daemon that runs on [home]. *)
let elsewhere p f =
  match List.filter (( <> ) p.home) (Array.to_list p.cpus) with
  | [] -> f ()
  | others -> Affinity.within (Array.of_list others) f
