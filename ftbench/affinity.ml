(* Which CPUs the calling thread may run on (Linux sched_getaffinity /
   sched_setaffinity).  A thread or process started later inherits the
   set of the thread that starts it. *)

external get : unit -> int array = "ftbench_get_affinity"
external set : int array -> unit = "ftbench_set_affinity"

(* [f ()] with the calling thread limited to [cpus], then the previous set
   restored. *)
let within cpus f =
  let before = get () in
  set cpus;
  Fun.protect ~finally:(fun () -> set before) f
