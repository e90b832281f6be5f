module Rng = Ftsched_util.Rng

type volume_spec =
  | Constant_volume of float
  | Uniform_volume of float * float

(* Typed validation instead of [assert]: asserts are compiled out under
   -noassert, and a bad volume spec would otherwise silently feed
   negative or NaN volumes into eq-(1) downstream.  Every generator
   entry point calls these before touching the rng. *)
let check_volume_spec ~who = function
  | Constant_volume v ->
      if not (Float.is_finite v) || v < 0. then
        invalid_arg
          (Printf.sprintf "%s: constant volume %g must be finite and >= 0" who
             v)
  | Uniform_volume (lo, hi) ->
      if not (Float.is_finite lo && Float.is_finite hi) then
        invalid_arg
          (Printf.sprintf "%s: volume bounds (%g, %g) must be finite" who lo
             hi);
      if lo < 0. then
        invalid_arg
          (Printf.sprintf "%s: volume lower bound %g must be >= 0" who lo);
      if lo > hi then
        invalid_arg
          (Printf.sprintf "%s: volume bounds (%g, %g) must satisfy lo <= hi"
             who lo hi)

let check_pos ~who ~what n =
  if n <= 0 then
    invalid_arg (Printf.sprintf "%s: %s %d must be positive" who what n)

let draw_volume rng spec =
  check_volume_spec ~who:"Generators.draw_volume" spec;
  match spec with
  | Constant_volume v -> v
  | Uniform_volume (lo, hi) -> Rng.float_in rng lo hi

let default_volume = Uniform_volume (50., 150.)

let layered rng ~n_tasks ?(fatness = 0.5) ?(density = 0.35)
    ?(volume = default_volume) () =
  check_pos ~who:"Generators.layered" ~what:"n_tasks" n_tasks;
  if not (Float.is_finite fatness) || fatness <= 0. then
    invalid_arg "Generators.layered: fatness must be positive and finite";
  if not (Float.is_finite density) || density < 0. || density > 1. then
    invalid_arg "Generators.layered: density must be a probability";
  check_volume_spec ~who:"Generators.layered" volume;
  let b = Dag.Builder.create ~expected_tasks:n_tasks () in
  (* Partition tasks into levels whose sizes fluctuate around
     [fatness * 2 * sqrt n]. *)
  let mean_width =
    Float.max 1. (fatness *. 2. *. sqrt (float_of_int n_tasks))
  in
  let levels = ref [] in
  let remaining = ref n_tasks in
  while !remaining > 0 do
    let w =
      let lo = Float.max 1. (mean_width /. 2.) in
      let hi = mean_width *. 1.5 in
      int_of_float (Float.round (Rng.float_in rng lo hi))
    in
    let w = max 1 (min w !remaining) in
    (* The first level must not swallow the whole graph: a one-level DAG
       has no edges, breaking the documented connectivity guarantee. *)
    let w =
      if !remaining = n_tasks && n_tasks >= 2 then min w (n_tasks - 1) else w
    in
    let tasks = Array.init w (fun _ -> Dag.Builder.add_task b) in
    levels := tasks :: !levels;
    remaining := !remaining - w
  done;
  let levels = Array.of_list (List.rev !levels) in
  let n_levels = Array.length levels in
  let vol () = draw_volume rng volume in
  (* Successor presence and weak components (a union-find with path
     halving) over the edges added so far. *)
  let has_succ = Array.make n_tasks false in
  let comp = Array.init n_tasks Fun.id in
  let rec find i =
    if comp.(i) = i then i
    else begin
      comp.(i) <- comp.(comp.(i));
      find comp.(i)
    end
  in
  let add src dst =
    Dag.Builder.add_edge b ~src ~dst ~volume:(vol ());
    has_succ.(src) <- true;
    comp.(find src) <- find dst
  in
  (* Edges look back up to [window] levels; the probability halves per
     extra level of distance so most edges are between adjacent levels. *)
  let window = 3 in
  for l = 1 to n_levels - 1 do
    Array.iter
      (fun dst ->
        let got_pred = ref false in
        for back = 1 to min window l do
          let p = density /. float_of_int back in
          Array.iter
            (fun src ->
              if Rng.bernoulli rng p then begin
                add src dst;
                got_pred := true
              end)
            levels.(l - back)
        done;
        if not !got_pred then add (Rng.pick rng levels.(l - 1)) dst)
      levels.(l)
  done;
  (* Guarantee each non-final-level task a successor so exits stay few.
     All repair targets are drawn before any repair volume, and the
     repairs are added last-drawn first. *)
  let repairs = ref [] in
  for l = 0 to n_levels - 2 do
    Array.iter
      (fun src ->
        if not has_succ.(src) then
          repairs := (src, Rng.pick rng levels.(l + 1)) :: !repairs)
      levels.(l)
  done;
  List.iter (fun (src, dst) -> add src dst) !repairs;
  (* Adjacent levels can still partition the graph into parallel strands;
     anchor every secondary weak component to the main one.  Each
     component contains a level-0 task (predecessor guarantee) and hence
     a level-1 task (successor guarantee), so a link from a level-0 task
     of the main component into a level-1 task of the stray component
     always exists and is always new.  Scan levels upward: the first task
     of a stray component at level >= 1 becomes its anchor point. *)
  let anchor = levels.(0).(0) in
  let main = find anchor in
  let seen = Array.make n_tasks false in
  let links = ref [] in
  for l = 1 to n_levels - 1 do
    Array.iter
      (fun t ->
        let c = find t in
        if c <> main && not seen.(c) then begin
          seen.(c) <- true;
          links := t :: !links
        end)
      levels.(l)
  done;
  List.iter (add anchor) !links;
  Dag.Builder.build b

let erdos_renyi rng ~n_tasks ~edge_prob ?(volume = default_volume) () =
  check_pos ~who:"Generators.erdos_renyi" ~what:"n_tasks" n_tasks;
  if not (Float.is_finite edge_prob) || edge_prob < 0. || edge_prob > 1. then
    invalid_arg "Generators.erdos_renyi: edge_prob must be a probability";
  check_volume_spec ~who:"Generators.erdos_renyi" volume;
  let b = Dag.Builder.create ~expected_tasks:n_tasks () in
  let ids = Array.init n_tasks (fun _ -> Dag.Builder.add_task b) in
  let order = Array.copy ids in
  Rng.shuffle rng order;
  for i = 0 to n_tasks - 1 do
    for j = i + 1 to n_tasks - 1 do
      if Rng.bernoulli rng edge_prob then
        Dag.Builder.add_edge b ~src:order.(i) ~dst:order.(j)
          ~volume:(draw_volume rng volume)
    done
  done;
  Dag.Builder.build b

let fork_join rng ~stages ~width ?(volume = default_volume) () =
  check_pos ~who:"Generators.fork_join" ~what:"stages" stages;
  check_pos ~who:"Generators.fork_join" ~what:"width" width;
  check_volume_spec ~who:"Generators.fork_join" volume;
  let b = Dag.Builder.create () in
  let vol () = draw_volume rng volume in
  let first_fork = Dag.Builder.add_task ~label:"fork0" b in
  let prev_join = ref first_fork in
  for s = 0 to stages - 1 do
    let fork =
      if s = 0 then first_fork
      else begin
        let f = Dag.Builder.add_task ~label:(Printf.sprintf "fork%d" s) b in
        Dag.Builder.add_edge b ~src:!prev_join ~dst:f ~volume:(vol ());
        f
      end
    in
    let join = Dag.Builder.add_task ~label:(Printf.sprintf "join%d" s) b in
    for w = 0 to width - 1 do
      let mid =
        Dag.Builder.add_task ~label:(Printf.sprintf "s%dw%d" s w) b
      in
      Dag.Builder.add_edge b ~src:fork ~dst:mid ~volume:(vol ());
      Dag.Builder.add_edge b ~src:mid ~dst:join ~volume:(vol ())
    done;
    prev_join := join
  done;
  Dag.Builder.build b

let random_out_tree rng ~n_tasks ~max_children ?(volume = default_volume) () =
  check_pos ~who:"Generators.random_out_tree" ~what:"n_tasks" n_tasks;
  check_pos ~who:"Generators.random_out_tree" ~what:"max_children" max_children;
  check_volume_spec ~who:"Generators.random_out_tree" volume;
  let b = Dag.Builder.create ~expected_tasks:n_tasks () in
  let ids = Array.init n_tasks (fun _ -> Dag.Builder.add_task b) in
  let child_count = Array.make n_tasks 0 in
  for i = 1 to n_tasks - 1 do
    (* Parent chosen among earlier tasks that still have a child slot. *)
    let rec choose () =
      let p = Rng.int rng i in
      if child_count.(p) < max_children then p else choose ()
    in
    let parent =
      if Array.exists (fun c -> c < max_children) (Array.sub child_count 0 i)
      then choose ()
      else i - 1
    in
    child_count.(parent) <- child_count.(parent) + 1;
    Dag.Builder.add_edge b ~src:ids.(parent) ~dst:ids.(i)
      ~volume:(draw_volume rng volume)
  done;
  Dag.Builder.build b

(* Montage-style Pegasus workflow: a wide fan-out of projection tasks,
   pairwise overlap fits between neighbours, a gather (concat), a
   broadcast (background model), a per-input correction level, a second
   gather and a short output chain.  Degrees are bounded except at the
   two gather hubs and the broadcast, like the real Montage DAGs that
   Pegasus publishes; edge count stays ~2x the task count, so the shape
   scales to 10^5 tasks. *)
let pegasus rng ~n_tasks ?(volume = default_volume) () =
  check_pos ~who:"Generators.pegasus" ~what:"n_tasks" n_tasks;
  check_volume_spec ~who:"Generators.pegasus" volume;
  let vol () = draw_volume rng volume in
  if n_tasks < 8 then (
    (* Too small for the montage shape: degenerate to a chain. *)
    let b = Dag.Builder.create ~expected_tasks:n_tasks () in
    let ids = Array.init n_tasks (fun _ -> Dag.Builder.add_task b) in
    for i = 0 to n_tasks - 2 do
      Dag.Builder.add_edge b ~src:ids.(i) ~dst:ids.(i + 1) ~volume:(vol ())
    done;
    Dag.Builder.build b)
  else begin
    (* project(w) + difffit(w-1) + concat + bgmodel + background(w)
       + imgtbl = 3w + 2 tasks; the remaining >= 2 become the output
       chain (mAdd, mShrink, mJPEG, ...). *)
    let w = max 2 ((n_tasks - 4) / 3) in
    let b = Dag.Builder.create ~expected_tasks:n_tasks () in
    let project =
      Array.init w (fun i ->
          Dag.Builder.add_task ~label:(Printf.sprintf "project%d" i) b)
    in
    let difffit =
      Array.init (w - 1) (fun i ->
          Dag.Builder.add_task ~label:(Printf.sprintf "difffit%d" i) b)
    in
    Array.iteri
      (fun i d ->
        Dag.Builder.add_edge b ~src:project.(i) ~dst:d ~volume:(vol ());
        Dag.Builder.add_edge b ~src:project.(i + 1) ~dst:d ~volume:(vol ()))
      difffit;
    let concat = Dag.Builder.add_task ~label:"concatfit" b in
    Array.iter
      (fun d -> Dag.Builder.add_edge b ~src:d ~dst:concat ~volume:(vol ()))
      difffit;
    let bgmodel = Dag.Builder.add_task ~label:"bgmodel" b in
    Dag.Builder.add_edge b ~src:concat ~dst:bgmodel ~volume:(vol ());
    let background =
      Array.init w (fun i ->
          Dag.Builder.add_task ~label:(Printf.sprintf "background%d" i) b)
    in
    Array.iteri
      (fun i bg ->
        Dag.Builder.add_edge b ~src:project.(i) ~dst:bg ~volume:(vol ());
        Dag.Builder.add_edge b ~src:bgmodel ~dst:bg ~volume:(vol ()))
      background;
    let imgtbl = Dag.Builder.add_task ~label:"imgtbl" b in
    Array.iter
      (fun bg -> Dag.Builder.add_edge b ~src:bg ~dst:imgtbl ~volume:(vol ()))
      background;
    let tail = n_tasks - ((3 * w) + 2) in
    let prev = ref imgtbl in
    for i = 0 to tail - 1 do
      let t = Dag.Builder.add_task ~label:(Printf.sprintf "out%d" i) b in
      Dag.Builder.add_edge b ~src:!prev ~dst:t ~volume:(vol ());
      prev := t
    done;
    Dag.Builder.build b
  end

let chain rng ~n_tasks ?(volume = default_volume) () =
  check_pos ~who:"Generators.chain" ~what:"n_tasks" n_tasks;
  check_volume_spec ~who:"Generators.chain" volume;
  let b = Dag.Builder.create ~expected_tasks:n_tasks () in
  let ids = Array.init n_tasks (fun _ -> Dag.Builder.add_task b) in
  for i = 0 to n_tasks - 2 do
    Dag.Builder.add_edge b ~src:ids.(i) ~dst:ids.(i + 1)
      ~volume:(draw_volume rng volume)
  done;
  Dag.Builder.build b
