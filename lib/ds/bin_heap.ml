(* Array-based binary max-heap specialized to the driver's priority
   list: keys are (priority, tie, task) triples stored in three parallel
   unboxed arrays, so pushes and pops allocate nothing once the arrays
   have grown to the working size.  The key order is the total
   lexicographic order on the triple; tasks are unique per heap, so the
   maximum is unique and a pop sequence is deterministic, which keeps
   schedules bit-identical across runs. *)

type t = {
  mutable prio : float array;
  mutable tie : float array;
  mutable task : int array;
  mutable len : int;
}

let create ?(capacity = 64) () =
  let capacity = max 1 capacity in
  {
    prio = Array.make capacity 0.;
    tie = Array.make capacity 0.;
    task = Array.make capacity 0;
    len = 0;
  }

let length h = h.len
let is_empty h = h.len = 0

(* (prio, tie, task) at i strictly greater than at j? *)
let gt h i j =
  let c = Float.compare h.prio.(i) h.prio.(j) in
  if c <> 0 then c > 0
  else
    let c = Float.compare h.tie.(i) h.tie.(j) in
    if c <> 0 then c > 0 else h.task.(i) > h.task.(j)

let swap h i j =
  let p = h.prio.(i) and t = h.tie.(i) and k = h.task.(i) in
  h.prio.(i) <- h.prio.(j);
  h.tie.(i) <- h.tie.(j);
  h.task.(i) <- h.task.(j);
  h.prio.(j) <- p;
  h.tie.(j) <- t;
  h.task.(j) <- k

let grow h =
  let cap = Array.length h.task in
  if h.len = cap then begin
    let ncap = 2 * cap in
    let np = Array.make ncap 0. and nt = Array.make ncap 0. in
    let nk = Array.make ncap 0 in
    Array.blit h.prio 0 np 0 h.len;
    Array.blit h.tie 0 nt 0 h.len;
    Array.blit h.task 0 nk 0 h.len;
    h.prio <- np;
    h.tie <- nt;
    h.task <- nk
  end

let push h ~prio ~tie ~task =
  grow h;
  let i = ref h.len in
  h.prio.(!i) <- prio;
  h.tie.(!i) <- tie;
  h.task.(!i) <- task;
  h.len <- h.len + 1;
  while !i > 0 && gt h !i ((!i - 1) / 2) do
    swap h !i ((!i - 1) / 2);
    i := (!i - 1) / 2
  done

let max_task h =
  if h.len = 0 then invalid_arg "Bin_heap.max_task: empty";
  h.task.(0)

let max_prio h =
  if h.len = 0 then invalid_arg "Bin_heap.max_prio: empty";
  h.prio.(0)

let drop_max h =
  if h.len = 0 then invalid_arg "Bin_heap.drop_max: empty";
  h.len <- h.len - 1;
  if h.len > 0 then begin
    h.prio.(0) <- h.prio.(h.len);
    h.tie.(0) <- h.tie.(h.len);
    h.task.(0) <- h.task.(h.len);
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let best = ref !i in
      if l < h.len && gt h l !best then best := l;
      if r < h.len && gt h r !best then best := r;
      if !best = !i then continue := false
      else begin
        swap h !i !best;
        i := !best
      end
    done
  end

let clear h = h.len <- 0
