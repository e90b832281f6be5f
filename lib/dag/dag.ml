type task = int
type edge = int

(* The adjacency is stored once, as compressed-sparse rows built at
   [Builder.build] time: row [t] of the incoming adjacency is
   [pred_csr.(pred_off.(t) .. pred_off.(t+1)-1)], and [pred_task]/
   [pred_vol] are aligned with [pred_csr] (the source task and volume of
   each incoming edge, pre-flattened).  Same layout outgoing.  Every row
   lists its edges by increasing edge id, which is insertion order. *)
type t = {
  labels : string array;
  edge_src : int array;
  edge_dst : int array;
  edge_vol : float array;
  topo : task array;
  pred_off : int array;  (* n+1 offsets *)
  pred_csr : int array;  (* edge ids *)
  pred_task : int array;  (* edge_src.(pred_csr.(k)), pre-looked-up *)
  pred_vol : float array;  (* edge_vol.(pred_csr.(k)) *)
  succ_off : int array;
  succ_csr : int array;
  succ_task : int array;  (* edge_dst.(succ_csr.(k)) *)
  entry_tasks : task array;  (* tasks without predecessors, increasing *)
  exit_tasks : task array;  (* tasks without successors, increasing *)
}

let n_tasks t = Array.length t.labels
let n_edges t = Array.length t.edge_src

let label t i = t.labels.(i)

let edge_endpoints t e = (t.edge_src.(e), t.edge_dst.(e))
let edge_volume t e = t.edge_vol.(e)

let out_degree t i = t.succ_off.(i + 1) - t.succ_off.(i)
let in_degree t i = t.pred_off.(i + 1) - t.pred_off.(i)

let iter_preds t i f =
  for k = t.pred_off.(i) to t.pred_off.(i + 1) - 1 do
    f t.pred_csr.(k) t.pred_task.(k) t.pred_vol.(k)
  done

let iter_succs t i f =
  for k = t.succ_off.(i) to t.succ_off.(i + 1) - 1 do
    let e = t.succ_csr.(k) in
    f e t.succ_task.(k) t.edge_vol.(e)
  done

let entries t = t.entry_tasks
let exits t = t.exit_tasks

module Csr = struct
  let pred_offsets t = t.pred_off
  let pred_edges t = t.pred_csr
  let pred_tasks t = t.pred_task
  let pred_volumes t = t.pred_vol
  let succ_offsets t = t.succ_off
  let succ_edges t = t.succ_csr
  let succ_tasks t = t.succ_task
end

let iter_edges t f =
  for e = 0 to n_edges t - 1 do
    f e ~src:t.edge_src.(e) ~dst:t.edge_dst.(e) ~volume:t.edge_vol.(e)
  done

let fold_edges t ~init ~f =
  let acc = ref init in
  iter_edges t (fun e ~src ~dst ~volume -> acc := f !acc e ~src ~dst ~volume);
  !acc

let total_volume t = Array.fold_left ( +. ) 0. t.edge_vol

let topological_order t = t.topo

let pp ppf t =
  Format.fprintf ppf "dag{v=%d; e=%d; entries=%d; exits=%d}" (n_tasks t)
    (n_edges t)
    (Array.length t.entry_tasks)
    (Array.length t.exit_tasks)

(* One row family: [key.(e)] owns edge [e], [other.(e)] is its far end.
   A counting pass in edge-id order keeps every row in insertion order. *)
let rows ~n key other =
  let off = Array.make (n + 1) 0 in
  Array.iter (fun i -> off.(i + 1) <- off.(i + 1) + 1) key;
  for i = 0 to n - 1 do
    off.(i + 1) <- off.(i + 1) + off.(i)
  done;
  let cursor = Array.sub off 0 n in
  let edges = Array.make (Array.length key) 0 in
  let tasks = Array.make (Array.length key) 0 in
  Array.iteri
    (fun e i ->
      let k = cursor.(i) in
      cursor.(i) <- k + 1;
      edges.(k) <- e;
      tasks.(k) <- other.(e))
    key;
  (off, edges, tasks)

(* The first edge, by edge id, that repeats an earlier edge's
   (src, dst).  The succ rows group edges by source, so a repeat is a
   destination seen twice in one row ([stamp.(dst) = src] marks the
   destinations row [src] has reached). *)
let first_duplicate ~n ~succ_off ~succ_csr ~succ_task =
  let stamp = Array.make n (-1) and first = ref max_int in
  for src = 0 to n - 1 do
    for k = succ_off.(src) to succ_off.(src + 1) - 1 do
      let dst = succ_task.(k) in
      if stamp.(dst) <> src then stamp.(dst) <- src
      else if succ_csr.(k) < !first then first := succ_csr.(k)
    done
  done;
  if !first = max_int then None else Some !first

(* Kahn's algorithm with a FIFO queue (the order array itself, filled
   behind the read cursor): deterministic order, and detects cycles
   (fewer than n tasks emitted). *)
let kahn_topo ~n ~pred_off ~succ_off ~succ_task =
  let indeg = Array.init n (fun i -> pred_off.(i + 1) - pred_off.(i)) in
  let order = Array.make n (-1) in
  let filled = ref 0 in
  for i = 0 to n - 1 do
    if indeg.(i) = 0 then begin
      order.(!filled) <- i;
      incr filled
    end
  done;
  let head = ref 0 in
  while !head < !filled do
    let u = order.(!head) in
    incr head;
    for k = succ_off.(u) to succ_off.(u + 1) - 1 do
      let v = succ_task.(k) in
      indeg.(v) <- indeg.(v) - 1;
      if indeg.(v) = 0 then begin
        order.(!filled) <- v;
        incr filled
      end
    done
  done;
  if !filled < n then None else Some order

let degree_zero ~n off =
  let acc = ref [] in
  for i = n - 1 downto 0 do
    if off.(i + 1) = off.(i) then acc := i :: !acc
  done;
  Array.of_list !acc

module Builder = struct
  type built = t

  type t = {
    mutable labels_rev : string list;
    mutable count : int;
    (* growable edge arrays, valid up to [edge_count] *)
    mutable edge_src : int array;
    mutable edge_dst : int array;
    mutable edge_vol : float array;
    mutable edge_count : int;
  }

  let create () =
    {
      labels_rev = [];
      count = 0;
      edge_src = [||];
      edge_dst = [||];
      edge_vol = [||];
      edge_count = 0;
    }

  let add_task ?label b =
    let id = b.count in
    let label = match label with Some l -> l | None -> Printf.sprintf "t%d" id in
    b.labels_rev <- label :: b.labels_rev;
    b.count <- id + 1;
    id

  let grow b =
    let cap = max 16 (2 * b.edge_count) in
    let extend a fill =
      let a' = Array.make cap fill in
      Array.blit a 0 a' 0 b.edge_count;
      a'
    in
    b.edge_src <- extend b.edge_src 0;
    b.edge_dst <- extend b.edge_dst 0;
    b.edge_vol <- extend b.edge_vol 0.

  let add_edge b ~src ~dst ~volume =
    if src < 0 || src >= b.count then invalid_arg "Dag.Builder.add_edge: src";
    if dst < 0 || dst >= b.count then invalid_arg "Dag.Builder.add_edge: dst";
    if src = dst then invalid_arg "Dag.Builder.add_edge: self loop";
    if volume < 0. || not (Float.is_finite volume) then
      invalid_arg "Dag.Builder.add_edge: volume";
    if b.edge_count = Array.length b.edge_src then grow b;
    let e = b.edge_count in
    b.edge_src.(e) <- src;
    b.edge_dst.(e) <- dst;
    b.edge_vol.(e) <- volume;
    b.edge_count <- e + 1

  let build b : built =
    let n = b.count and m = b.edge_count in
    let edge_src = Array.sub b.edge_src 0 m in
    let edge_dst = Array.sub b.edge_dst 0 m in
    let edge_vol = Array.sub b.edge_vol 0 m in
    let pred_off, pred_csr, pred_task = rows ~n edge_dst edge_src in
    let succ_off, succ_csr, succ_task = rows ~n edge_src edge_dst in
    (match first_duplicate ~n ~succ_off ~succ_csr ~succ_task with
    | Some e ->
        invalid_arg
          (Printf.sprintf "Dag.Builder.build: duplicate edge %d (%d -> %d)" e
             edge_src.(e) edge_dst.(e))
    | None -> ());
    match kahn_topo ~n ~pred_off ~succ_off ~succ_task with
    | None -> invalid_arg "Dag.Builder.build: graph has a cycle"
    | Some topo ->
        {
          labels = Array.of_list (List.rev b.labels_rev);
          edge_src; edge_dst; edge_vol; topo;
          pred_off; pred_csr; pred_task;
          pred_vol = Array.map (fun e -> edge_vol.(e)) pred_csr;
          succ_off; succ_csr; succ_task;
          entry_tasks = degree_zero ~n pred_off;
          exit_tasks = degree_zero ~n succ_off;
        }
end
