module Rng = Ftsched_util.Rng
module Dag = Ftsched_dag.Dag
module Generators = Ftsched_dag.Generators
module Platform = Ftsched_platform.Platform
module Instance = Ftsched_model.Instance
module Serialize = Ftsched_schedule.Serialize

type genome = { instance : Instance.t; eps : int }

(* Soft caps: well under the Serialize hardening caps (PR 7), so no
   mutation chain can walk an instance up to something the witness
   serializer would reject.  [max_eps] bounds the replication degree the
   search may request — evaluation cost grows with C(m, eps). *)
let max_tasks = min 512 Serialize.max_tasks
let max_edges = min 4_096 Serialize.max_edges
let max_procs = min 16 Serialize.max_procs
let max_eps = 3

(* Mutated numeric labels are clamped into fixed bands instead of being
   validated after the fact: repeated rescaling over a long annealing
   run must not drift costs to infinity (Instance.create would reject)
   or to zero (exec costs must stay positive). *)
let clamp lo hi x = Float.min hi (Float.max lo x)
let clamp_exec x = clamp 1e-6 1e9 x
let clamp_volume x = clamp 0. 1e9 x
let clamp_delay x = clamp 0. 1e6 x

(* Log-uniform factor in [1/4, 4]: multiplicative perturbations explore
   both directions symmetrically. *)
let factor rng = exp (Rng.float_in rng (-.log 4.) (log 4.))

type op =
  | Add_edge
  | Remove_edge
  | Split_task
  | Merge_tasks
  | Rescale_task
  | Rescale_edge
  | Perturb_speed
  | Perturb_link
  | Bump_eps

let all_ops =
  [
    Add_edge; Remove_edge; Split_task; Merge_tasks; Rescale_task;
    Rescale_edge; Perturb_speed; Perturb_link; Bump_eps;
  ]

let op_name = function
  | Add_edge -> "add-edge"
  | Remove_edge -> "remove-edge"
  | Split_task -> "split-task"
  | Merge_tasks -> "merge-tasks"
  | Rescale_task -> "rescale-task"
  | Rescale_edge -> "rescale-edge"
  | Perturb_speed -> "perturb-speed"
  | Perturb_link -> "perturb-link"
  | Bump_eps -> "bump-eps"

(* ------------------------------------------------------------------ *)
(* Decomposed instance: the mutable clay the operators work on.        *)

type parts = {
  labels : string array;
  edges : (int * int * float) list;  (* src, dst, volume; insertion order *)
  delay : float array array;
  exec : float array array;
  eps : int;
}

let decompose { instance; eps } =
  let g = Instance.dag instance in
  let v = Dag.n_tasks g and m = Instance.n_procs instance in
  let pl = Instance.platform instance in
  {
    labels = Array.init v (Dag.label g);
    edges =
      List.rev
        (Dag.fold_edges g ~init:[] ~f:(fun acc _e ~src ~dst ~volume ->
             (src, dst, volume) :: acc));
    delay =
      Array.init m (fun k -> Array.init m (fun h -> Platform.delay pl k h));
    exec =
      Array.init v (fun t -> Array.init m (fun p -> Instance.exec instance t p));
    eps;
  }

(* Rebuild a genome from parts.  Any constructor rejection (cycle,
   duplicate edge, non-positive cost) turns the mutation into a no-op
   instead of escaping: operators are closed over valid genomes by
   construction, and this catch is the backstop for the cases the
   operators' own guards miss. *)
let rebuild parts =
  match
    let b = Dag.Builder.create () in
    Array.iter (fun label -> ignore (Dag.Builder.add_task ~label b)) parts.labels;
    List.iter
      (fun (src, dst, volume) -> Dag.Builder.add_edge b ~src ~dst ~volume)
      parts.edges;
    let dag = Dag.Builder.build b in
    let platform = Platform.create ~delay:parts.delay in
    let instance = Instance.create ~dag ~platform ~exec:parts.exec in
    { instance; eps = parts.eps }
  with
  | g -> Some g
  | exception Invalid_argument _ -> None

(* ------------------------------------------------------------------ *)
(* Graph predicates                                                    *)

let weakly_connected ~v edges =
  if v <= 1 then true
  else begin
    let adj = Array.make v [] in
    List.iter
      (fun (s, d, _) ->
        adj.(s) <- d :: adj.(s);
        adj.(d) <- s :: adj.(d))
      edges;
    let seen = Array.make v false in
    let rec dfs t =
      if not seen.(t) then begin
        seen.(t) <- true;
        List.iter dfs adj.(t)
      end
    in
    dfs 0;
    Array.for_all Fun.id seen
  end

(* Is [dst] reachable from [src] following the directed edges, the edge
   [skip] excluded?  Used by {!Merge_tasks}: contracting (u, v) keeps
   the graph acyclic iff no other u -> v path exists. *)
let reachable ~v ~skip edges ~src ~dst =
  let adj = Array.make v [] in
  List.iter
    (fun (s, d, _) -> if (s, d) <> skip then adj.(s) <- d :: adj.(s))
    edges;
  let seen = Array.make v false in
  let rec dfs t =
    if t = dst then true
    else if seen.(t) then false
    else begin
      seen.(t) <- true;
      List.exists dfs adj.(t)
    end
  in
  dfs src

let mean_volume parts =
  match parts.edges with
  | [] -> 100.
  | es ->
      List.fold_left (fun a (_, _, v) -> a +. v) 0. es
      /. float_of_int (List.length es)

(* ------------------------------------------------------------------ *)
(* Operators.  Each takes the rng and a genome and returns [Some g'] or
   [None] when inapplicable; every draw happens whether or not the
   attempt succeeds only where noted, so a given (seed, genome) pair is
   deterministic. *)

let retries = 8

let add_edge rng g =
  let parts = decompose g in
  let v = Array.length parts.labels in
  if v < 2 || List.length parts.edges >= max_edges then None
  else begin
    let order = Dag.topological_order (Instance.dag g.instance) in
    let pos = Array.make v 0 in
    Array.iteri (fun i t -> pos.(t) <- i) order;
    let existing = Hashtbl.create 64 in
    List.iter (fun (s, d, _) -> Hashtbl.replace existing (s, d) ()) parts.edges;
    let rec attempt k =
      if k = 0 then None
      else begin
        let i = Rng.int rng v and j = Rng.int rng v in
        let src, dst = if pos.(i) < pos.(j) then (i, j) else (j, i) in
        if src = dst || Hashtbl.mem existing (src, dst) then attempt (k - 1)
        else begin
          let volume = clamp_volume (mean_volume parts *. factor rng) in
          rebuild { parts with edges = parts.edges @ [ (src, dst, volume) ] }
        end
      end
    in
    attempt retries
  end

let remove_edge rng g =
  let parts = decompose g in
  let v = Array.length parts.labels in
  let n = List.length parts.edges in
  if n = 0 then None
  else begin
    let was_connected = weakly_connected ~v parts.edges in
    let rec attempt k =
      if k = 0 then None
      else begin
        let e = Rng.int rng n in
        let edges = List.filteri (fun i _ -> i <> e) parts.edges in
        (* Removing an edge must not break the generators' weak-
           connectivity contract when the input satisfied it. *)
        if was_connected && not (weakly_connected ~v edges) then
          attempt (k - 1)
        else rebuild { parts with edges }
      end
    in
    attempt retries
  end

let split_task rng g =
  let parts = decompose g in
  let v = Array.length parts.labels in
  if v >= max_tasks || List.length parts.edges >= max_edges then None
  else begin
    let t = Rng.int rng v in
    let fresh = v in
    (* The split halves the work: predecessors stay on [t], successors
       move to the new task, and a connecting edge carries the
       intermediate data. *)
    let edges =
      List.map
        (fun (s, d, vol) -> if s = t then (fresh, d, vol) else (s, d, vol))
        parts.edges
      @ [ (t, fresh, clamp_volume (mean_volume parts *. factor rng)) ]
    in
    let half = Array.map (fun c -> clamp_exec (0.5 *. c)) parts.exec.(t) in
    let exec =
      Array.init (v + 1) (fun i ->
          if i = t then Array.copy half
          else if i = fresh then Array.copy half
          else parts.exec.(i))
    in
    let labels =
      Array.init (v + 1) (fun i ->
          if i = fresh then Printf.sprintf "split%d" fresh else parts.labels.(i))
    in
    rebuild { parts with labels; edges; exec }
  end

let merge_tasks rng g =
  let parts = decompose g in
  let v = Array.length parts.labels in
  let edges_arr = Array.of_list parts.edges in
  let n = Array.length edges_arr in
  if v < 2 || n = 0 then None
  else begin
    let rec attempt k =
      if k = 0 then None
      else begin
        let (u, w, _) = edges_arr.(Rng.int rng n) in
        (* Contracting (u, w) stays acyclic iff the contracted edge was
           the only u -> w path. *)
        if reachable ~v ~skip:(u, w) parts.edges ~src:u ~dst:w then
          attempt (k - 1)
        else begin
          let remap i = if i < w then i else i - 1 in
          let redirect i = if i = w then u else i in
          let merged = Hashtbl.create 64 in
          let order = ref [] in
          List.iter
            (fun (s, d, vol) ->
              if (s, d) <> (u, w) then begin
                let s' = remap (redirect s) and d' = remap (redirect d) in
                match Hashtbl.find_opt merged (s', d') with
                | Some prev ->
                    Hashtbl.replace merged (s', d')
                      (clamp_volume (prev +. vol))
                | None ->
                    Hashtbl.add merged (s', d') (clamp_volume vol);
                    order := (s', d') :: !order
              end)
            parts.edges;
          let edges =
            List.rev_map
              (fun key ->
                let s, d = key in
                (s, d, Hashtbl.find merged key))
              !order
          in
          let labels =
            Array.init (v - 1) (fun i ->
                parts.labels.(if i < w then i else i + 1))
          in
          let exec =
            Array.init (v - 1) (fun i ->
                let old = if i < w then i else i + 1 in
                if old = u then
                  Array.map2
                    (fun a b -> clamp_exec (a +. b))
                    parts.exec.(u) parts.exec.(w)
                else Array.copy parts.exec.(old))
          in
          rebuild { parts with labels; edges; exec }
        end
      end
    in
    attempt retries
  end

let rescale_task rng g =
  let parts = decompose g in
  let v = Array.length parts.labels in
  let t = Rng.int rng v in
  let f = factor rng in
  let exec =
    Array.init v (fun i ->
        if i = t then Array.map (fun c -> clamp_exec (c *. f)) parts.exec.(i)
        else parts.exec.(i))
  in
  rebuild { parts with exec }

let rescale_edge rng g =
  let parts = decompose g in
  let n = List.length parts.edges in
  if n = 0 then None
  else begin
    let e = Rng.int rng n in
    let f = factor rng in
    let edges =
      List.mapi
        (fun i (s, d, vol) ->
          if i = e then (s, d, clamp_volume (vol *. f)) else (s, d, vol))
        parts.edges
    in
    rebuild { parts with edges }
  end

let perturb_speed rng g =
  let parts = decompose g in
  let m = Array.length parts.delay in
  let p = Rng.int rng m in
  let f = factor rng in
  let exec =
    Array.map
      (fun row ->
        Array.mapi (fun j c -> if j = p then clamp_exec (c *. f) else c) row)
      parts.exec
  in
  rebuild { parts with exec }

let perturb_link rng g =
  let parts = decompose g in
  let m = Array.length parts.delay in
  if m < 2 then None
  else begin
    let k = Rng.int rng m in
    let h = (k + 1 + Rng.int rng (m - 1)) mod m in
    let f = factor rng in
    let delay =
      Array.mapi
        (fun i row ->
          Array.mapi
            (fun j d ->
              if i = k && j = h then clamp_delay (d *. f) else d)
            row)
        parts.delay
    in
    rebuild { parts with delay }
  end

let bump_eps rng g =
  let m = Instance.n_procs g.instance in
  let hi = min (m - 1) max_eps in
  let eps' = g.eps + if Rng.bool rng then 1 else -1 in
  let eps' = max 0 (min hi eps') in
  if eps' = g.eps then None else Some { g with eps = eps' }

let apply rng op g =
  match op with
  | Add_edge -> add_edge rng g
  | Remove_edge -> remove_edge rng g
  | Split_task -> split_task rng g
  | Merge_tasks -> merge_tasks rng g
  | Rescale_task -> rescale_task rng g
  | Rescale_edge -> rescale_edge rng g
  | Perturb_speed -> perturb_speed rng g
  | Perturb_link -> perturb_link rng g
  | Bump_eps -> bump_eps rng g

let ops_arr = Array.of_list all_ops

let mutate rng g =
  let rec go k =
    if k = 0 then None
    else
      match apply rng ops_arr.(Rng.int rng (Array.length ops_arr)) g with
      | Some g' -> Some g'
      | None -> go (k - 1)
  in
  go 24

(* ------------------------------------------------------------------ *)
(* Validity: the closure property every operator must preserve.        *)

let valid { instance; eps } =
  let g = Instance.dag instance in
  let v = Dag.n_tasks g and m = Instance.n_procs instance in
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  if v < 1 then err "no tasks"
  else if v > Serialize.max_tasks then err "%d tasks exceeds serializer cap" v
  else if m > Serialize.max_procs then err "%d procs exceeds serializer cap" m
  else if Dag.n_edges g > Serialize.max_edges then
    err "%d edges exceeds serializer cap" (Dag.n_edges g)
  else if eps < 0 || eps > m - 1 then err "eps %d outside [0, m-1]" eps
  else begin
    let bad = ref None in
    Dag.iter_edges g (fun e ~src:_ ~dst:_ ~volume ->
        if (not (Float.is_finite volume)) || volume < 0. then
          if !bad = None then
            bad := Some (Printf.sprintf "edge %d volume %g" e volume));
    for t = 0 to v - 1 do
      for p = 0 to m - 1 do
        let c = Instance.exec instance t p in
        if (not (Float.is_finite c)) || c <= 0. then
          if !bad = None then
            bad := Some (Printf.sprintf "exec(%d,%d) = %g" t p c)
      done
    done;
    let pl = Instance.platform instance in
    for k = 0 to m - 1 do
      for h = 0 to m - 1 do
        let d = Platform.delay pl k h in
        if (not (Float.is_finite d)) || d < 0. || (k = h && d <> 0.) then
          if !bad = None then
            bad := Some (Printf.sprintf "delay(%d,%d) = %g" k h d)
      done
    done;
    match !bad with
    | Some msg -> Error msg
    | None -> (
        (* The serializer is the witness carrier: a genome that does not
           round-trip bit-for-bit is unusable as evidence. *)
        match Serialize.instance_to_string instance with
        | exception Invalid_argument msg -> err "serializer rejects: %s" msg
        | doc -> (
            match Serialize.instance_of_string doc with
            | exception e ->
                err "serialized form does not parse: %s" (Printexc.to_string e)
            | inst' ->
                if Serialize.instance_to_string inst' <> doc then
                  err "serialize round-trip not bit-identical"
                else Ok ()))
  end

(* ------------------------------------------------------------------ *)
(* Seed genomes                                                        *)

let random ?(n_lo = 8) ?(n_hi = 16) ?(m_lo = 3) ?(m_hi = 5) rng =
  let m = Rng.int_in rng m_lo (min m_hi max_procs) in
  let eps = Rng.int_in rng 1 (min 2 (m - 1)) in
  let n = Rng.int_in rng n_lo (min n_hi max_tasks) in
  let dag =
    match Rng.int rng 4 with
    | 0 -> Generators.layered rng ~n_tasks:n ()
    | 1 -> Generators.erdos_renyi rng ~n_tasks:n ~edge_prob:0.3 ()
    | 2 ->
        Generators.fork_join rng
          ~stages:(1 + (n / 8))
          ~width:(2 + Rng.int rng 3)
          ()
    | _ -> Generators.random_out_tree rng ~n_tasks:n ~max_children:3 ()
  in
  let platform =
    Platform.random rng ~m ~delay_lo:0.25 ~delay_hi:1.5
      ~symmetric:(Rng.bool rng) ()
  in
  let instance = Instance.random_exec rng ~dag ~platform () in
  { instance; eps }
