module Hk = Ftsched_ds.Hopcroft_karp

type edge = { left : int; right : int; weight : float; forced : bool }

exception Infeasible of string

let infeasible fmt = Format.kasprintf (fun s -> raise (Infeasible s)) fmt

let greedy ~eps edges =
  let k = eps + 1 in
  let left_taken = Array.make k false and right_taken = Array.make k false in
  let chosen = ref [] in
  let take e =
    left_taken.(e.left) <- true;
    right_taken.(e.right) <- true;
    chosen := (e.left, e.right) :: !chosen
  in
  (* Forced (internal) edges have absolute priority. *)
  List.iter
    (fun e ->
      if e.forced then begin
        if left_taken.(e.left) || right_taken.(e.right) then
          infeasible "conflicting forced edges (left %d / right %d)" e.left
            e.right;
        take e
      end)
    edges;
  let remaining =
    List.filter (fun e -> not (left_taken.(e.left) || right_taken.(e.right))) edges
  in
  let sorted =
    List.sort
      (fun a b ->
        match Float.compare a.weight b.weight with
        | 0 -> compare (a.left, a.right) (b.left, b.right)
        | c -> c)
      remaining
  in
  List.iter
    (fun e -> if not (left_taken.(e.left) || right_taken.(e.right)) then take e)
    sorted;
  if Array.exists not left_taken then
    infeasible "greedy selection could not saturate every source replica";
  if Array.exists not right_taken then
    infeasible "greedy selection could not saturate every target replica";
  List.rev !chosen

(* Matching restricted to edges of weight <= threshold. *)
let matching_under ~k edges threshold =
  let adj = Array.make k [] in
  List.iter
    (fun e -> if e.weight <= threshold then adj.(e.left) <- e.right :: adj.(e.left))
    edges;
  Hk.max_matching ~n_left:k ~n_right:k ~adj

let bottleneck_result ~eps edges =
  let k = eps + 1 in
  if edges = [] then infeasible "no edges";
  let weights =
    edges
    |> List.map (fun e -> e.weight)
    |> List.sort_uniq Float.compare
    |> Array.of_list
  in
  (* Binary search for the smallest threshold admitting a perfect
     matching. *)
  let feasible_at idx =
    let r = matching_under ~k edges weights.(idx) in
    if Hk.is_perfect_on_left r then Some r else None
  in
  let lo = ref 0 and hi = ref (Array.length weights - 1) in
  if feasible_at !hi = None then
    infeasible "no one-to-one selection exists even with all edges";
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    match feasible_at mid with
    | Some _ -> hi := mid
    | None -> lo := mid + 1
  done;
  match feasible_at !lo with
  | Some r -> (weights.(!lo), r)
  | None -> assert false

let bottleneck ~eps edges =
  let _, r = bottleneck_result ~eps edges in
  Array.to_list (Array.mapi (fun l rgt -> (l, rgt)) r.Hk.match_left)

let bottleneck_value ~eps edges = fst (bottleneck_result ~eps edges)

let redundant ~eps ~senders edges =
  let k = eps + 1 in
  let senders = max 1 (min senders k) in
  let base = greedy ~eps edges in
  if senders = 1 then base
  else begin
    let chosen = Hashtbl.create (4 * k) in
    List.iter (fun (l, r) -> Hashtbl.replace chosen (l, r) ()) base;
    let count_for = Array.make k 1 in
    (* Cheapest extra candidates first; forced edges are never reused as
       extras (a colocated source must keep feeding only its own
       processor). *)
    let candidates =
      edges
      |> List.filter (fun e -> not e.forced)
      |> List.sort (fun a b -> Float.compare a.weight b.weight)
    in
    List.iter
      (fun e ->
        if
          count_for.(e.right) < senders
          && not (Hashtbl.mem chosen (e.left, e.right))
        then begin
          Hashtbl.replace chosen (e.left, e.right) ();
          count_for.(e.right) <- count_for.(e.right) + 1
        end)
      candidates;
    Hashtbl.fold (fun pair () acc -> pair :: acc) chosen []
    |> List.sort compare
  end

let max_weight edges pairs =
  (* Index once instead of a [List.find] per pair: O(|edges| + |pairs|)
     rather than O(|pairs|·|edges|).  Keep the first occurrence of a
     duplicated (left, right) key, matching the old [List.find]. *)
  let index = Hashtbl.create (2 * List.length edges) in
  List.iter
    (fun e ->
      let key = (e.left, e.right) in
      if not (Hashtbl.mem index key) then Hashtbl.add index key e.weight)
    edges;
  List.fold_left
    (fun acc (l, r) ->
      match Hashtbl.find_opt index (l, r) with
      | Some w -> Float.max acc w
      | None -> infeasible "pair (%d, %d) has no backing edge" l r)
    neg_infinity pairs

module Flat = Ftsched_kernel.Edge_select

let load flat ~eps edges =
  let k = eps + 1 in
  Flat.reset flat ~k;
  let w = Flat.weights flat in
  List.iter
    (fun e ->
      w.((e.left * k) + e.right) <- e.weight;
      Flat.add flat ~left:e.left ~right:e.right ~forced:e.forced)
    edges

let selection flat =
  List.init (Flat.selected flat) (fun i ->
      ((Flat.selected_lefts flat).(i), (Flat.selected_rights flat).(i)))
