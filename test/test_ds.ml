(* Tests for Ftsched_ds (the heap, Hopcroft–Karp) and
   for the pairing heap behind the test-only reference simulator. *)

module Heap = Ftsched_oracle.Pairing_heap
module Hk = Ftsched_ds.Hopcroft_karp
open Helpers

module Int_heap = Heap.Make (Int)

(* ------------------------------------------------------------------ *)
(* Pairing heap                                                        *)

let prop_heap_sorts =
  QCheck.Test.make ~name:"Pairing_heap drains sorted" ~count:300
    QCheck.(list int)
    (fun l ->
      Int_heap.to_sorted_list (Int_heap.of_list l) = List.sort compare l)

let prop_heap_merge =
  QCheck.Test.make ~name:"Pairing_heap merge is union" ~count:200
    QCheck.(pair (list int) (list int))
    (fun (a, b) ->
      let h = Int_heap.merge (Int_heap.of_list a) (Int_heap.of_list b) in
      Int_heap.to_sorted_list h = List.sort compare (a @ b))

let prop_heap_cardinal =
  QCheck.Test.make ~name:"Pairing_heap cardinal" ~count:200
    QCheck.(list int)
    (fun l -> Int_heap.cardinal (Int_heap.of_list l) = List.length l)

let test_heap_empty () =
  check_bool "is_empty" true (Int_heap.is_empty Int_heap.empty);
  check_bool "find none" true (Int_heap.find_min Int_heap.empty = None);
  check_bool "pop none" true (Int_heap.pop_min Int_heap.empty = None)

let test_heap_find_min () =
  let h = Int_heap.of_list [ 5; 2; 9 ] in
  Alcotest.(check (option int)) "min" (Some 2) (Int_heap.find_min h);
  check_int "find_min does not consume" 3 (Int_heap.cardinal h)

let test_heap_duplicates () =
  let h = Int_heap.of_list [ 1; 1; 1 ] in
  Alcotest.(check (list int)) "keeps duplicates" [ 1; 1; 1 ]
    (Int_heap.to_sorted_list h)

(* ------------------------------------------------------------------ *)
(* The one heap                                                        *)

(* Ftsched_ds.Heap serves two roles, and its tests come in three groups:
   "heap" checks the triple order itself, "event-heap" the heap as the
   event simulator's queue and "bin-heap" the heap as the kernel driver's
   priority list α.  The last two groups keep the names of the two heaps
   the one Heap replaced (Event_heap, Bin_heap), so their test ids stay. *)

module H = Ftsched_ds.Heap

let drain h =
  let acc = ref [] in
  while not (H.is_empty h) do
    acc := (H.min_key h, H.min_seq h, H.min_payload h) :: !acc;
    H.drop_min h
  done;
  List.rev !acc

(* Model: the heap pops exactly [List.sort compare] of what was pushed.
   Keys, seqs and payloads come from small ranges, so equal keys, equal
   (key, seq) pairs and whole duplicates all occur and each field gets to
   decide. *)
let triple_gen =
  QCheck.Gen.(
    triple
      (map (fun i -> float_of_int i /. 2.) (int_bound 4))
      (int_bound 3) (int_bound 3))

let print_triple (k, s, p) = Printf.sprintf "(%g,%d,%d)" k s p

let prop_heap_drains_sorted =
  QCheck.Test.make ~name:"Heap pops increasing (key, seq, payload)"
    ~count:300
    (QCheck.make
       ~print:(fun l -> String.concat ";" (List.map print_triple l))
       QCheck.Gen.(list_size (int_range 0 200) triple_gen))
    (fun triples ->
      let h = H.create ~capacity:1 () in
      List.iter (fun (key, seq, payload) -> H.push h ~key ~seq ~payload) triples;
      H.length h = List.length triples && drain h = List.sort compare triples)

let prop_heap_interleaved =
  QCheck.Test.make
    ~name:"Event_heap interleaved push/pop matches sorted-list model"
    ~count:300
    (QCheck.make
       ~print:(fun l ->
         String.concat ";"
           (List.map (function None -> "pop" | Some t -> print_triple t) l))
       QCheck.Gen.(
         list_size (int_range 0 200) (opt ~ratio:0.7 triple_gen)))
    (fun ops ->
      let h = H.create ~capacity:1 () in
      let model = ref [] (* sorted increasing *) in
      let ok = ref true in
      List.iter
        (function
          | Some ((key, seq, payload) as t) ->
              H.push h ~key ~seq ~payload;
              model := List.sort compare (t :: !model)
          | None -> (
              match !model with
              | (key, seq, payload) :: rest ->
                  if
                    H.min_key h <> key || H.min_seq h <> seq
                    || H.min_payload h <> payload
                  then ok := false;
                  H.drop_min h;
                  model := rest
              | [] -> if not (H.is_empty h) then ok := false))
        ops;
      !ok && drain h = !model)

(* The kernel driver's priority list α holds (prio, tie, task) as
   (-. prio, - rank, lnot task), where rank is the LIFO counter or the
   bit pattern of a [0,1) draw.  Its pops must come out in decreasing
   lexicographic (prio, tie, task) order — the order of the max-heap it
   replaced, which the pinned schedule digests rest on.  Priorities and
   ties come from small sets, so both collide; tasks are distinct. *)
let encode ~prio ~tie ~task =
  (-.prio, -Int64.to_int (Int64.bits_of_float tie), lnot task)

let prop_alpha_encoding =
  QCheck.Test.make
    ~name:"alpha encoding pops decreasing (prio, tie, task)" ~count:300
    (QCheck.make
       ~print:(fun keys ->
         String.concat ";"
           (List.map
              (fun (p, t, task) -> Printf.sprintf "(%g,%g,#%d)" p t task)
              keys))
       QCheck.Gen.(
         list_size (int_range 0 150)
           (pair (int_range (-2) 3) (int_bound 4))
         >|= List.mapi (fun task (p, t) ->
                 (* ties in [0,1), 0. included *)
                 (float_of_int p /. 2., float_of_int t /. 5., task))))
    (fun keys ->
      let h = H.create ~capacity:1 () in
      List.iter
        (fun (prio, tie, task) ->
          let key, seq, payload = encode ~prio ~tie ~task in
          H.push h ~key ~seq ~payload)
        keys;
      let popped =
        List.map (fun (k, _, p) -> (-.k, lnot p)) (drain h)
      in
      popped
      = List.map
          (fun (p, _, task) -> (p, task))
          (List.sort (fun a b -> compare b a) keys))

let test_heap_empty_raises () =
  let h = H.create () in
  check_bool "is_empty" true (H.is_empty h);
  check_int "length" 0 (H.length h);
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  check_bool "min_key raises" true (raises (fun () -> H.min_key h));
  check_bool "min_seq raises" true (raises (fun () -> H.min_seq h));
  check_bool "min_payload raises" true (raises (fun () -> H.min_payload h));
  check_bool "drop_min raises" true (raises (fun () -> H.drop_min h))

let test_heap_clear_reuses () =
  let h = H.create ~capacity:1 () in
  for seq = 0 to 99 do
    H.push h ~key:(float_of_int (seq mod 7)) ~seq:(seq mod 3) ~payload:seq
  done;
  check_int "grown from capacity 1" 100 (H.length h);
  check_int "least payload" 0 (H.min_payload h);
  H.clear h;
  check_bool "cleared" true (H.is_empty h);
  H.push h ~key:3. ~seq:42 ~payload:7;
  check_int "usable after clear" 42 (H.min_seq h);
  check_int "payload" 7 (H.min_payload h)

let push_alpha h (prio, tie, task) =
  let key, seq, payload = encode ~prio ~tie ~task in
  H.push h ~key ~seq ~payload

(* α's head, decoded back to (prio, task). *)
let alpha_max h = (-.H.min_key h, lnot (H.min_payload h))

let prop_alpha_interleaved =
  QCheck.Test.make
    ~name:"Bin_heap interleaved push/pop matches sorted-list model"
    ~count:300
    QCheck.(list (pair (int_bound 8) (int_bound 8)))
    (fun ops ->
      (* model: the same keys in a list kept sorted decreasing; pop every
         third op so pushes and pops interleave like the driver loop *)
      let h = H.create ~capacity:1 () in
      let model = ref [] in
      let ok = ref true in
      List.iteri
        (fun i (p, t) ->
          let key = (float_of_int p, float_of_int t /. 10., i) in
          push_alpha h key;
          model := List.sort (fun a b -> compare b a) (key :: !model);
          if i mod 3 = 2 then begin
            (match !model with
            | (mp, _, mtask) :: rest ->
                if alpha_max h <> (mp, mtask) then ok := false;
                H.drop_min h;
                model := rest
            | [] -> ok := false);
            if H.length h <> List.length !model then ok := false
          end)
        ops;
      !ok)

let test_alpha_empty_raises () =
  (* α drained by the driver loop is empty again: its head cannot be read *)
  let h = H.create () in
  push_alpha h (1., 0.5, 3);
  push_alpha h (2., 0., 1);
  H.drop_min h;
  H.drop_min h;
  check_bool "is_empty" true (H.is_empty h);
  check_int "length" 0 (H.length h);
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  check_bool "head task raises" true (raises (fun () -> alpha_max h));
  check_bool "drop_min raises" true (raises (fun () -> H.drop_min h))

let test_alpha_clear_reuses () =
  let h = H.create ~capacity:1 () in
  for task = 0 to 99 do
    push_alpha h (float_of_int (task mod 7), 0., task)
  done;
  check_int "length before clear" 100 (H.length h);
  check_bool "head: highest prio, then largest task" true
    (alpha_max h = (6., 97));
  H.clear h;
  check_bool "empty after clear" true (H.is_empty h);
  push_alpha h (3., 0.25, 42);
  check_bool "usable after clear" true (alpha_max h = (3., 42))

let test_alpha_tie_breaks () =
  (* equal prio: larger tie wins; equal (prio, tie): larger task wins *)
  let h = H.create () in
  List.iter (push_alpha h)
    [ (1., 0.5, 3); (1., 0.9, 1); (1., 0.9, 2); (0., 0., 4) ];
  Alcotest.(check (list int))
    "tie, then task" [ 2; 1; 3; 4 ]
    (List.map (fun (_, _, p) -> lnot p) (drain h))

(* ------------------------------------------------------------------ *)
(* Hopcroft–Karp                                                       *)

(* Reference: maximum bipartite matching by Kuhn's augmenting paths. *)
let reference_matching ~n_left ~n_right ~adj =
  let match_r = Array.make n_right (-1) in
  let rec try_kuhn u seen =
    List.exists
      (fun v ->
        if seen.(v) then false
        else begin
          seen.(v) <- true;
          if match_r.(v) = -1 || try_kuhn match_r.(v) seen then begin
            match_r.(v) <- u;
            true
          end
          else false
        end)
      adj.(u)
  in
  let size = ref 0 in
  for u = 0 to n_left - 1 do
    if try_kuhn u (Array.make n_right false) then incr size
  done;
  !size

let bipartite_arb =
  QCheck.make
    ~print:(fun (nl, nr, edges) ->
      Printf.sprintf "nl=%d nr=%d edges=%s" nl nr
        (String.concat ","
           (List.map (fun (a, b) -> Printf.sprintf "%d-%d" a b) edges)))
    QCheck.Gen.(
      int_range 1 8 >>= fun nl ->
      int_range 1 8 >>= fun nr ->
      list_size (int_range 0 30)
        (pair (int_bound (nl - 1)) (int_bound (nr - 1)))
      >>= fun edges -> return (nl, nr, edges))

let adj_of ~n_left edges =
  let adj = Array.make n_left [] in
  List.iter
    (fun (u, v) -> if not (List.mem v adj.(u)) then adj.(u) <- v :: adj.(u))
    edges;
  adj

let prop_hk_max_size =
  QCheck.Test.make ~name:"Hopcroft–Karp size equals reference" ~count:500
    bipartite_arb
    (fun (n_left, n_right, edges) ->
      let adj = adj_of ~n_left edges in
      let r = Hk.max_matching ~n_left ~n_right ~adj in
      r.Hk.size = reference_matching ~n_left ~n_right ~adj)

let prop_hk_valid_matching =
  QCheck.Test.make ~name:"Hopcroft–Karp produces a valid matching" ~count:500
    bipartite_arb
    (fun (n_left, n_right, edges) ->
      let adj = adj_of ~n_left edges in
      let r = Hk.max_matching ~n_left ~n_right ~adj in
      let ok = ref true in
      Array.iteri
        (fun u v ->
          if v <> -1 then begin
            if not (List.mem v adj.(u)) then ok := false;
            if r.Hk.match_right.(v) <> u then ok := false
          end)
        r.Hk.match_left;
      let matched =
        Array.to_list r.Hk.match_left |> List.filter (fun v -> v >= 0)
      in
      List.length (List.sort_uniq compare matched) = List.length matched && !ok)

let test_hk_perfect () =
  let adj = Array.make 3 [ 0; 1; 2 ] in
  let r = Hk.max_matching ~n_left:3 ~n_right:3 ~adj in
  check_int "size" 3 r.Hk.size;
  check_bool "perfect" true (Hk.is_perfect_on_left r)

let test_hk_bottleneck_structure () =
  (* left 0 and 1 both only connect to right 0: max matching is 1 *)
  let adj = [| [ 0 ]; [ 0 ] |] in
  let r = Hk.max_matching ~n_left:2 ~n_right:2 ~adj in
  check_int "size" 1 r.Hk.size;
  check_bool "not perfect" false (Hk.is_perfect_on_left r)

let test_hk_empty_graph () =
  let adj = [| []; [] |] in
  let r = Hk.max_matching ~n_left:2 ~n_right:3 ~adj in
  check_int "size" 0 r.Hk.size

let test_hk_bad_input () =
  Alcotest.check_raises "neighbour out of range"
    (Invalid_argument "Hopcroft_karp.max_matching: neighbour out of range")
    (fun () -> ignore (Hk.max_matching ~n_left:1 ~n_right:1 ~adj:[| [ 5 ] |]))

let () =
  Alcotest.run "ds"
    [
      ( "pairing-heap",
        [
          quick prop_heap_sorts;
          quick prop_heap_merge;
          quick prop_heap_cardinal;
          Alcotest.test_case "empty" `Quick test_heap_empty;
          Alcotest.test_case "find_min" `Quick test_heap_find_min;
          Alcotest.test_case "duplicates" `Quick test_heap_duplicates;
        ] );
      ( "heap",
        [
          quick prop_heap_drains_sorted;
          quick prop_alpha_encoding;
          Alcotest.test_case "alpha tie-breaking" `Quick test_alpha_tie_breaks;
        ] );
      ( "event-heap",
        [
          quick prop_heap_interleaved;
          Alcotest.test_case "empty raises" `Quick test_heap_empty_raises;
          Alcotest.test_case "clear and grow" `Quick test_heap_clear_reuses;
        ] );
      ( "bin-heap",
        [
          quick prop_alpha_interleaved;
          Alcotest.test_case "empty raises" `Quick test_alpha_empty_raises;
          Alcotest.test_case "clear and grow" `Quick test_alpha_clear_reuses;
        ] );
      ( "hopcroft-karp",
        [
          quick prop_hk_max_size;
          quick prop_hk_valid_matching;
          Alcotest.test_case "perfect K33" `Quick test_hk_perfect;
          Alcotest.test_case "bottleneck" `Quick test_hk_bottleneck_structure;
          Alcotest.test_case "empty graph" `Quick test_hk_empty_graph;
          Alcotest.test_case "bad input" `Quick test_hk_bad_input;
        ] );
    ]
