(* Tests for Ftsched_ds (event and priority heaps, Hopcroft–Karp) and
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
(* Event min-heap                                                      *)

module Eh = Ftsched_ds.Event_heap

(* Model: pushing (at, seq) keys with seq = push index pops them in
   increasing lexicographic (at, seq) order, payload attached.  A small
   timestamp alphabet forces plenty of equal-[at] collisions, which is
   exactly where the seq ordering carries the determinism argument. *)
let events_arb =
  QCheck.make
    ~print:(fun l ->
      String.concat ";" (List.map (fun at -> Printf.sprintf "%.1f" at) l))
    QCheck.Gen.(
      list_size (int_range 0 200)
        (map (fun i -> float_of_int i /. 2.) (int_bound 10)))

let drain_events h =
  let acc = ref [] in
  while not (Eh.is_empty h) do
    acc := (Eh.min_at h, Eh.min_seq h, Eh.min_payload h) :: !acc;
    Eh.drop_min h
  done;
  List.rev !acc

let prop_event_heap_drains_sorted =
  QCheck.Test.make ~name:"Event_heap pops increasing (at, seq) with payload"
    ~count:300 events_arb
    (fun ats ->
      let h = Eh.create ~capacity:1 () in
      let keys = List.mapi (fun seq at -> (at, seq, (seq * 3) + 1)) ats in
      List.iter (fun (at, seq, payload) -> Eh.push h ~at ~seq ~payload) keys;
      let expect =
        List.sort
          (fun (at1, s1, _) (at2, s2, _) ->
            match Float.compare at1 at2 with 0 -> compare s1 s2 | c -> c)
          keys
      in
      drain_events h = expect)

let prop_event_heap_interleaved =
  QCheck.Test.make
    ~name:"Event_heap interleaved push/pop matches sorted-list model"
    ~count:300
    QCheck.(list (int_bound 8))
    (fun ops ->
      let h = Eh.create ~capacity:1 () in
      let model = ref [] (* sorted increasing (at, seq) *) in
      let seq = ref 0 in
      let ok = ref true in
      List.iter
        (fun at ->
          if at = 0 && !model <> [] then begin
            (match !model with
            | (mat, mseq) :: rest ->
                if Eh.min_at h <> mat || Eh.min_seq h <> mseq then ok := false;
                Eh.drop_min h;
                model := rest
            | [] -> assert false)
          end
          else begin
            incr seq;
            let at = float_of_int at in
            Eh.push h ~at ~seq:!seq ~payload:0;
            model :=
              List.sort
                (fun (a1, s1) (a2, s2) ->
                  match Float.compare a1 a2 with 0 -> compare s1 s2 | c -> c)
                ((at, !seq) :: !model)
          end)
        ops;
      !ok)

let test_event_heap_empty_raises () =
  let h = Eh.create () in
  check_bool "is_empty" true (Eh.is_empty h);
  check_int "length" 0 (Eh.length h);
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  check_bool "min_at raises" true (raises (fun () -> Eh.min_at h));
  check_bool "min_seq raises" true (raises (fun () -> Eh.min_seq h));
  check_bool "min_payload raises" true (raises (fun () -> Eh.min_payload h));
  check_bool "drop_min raises" true (raises (fun () -> Eh.drop_min h))

let test_event_heap_clear_reuses () =
  let h = Eh.create ~capacity:2 () in
  for seq = 0 to 99 do
    Eh.push h ~at:(float_of_int (seq mod 7)) ~seq ~payload:seq
  done;
  check_int "grown" 100 (Eh.length h);
  Eh.clear h;
  check_bool "cleared" true (Eh.is_empty h);
  Eh.push h ~at:3. ~seq:42 ~payload:7;
  check_int "usable after clear" 42 (Eh.min_seq h);
  check_int "payload" 7 (Eh.min_payload h)

(* ------------------------------------------------------------------ *)
(* Binary max-heap                                                     *)

module Bh = Ftsched_ds.Bin_heap

(* Model: a heap holding distinct (prio, tie, task) keys pops them in
   decreasing lexicographic order.  Distinct tasks guarantee distinct
   keys even when prio/tie collide — exactly the driver's situation. *)
let keys_arb =
  QCheck.make
    ~print:(fun keys ->
      String.concat ";"
        (List.map
           (fun (p, t, task) -> Printf.sprintf "(%g,%g,#%d)" p t task)
           keys))
    QCheck.Gen.(
      list_size (int_range 0 150)
        (pair (int_bound 5) (int_bound 5))
      >|= List.mapi (fun task (p, t) ->
              (float_of_int p, float_of_int t, task)))

let drain h =
  let acc = ref [] in
  while not (Bh.is_empty h) do
    acc := (Bh.max_prio h, Bh.max_task h) :: !acc;
    Bh.drop_max h
  done;
  List.rev !acc

let prop_bin_heap_drains_sorted =
  QCheck.Test.make ~name:"Bin_heap pops decreasing (prio, tie, task)"
    ~count:300 keys_arb
    (fun keys ->
      let h = Bh.create ~capacity:1 () in
      List.iter (fun (p, t, task) -> Bh.push h ~prio:p ~tie:t ~task) keys;
      let expect =
        List.sort (fun a b -> compare b a) keys
        |> List.map (fun (p, _, task) -> (p, task))
      in
      drain h = expect)

let prop_bin_heap_interleaved =
  QCheck.Test.make
    ~name:"Bin_heap interleaved push/pop matches sorted-list model"
    ~count:300
    QCheck.(list (pair (int_bound 8) (int_bound 8)))
    (fun ops ->
      (* model: the same keys in a list kept sorted decreasing; pop every
         third op so pushes and pops interleave like the driver loop *)
      let h = Bh.create () in
      let model = ref [] in
      let ok = ref true in
      List.iteri
        (fun i (p, t) ->
          let key = (float_of_int p, float_of_int t, i) in
          let p, t, task = key in
          Bh.push h ~prio:p ~tie:t ~task;
          model := List.sort (fun a b -> compare b a) (key :: !model);
          if i mod 3 = 2 then begin
            (match !model with
            | (mp, _, mtask) :: rest ->
                if Bh.max_task h <> mtask || Bh.max_prio h <> mp then
                  ok := false;
                Bh.drop_max h;
                model := rest
            | [] -> ok := false);
            if Bh.length h <> List.length !model then ok := false
          end)
        ops;
      !ok)

let test_bin_heap_empty_raises () =
  let h = Bh.create () in
  check_bool "is_empty" true (Bh.is_empty h);
  check_int "length" 0 (Bh.length h);
  let raises f =
    try
      f ();
      false
    with Invalid_argument _ -> true
  in
  check_bool "max_task raises" true (raises (fun () -> ignore (Bh.max_task h)));
  check_bool "max_prio raises" true (raises (fun () -> ignore (Bh.max_prio h)));
  check_bool "drop_max raises" true (raises (fun () -> Bh.drop_max h))

let test_bin_heap_clear_reuses () =
  let h = Bh.create ~capacity:2 () in
  for task = 0 to 99 do
    Bh.push h ~prio:(float_of_int (task mod 7)) ~tie:0. ~task
  done;
  check_int "length before clear" 100 (Bh.length h);
  Bh.clear h;
  check_bool "empty after clear" true (Bh.is_empty h);
  Bh.push h ~prio:3. ~tie:1. ~task:42;
  check_int "usable after clear" 42 (Bh.max_task h);
  check_bool "max_prio" true (Bh.max_prio h = 3.)

let test_bin_heap_tie_breaks () =
  (* equal prio: larger tie wins; equal (prio, tie): larger task wins *)
  let h = Bh.create () in
  Bh.push h ~prio:1. ~tie:0.5 ~task:3;
  Bh.push h ~prio:1. ~tie:0.9 ~task:1;
  Bh.push h ~prio:1. ~tie:0.9 ~task:2;
  check_int "tie then task" 2 (Bh.max_task h);
  Bh.drop_max h;
  check_int "next" 1 (Bh.max_task h);
  Bh.drop_max h;
  check_int "last" 3 (Bh.max_task h)

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
      ( "event-heap",
        [
          quick prop_event_heap_drains_sorted;
          quick prop_event_heap_interleaved;
          Alcotest.test_case "empty raises" `Quick test_event_heap_empty_raises;
          Alcotest.test_case "clear and grow" `Quick
            test_event_heap_clear_reuses;
        ] );
      ( "bin-heap",
        [
          quick prop_bin_heap_drains_sorted;
          quick prop_bin_heap_interleaved;
          Alcotest.test_case "empty raises" `Quick test_bin_heap_empty_raises;
          Alcotest.test_case "clear and grow" `Quick test_bin_heap_clear_reuses;
          Alcotest.test_case "tie-breaking" `Quick test_bin_heap_tie_breaks;
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
