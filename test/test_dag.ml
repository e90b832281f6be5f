(* Tests for Ftsched_dag: builder, accessors, properties, generators,
   classic graphs, DOT export. *)

module Dag = Ftsched_dag.Dag
module Properties = Ftsched_dag.Properties
module Generators = Ftsched_dag.Generators
module Classic = Ftsched_dag.Classic
module Dot = Ftsched_dag.Dot
module Rng = Ftsched_util.Rng
module Adjacency = Ftsched_oracle.Adjacency
open Helpers

(* ------------------------------------------------------------------ *)
(* Builder                                                             *)

let chain3 () =
  let b = Dag.Builder.create () in
  let t0 = Dag.Builder.add_task ~label:"a" b in
  let t1 = Dag.Builder.add_task b in
  let t2 = Dag.Builder.add_task b in
  Dag.Builder.add_edge b ~src:t0 ~dst:t1 ~volume:1.;
  Dag.Builder.add_edge b ~src:t1 ~dst:t2 ~volume:2.;
  Dag.Builder.build b

let test_builder_basic () =
  let g = chain3 () in
  check_int "tasks" 3 (Dag.n_tasks g);
  check_int "edges" 2 (Dag.n_edges g);
  Alcotest.(check string) "label" "a" (Dag.label g 0);
  Alcotest.(check string) "default label" "t1" (Dag.label g 1);
  Alcotest.(check (array int)) "entries" [| 0 |] (Dag.entries g);
  Alcotest.(check (array int)) "exits" [| 2 |] (Dag.exits g);
  check_float "volume" 2. (Dag.edge_volume g 1);
  check_int "in degree" 1 (Dag.in_degree g 1);
  check_int "out degree" 1 (Dag.out_degree g 1)

let test_builder_rejects_cycle () =
  let b = Dag.Builder.create () in
  let t0 = Dag.Builder.add_task b in
  let t1 = Dag.Builder.add_task b in
  Dag.Builder.add_edge b ~src:t0 ~dst:t1 ~volume:1.;
  Dag.Builder.add_edge b ~src:t1 ~dst:t0 ~volume:1.;
  Alcotest.check_raises "cycle"
    (Invalid_argument "Dag.Builder.build: graph has a cycle") (fun () ->
      ignore (Dag.Builder.build b))

let test_builder_rejects_self_loop () =
  let b = Dag.Builder.create () in
  let t0 = Dag.Builder.add_task b in
  Alcotest.check_raises "self loop"
    (Invalid_argument "Dag.Builder.add_edge: self loop") (fun () ->
      Dag.Builder.add_edge b ~src:t0 ~dst:t0 ~volume:1.)

let test_builder_rejects_duplicate () =
  let b = Dag.Builder.create () in
  let t0 = Dag.Builder.add_task b in
  let t1 = Dag.Builder.add_task b in
  Dag.Builder.add_edge b ~src:t0 ~dst:t1 ~volume:1.;
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Dag.Builder.add_edge: duplicate edge") (fun () ->
      Dag.Builder.add_edge b ~src:t0 ~dst:t1 ~volume:2.)

let test_builder_rejects_bad_volume () =
  let b = Dag.Builder.create () in
  let t0 = Dag.Builder.add_task b in
  let t1 = Dag.Builder.add_task b in
  Alcotest.check_raises "negative volume"
    (Invalid_argument "Dag.Builder.add_edge: volume") (fun () ->
      Dag.Builder.add_edge b ~src:t0 ~dst:t1 ~volume:(-1.))

let test_builder_rejects_unknown_task () =
  let b = Dag.Builder.create () in
  let t0 = Dag.Builder.add_task b in
  Alcotest.check_raises "unknown dst"
    (Invalid_argument "Dag.Builder.add_edge: dst") (fun () ->
      Dag.Builder.add_edge b ~src:t0 ~dst:42 ~volume:1.)

let collect = Adjacency.collect

let test_iter_chain () =
  let g = chain3 () in
  let triple = Alcotest.(list (triple int int (float 0.))) in
  Alcotest.check triple "succs of 0" [ (0, 1, 1.) ] (collect Dag.iter_succs g 0);
  Alcotest.check triple "preds of 2" [ (1, 1, 2.) ] (collect Dag.iter_preds g 2);
  Alcotest.check triple "no preds of 0" [] (collect Dag.iter_preds g 0);
  Alcotest.check triple "no succs of 2" [] (collect Dag.iter_succs g 2)

let test_total_volume () =
  check_float "total" 3. (Dag.total_volume (chain3 ()))

(* random DAG arbitrary via seeds *)
let seed_arb = QCheck.int_range 0 5000

let random_dag seed =
  let rng = Rng.create ~seed in
  let n = 5 + Rng.int rng 80 in
  if Rng.bool rng then Generators.layered rng ~n_tasks:n ()
  else Generators.erdos_renyi rng ~n_tasks:n ~edge_prob:0.15 ()

let prop_topo_order_valid =
  QCheck.Test.make ~name:"topological_order respects every edge" ~count:200
    seed_arb
    (fun seed ->
      let g = random_dag seed in
      let pos = Array.make (Dag.n_tasks g) (-1) in
      Array.iteri (fun i t -> pos.(t) <- i) (Dag.topological_order g);
      Dag.fold_edges g ~init:true ~f:(fun acc _ ~src ~dst ~volume:_ ->
          acc && pos.(src) < pos.(dst)))

let prop_succs_preds_dual =
  QCheck.Test.make ~name:"succs/preds are dual" ~count:100 seed_arb
    (fun seed ->
      let g = random_dag seed in
      let ok = ref true and count_preds = ref 0 in
      for u = 0 to Dag.n_tasks g - 1 do
        Dag.iter_succs g u (fun e v vol ->
            if not (List.mem (e, u, vol) (collect Dag.iter_preds g v)) then
              ok := false);
        Dag.iter_preds g u (fun _ _ _ -> incr count_preds)
      done;
      !ok && !count_preds = Dag.n_edges g)

let prop_edge_endpoints_consistent =
  QCheck.Test.make ~name:"edge ids consistent with adjacency" ~count:100
    seed_arb
    (fun seed ->
      let g = random_dag seed in
      let ok = ref true in
      for u = 0 to Dag.n_tasks g - 1 do
        Dag.iter_succs g u (fun e _ _ ->
            if fst (Dag.edge_endpoints g e) <> u then ok := false);
        Dag.iter_preds g u (fun e _ _ ->
            if snd (Dag.edge_endpoints g e) <> u then ok := false)
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)

let test_depth_chain () =
  let g = chain3 () in
  Alcotest.(check (array int)) "depths" [| 0; 1; 2 |] (Properties.depth g);
  check_int "height" 3 (Properties.height g)

let test_level_sizes () =
  let g = Classic.diamond ~layers:3 () in
  (* widths 1,2,3,2,1 *)
  Alcotest.(check (array int)) "levels" [| 1; 2; 3; 2; 1 |]
    (Properties.level_sizes g)

let test_width_bound_fork_join () =
  let rng = Rng.create ~seed:1 in
  let g = Generators.fork_join rng ~stages:2 ~width:7 () in
  check_bool "width bound >= 7" true (Properties.width_upper_bound g >= 7)

let test_longest_path_chain () =
  let g = chain3 () in
  let len =
    Properties.longest_path g
      ~node_weight:(fun _ -> 10.)
      ~edge_weight:(fun e -> Dag.edge_volume g e)
  in
  check_float "10+1+10+2+10" 33. len

let test_critical_path_tasks () =
  let g = chain3 () in
  let cp =
    Properties.critical_path_tasks g
      ~node_weight:(fun _ -> 1.)
      ~edge_weight:(fun _ -> 0.)
  in
  Alcotest.(check (list int)) "whole chain" [ 0; 1; 2 ] cp

let prop_critical_path_achieves_length =
  QCheck.Test.make ~name:"critical path achieves longest_path" ~count:100
    seed_arb
    (fun seed ->
      let g = random_dag seed in
      let nw _ = 3. and ew e = Dag.edge_volume g e in
      let len = Properties.longest_path g ~node_weight:nw ~edge_weight:ew in
      let cp = Properties.critical_path_tasks g ~node_weight:nw ~edge_weight:ew in
      let adj = Adjacency.of_dag g in
      (* sum the path *)
      let rec path_len = function
        | [] -> 0.
        | [ t ] -> nw t
        | a :: (b :: _ as rest) ->
            let e =
              match
                List.find_opt
                  (fun e -> snd (Dag.edge_endpoints g e) = b)
                  adj.Adjacency.out_edges.(a)
              with
              | Some e -> e
              | None -> invalid_arg "not a path"
            in
            nw a +. ew e +. path_len rest
      in
      Float.abs (path_len cp -. len) < 1e-6)

let test_connectivity () =
  let g = chain3 () in
  check_bool "chain connected" true (Properties.is_connected_undirected g);
  let b = Dag.Builder.create () in
  let _ = Dag.Builder.add_task b in
  let _ = Dag.Builder.add_task b in
  let g2 = Dag.Builder.build b in
  check_bool "two isolated tasks" false (Properties.is_connected_undirected g2)

let test_transitive_edges () =
  (* triangle a->b->c plus shortcut a->c: one transitive edge *)
  let b = Dag.Builder.create () in
  let a = Dag.Builder.add_task b in
  let c = Dag.Builder.add_task b in
  let d = Dag.Builder.add_task b in
  Dag.Builder.add_edge b ~src:a ~dst:c ~volume:1.;
  Dag.Builder.add_edge b ~src:c ~dst:d ~volume:1.;
  Dag.Builder.add_edge b ~src:a ~dst:d ~volume:1.;
  let g = Dag.Builder.build b in
  check_int "one transitive edge" 1 (Properties.transitive_edge_count g);
  check_int "chain has none" 0 (Properties.transitive_edge_count (chain3 ()))

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)

let prop_layered_size_and_connect =
  QCheck.Test.make ~name:"layered: exact size, connected, entries on level 0"
    ~count:100
    QCheck.(pair (int_range 0 1000) (int_range 2 120))
    (fun (seed, n) ->
      let rng = Rng.create ~seed in
      let g = Generators.layered rng ~n_tasks:n () in
      Dag.n_tasks g = n
      && Properties.is_connected_undirected g
      && Array.for_all (fun t -> Dag.in_degree g t = 0) (Dag.entries g))

let prop_layered_no_isolated_task =
  QCheck.Test.make ~name:"layered: no isolated tasks" ~count:100
    QCheck.(pair (int_range 0 1000) (int_range 2 100))
    (fun (seed, n) ->
      let rng = Rng.create ~seed in
      let g = Generators.layered rng ~n_tasks:n () in
      List.for_all
        (fun t -> Dag.in_degree g t + Dag.out_degree g t > 0)
        (List.init (Dag.n_tasks g) (fun i -> i)))

let test_erdos_extremes () =
  let rng = Rng.create ~seed:5 in
  let g0 = Generators.erdos_renyi rng ~n_tasks:10 ~edge_prob:0. () in
  check_int "p=0 no edges" 0 (Dag.n_edges g0);
  let g1 = Generators.erdos_renyi rng ~n_tasks:10 ~edge_prob:1. () in
  check_int "p=1 complete dag" 45 (Dag.n_edges g1)

let test_fork_join_shape () =
  let rng = Rng.create ~seed:2 in
  let stages = 3 and width = 5 in
  let g = Generators.fork_join rng ~stages ~width () in
  check_int "task count" (stages * (width + 2)) (Dag.n_tasks g);
  check_int "entries" 1 (Array.length (Dag.entries g));
  check_int "exits" 1 (Array.length (Dag.exits g))

let prop_out_tree =
  QCheck.Test.make ~name:"random_out_tree: single root, in-degree <= 1"
    ~count:100
    QCheck.(pair (int_range 0 500) (int_range 1 60))
    (fun (seed, n) ->
      let rng = Rng.create ~seed in
      let g = Generators.random_out_tree rng ~n_tasks:n ~max_children:3 () in
      Dag.n_tasks g = n
      && Dag.n_edges g = n - 1
      && Array.length (Dag.entries g) = 1
      && List.for_all
           (fun t -> Dag.in_degree g t <= 1)
           (List.init n (fun i -> i))
      && List.for_all
           (fun t -> Dag.out_degree g t <= 3)
           (List.init n (fun i -> i)))

let prop_pegasus_shape =
  QCheck.Test.make
    ~name:"pegasus: exact size, connected, edges stay ~2x tasks" ~count:100
    QCheck.(pair (int_range 0 1000) (int_range 2 4000))
    (fun (seed, n) ->
      let rng = Rng.create ~seed in
      let g = Generators.pegasus rng ~n_tasks:n () in
      Dag.n_tasks g = n
      && Properties.is_connected_undirected g
      && Dag.n_edges g <= 3 * n
      && Array.for_all (fun t -> Dag.in_degree g t = 0) (Dag.entries g))

let test_chain_gen () =
  let rng = Rng.create ~seed:3 in
  let g = Generators.chain rng ~n_tasks:7 () in
  check_int "edges" 6 (Dag.n_edges g);
  check_int "height" 7 (Properties.height g)

let prop_volume_in_range =
  QCheck.Test.make ~name:"generator volumes in requested range" ~count:50
    QCheck.(int_range 0 500)
    (fun seed ->
      let rng = Rng.create ~seed in
      let g =
        Generators.layered rng ~n_tasks:40
          ~volume:(Generators.Uniform_volume (50., 150.))
          ()
      in
      Dag.fold_edges g ~init:true ~f:(fun acc _ ~src:_ ~dst:_ ~volume ->
          acc && volume >= 50. && volume < 150.))

(* Every generator entry point must reject bad parameters with a typed
   Invalid_argument naming the offending generator — never a bare
   assert, which -noassert compiles out (the PR-10 bugfix).  A silent
   pass would let lo > hi or NaN bounds poison volumes downstream. *)
let expect_invalid what f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" what
  | exception Invalid_argument msg ->
      if not (String.length msg >= 11 && String.sub msg 0 11 = "Generators.")
      then
        Alcotest.failf "%s: message %S does not name the generator" what msg

let test_generators_reject_bad_counts () =
  let rng = Rng.create ~seed:0 in
  expect_invalid "layered n=0" (fun () ->
      Generators.layered rng ~n_tasks:0 ());
  expect_invalid "layered n<0" (fun () ->
      Generators.layered rng ~n_tasks:(-3) ());
  expect_invalid "layered fatness" (fun () ->
      Generators.layered rng ~n_tasks:10 ~fatness:(-1.) ());
  expect_invalid "layered density nan" (fun () ->
      Generators.layered rng ~n_tasks:10 ~density:Float.nan ());
  expect_invalid "layered density > 1" (fun () ->
      Generators.layered rng ~n_tasks:10 ~density:1.5 ());
  expect_invalid "erdos n=0" (fun () ->
      Generators.erdos_renyi rng ~n_tasks:0 ~edge_prob:0.5 ());
  expect_invalid "erdos p<0" (fun () ->
      Generators.erdos_renyi rng ~n_tasks:5 ~edge_prob:(-0.1) ());
  expect_invalid "erdos p nan" (fun () ->
      Generators.erdos_renyi rng ~n_tasks:5 ~edge_prob:Float.nan ());
  expect_invalid "fork_join stages=0" (fun () ->
      Generators.fork_join rng ~stages:0 ~width:3 ());
  expect_invalid "fork_join width=0" (fun () ->
      Generators.fork_join rng ~stages:2 ~width:0 ());
  expect_invalid "out_tree n=0" (fun () ->
      Generators.random_out_tree rng ~n_tasks:0 ~max_children:2 ());
  expect_invalid "out_tree max_children=0" (fun () ->
      Generators.random_out_tree rng ~n_tasks:5 ~max_children:0 ());
  expect_invalid "pegasus n=0" (fun () -> Generators.pegasus rng ~n_tasks:0 ());
  expect_invalid "chain n=0" (fun () -> Generators.chain rng ~n_tasks:0 ())

let test_generators_reject_bad_volumes () =
  let rng = Rng.create ~seed:0 in
  let bad_specs =
    [
      ("lo > hi", Generators.Uniform_volume (150., 50.));
      ("negative lo", Generators.Uniform_volume (-1., 10.));
      ("nan bound", Generators.Uniform_volume (Float.nan, 10.));
      ("inf bound", Generators.Uniform_volume (0., Float.infinity));
      ("negative constant", Generators.Constant_volume (-5.));
      ("nan constant", Generators.Constant_volume Float.nan);
    ]
  in
  List.iter
    (fun (what, volume) ->
      expect_invalid ("draw_volume " ^ what) (fun () ->
          Generators.draw_volume rng volume);
      expect_invalid ("layered " ^ what) (fun () ->
          Generators.layered rng ~n_tasks:10 ~volume ());
      expect_invalid ("chain " ^ what) (fun () ->
          Generators.chain rng ~n_tasks:10 ~volume ()))
    bad_specs;
  (* lo = hi is a degenerate but legal range *)
  let g =
    Generators.chain rng ~n_tasks:3
      ~volume:(Generators.Uniform_volume (7., 7.))
      ()
  in
  Dag.iter_edges g (fun _ ~src:_ ~dst:_ ~volume ->
      check_float "degenerate range" 7. volume)

(* Pins: each generator's graph, as its edge list (src, dst, volume in
   edge-id order) plus its topological order, so any change to a
   generator's draws or edge order shows.  The density-0.05 seeds take
   [layered]'s component-anchoring path (one and two anchor links). *)
let edge_list_digest g =
  let b = Buffer.create 4096 in
  Dag.iter_edges g (fun _ ~src ~dst ~volume ->
      Printf.bprintf b "%d %d %h\n" src dst volume);
  Array.iter (fun t -> Printf.bprintf b "%d " t) (Dag.topological_order g);
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_generator_pins () =
  let layered ?density seed n =
    Generators.layered (Rng.create ~seed) ~n_tasks:n ?density ()
  in
  List.iter
    (fun (what, g, expected) ->
      Alcotest.(check string) what expected (edge_list_digest (Lazy.force g)))
    [
      ("layered 1/20", lazy (layered 1 20), "e4427bb90e579944ae7d4c794f455d85");
      ("layered 7/20", lazy (layered 7 20), "90c79d59117caff874f3ec721ac798e3");
      ("layered 42/20", lazy (layered 42 20), "3c49b70de71326cf53904e77a7fef029");
      ("layered 1/150", lazy (layered 1 150), "a55d37ff7bc7e191e7233bb1de08b153");
      ("layered 7/150", lazy (layered 7 150), "7eb6824b387ccccf68fc4e9ab14b8342");
      ("layered 42/150", lazy (layered 42 150), "4dfa609da6f040853873a5135982d597");
      ("layered 1/5000", lazy (layered 1 5000), "957585d42b615c22c24a4d7a8f5cb7f7");
      ("layered 7/5000", lazy (layered 7 5000), "56721f2a8f79846d4d043215c71dd1bf");
      ("layered 42/5000", lazy (layered 42 5000), "9b3d6ce51943470ba8d6db51357558f9");
      ( "layered 8/20 d=0.05",
        lazy (layered ~density:0.05 8 20),
        "8fcf719bc19653195a7252205dd5ff7a" );
      ( "layered 54/20 d=0.05",
        lazy (layered ~density:0.05 54 20),
        "f03d25157bcd61d22bc1d1a66cb6252d" );
      ( "pegasus 1/15000",
        lazy (Generators.pegasus (Rng.create ~seed:1) ~n_tasks:15000 ()),
        "17146f8de022e0f7a82f8ecbb51a323b" );
    ]

(* ------------------------------------------------------------------ *)
(* CSR adjacency: the rows the kernel hot path iterates, and the
   iterators over them, must agree with a list reference built from
   [Dag.iter_edges] alone on every family the fuzzer draws from.       *)

(* the five fuzz families (lib/fuzz gen_case), at property-test sizes *)
let family_dag seed =
  let rng = Rng.create ~seed in
  let n = 2 + Rng.int rng 100 in
  match Rng.int rng 5 with
  | 0 -> Generators.layered rng ~n_tasks:n ()
  | 1 -> Generators.erdos_renyi rng ~n_tasks:n ~edge_prob:0.3 ()
  | 2 ->
      Generators.fork_join rng ~stages:(1 + (n / 6)) ~width:(2 + Rng.int rng 3)
        ()
  | 3 -> Generators.random_out_tree rng ~n_tasks:n ~max_children:3 ()
  | _ -> Generators.chain rng ~n_tasks:n ()

let holds = function
  | Ok () -> true
  | Error what -> QCheck.Test.fail_report what

let prop_csr_matches_reference =
  QCheck.Test.make
    ~name:"Csr predecessor/successor rows equal the reference adjacency"
    ~count:200 seed_arb
    (fun seed -> holds (Adjacency.check_rows (Adjacency.of_dag (family_dag seed))))

let prop_entries_exits =
  QCheck.Test.make ~name:"entries/exits are degree-zero" ~count:200 seed_arb
    (fun seed -> holds (Adjacency.check_ends (Adjacency.of_dag (family_dag seed))))

(* ------------------------------------------------------------------ *)
(* Classic graphs                                                      *)

let test_gauss_structure () =
  let size = 5 in
  let g = Classic.gaussian_elimination ~size () in
  (* one pivot + (size-1-k) updates per step k = 0..size-2 *)
  let expected =
    List.init (size - 1) (fun k -> 1 + (size - 1 - k))
    |> List.fold_left ( + ) 0
  in
  check_int "task count" expected (Dag.n_tasks g);
  check_int "single entry" 1 (Array.length (Dag.entries g))

let test_fft_structure () =
  let g = Classic.fft ~points:8 () in
  check_int "tasks (log2(8)+1)*8" 32 (Dag.n_tasks g);
  check_int "edges 2*stages*points" 48 (Dag.n_edges g);
  check_int "entries" 8 (Array.length (Dag.entries g));
  check_int "exits" 8 (Array.length (Dag.exits g));
  check_int "height" 4 (Properties.height g)

let rejects what f =
  check_bool what true
    (match f () with _ -> false | exception Invalid_argument _ -> true)

let test_fft_rejects_non_power () =
  rejects "fft 6 points" (fun () -> Classic.fft ~points:6 ());
  rejects "fft 1 point" (fun () -> Classic.fft ~points:1 ())

(* one typed rejection per generator, with asserts or without *)
let classic_rejections =
  [
    ( "gauss rejects bad args",
      fun () ->
        rejects "size 1" (fun () -> Classic.gaussian_elimination ~size:1 ());
        rejects "nan volume" (fun () ->
            Classic.gaussian_elimination ~volume:nan ~size:3 ()) );
    ( "wavefront rejects bad args",
      fun () ->
        rejects "0 cols" (fun () -> Classic.wavefront ~rows:3 ~cols:0 ());
        (* a 1x1 wavefront has no edge to carry the volume *)
        rejects "negative volume" (fun () ->
            Classic.wavefront ~volume:(-1.) ~rows:1 ~cols:1 ()) );
    ( "cholesky rejects bad args",
      fun () -> rejects "1 tile" (fun () -> Classic.cholesky ~tiles:1 ()) );
    ( "diamond rejects bad args",
      fun () ->
        rejects "0 layers" (fun () -> Classic.diamond ~layers:0 ());
        rejects "infinite volume" (fun () ->
            Classic.diamond ~volume:infinity ~layers:2 ()) );
  ]

let test_wavefront_structure () =
  let g = Classic.wavefront ~rows:4 ~cols:5 () in
  check_int "tasks" 20 (Dag.n_tasks g);
  check_int "edges" ((2 * 4 * 5) - 4 - 5) (Dag.n_edges g);
  check_int "height = rows+cols-1" 8 (Properties.height g)

let test_diamond_structure () =
  let g = Classic.diamond ~layers:4 () in
  check_int "tasks 1+2+3+4+3+2+1" 16 (Dag.n_tasks g);
  check_int "entry" 1 (Array.length (Dag.entries g));
  check_int "exit" 1 (Array.length (Dag.exits g))

let test_cholesky_structure () =
  let count t =
    (* POTRF + TRSM + SYRK + GEMM *)
    t + (t * (t - 1) / 2 * 2) + (t * (t - 1) * (t - 2) / 6)
  in
  List.iter
    (fun t ->
      let g = Classic.cholesky ~tiles:t () in
      check_int (Printf.sprintf "tiles=%d tasks" t) (count t) (Dag.n_tasks g);
      (* the critical path POTRF->TRSM->SYRK per step gives height 3t-2 *)
      check_int (Printf.sprintf "tiles=%d height" t) ((3 * t) - 2)
        (Properties.height g);
      check_int "single entry (potrf 0)" 1 (Array.length (Dag.entries g)))
    [ 2; 3; 4; 5 ]

(* ------------------------------------------------------------------ *)
(* STG interchange                                                     *)

module Stg = Ftsched_dag.Stg

let sample_stg = "# a diamond\n4\n0 3 0\n1 5 1 0\n2 7 1 0\n3 2 2 1 2\n"

let test_stg_parse () =
  let g, costs = Stg.parse sample_stg in
  check_int "tasks" 4 (Dag.n_tasks g);
  check_int "edges" 4 (Dag.n_edges g);
  Alcotest.(check (array (float 1e-9))) "costs" [| 3.; 5.; 7.; 2. |] costs;
  Alcotest.(check (list int)) "preds of 3" [ 1; 2 ]
    (List.map (fun (_, p, _) -> p) (collect Dag.iter_preds g 3))

let test_stg_roundtrip () =
  let g, costs = Stg.parse sample_stg in
  let g', costs' = Stg.parse (Stg.to_string g ~costs) in
  check_int "tasks" (Dag.n_tasks g) (Dag.n_tasks g');
  check_int "edges" (Dag.n_edges g) (Dag.n_edges g');
  Alcotest.(check (array (float 1e-9))) "costs" costs costs'

let prop_stg_roundtrip_random =
  QCheck.Test.make ~name:"STG round-trips generated graphs" ~count:50
    QCheck.(int_range 0 1000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let g = Generators.layered rng ~n_tasks:30 () in
      let costs = Array.init 30 (fun i -> float_of_int (i + 1)) in
      let g', costs' = Stg.parse (Stg.to_string g ~costs) in
      Dag.n_tasks g' = 30 && Dag.n_edges g' = Dag.n_edges g && costs = costs'
      && List.for_all
           (fun t ->
             let preds g = List.map (fun (_, p, _) -> p) (collect Dag.iter_preds g t) in
             List.sort compare (preds g) = List.sort compare (preds g'))
           (List.init 30 (fun i -> i)))

let test_stg_errors () =
  let fails s =
    try
      ignore (Stg.parse s);
      false
    with Failure _ -> true
  in
  check_bool "empty" true (fails "");
  check_bool "bad count" true (fails "x\n");
  check_bool "missing lines" true (fails "3\n0 1 0\n");
  check_bool "id disorder" true (fails "2\n1 1 0\n0 1 0\n");
  check_bool "pred count mismatch" true (fails "2\n0 1 0\n1 1 2 0\n");
  check_bool "pred out of range" true (fails "2\n0 1 0\n1 1 1 7\n");
  check_bool "cycle via self" true (fails "1\n0 1 1 0\n")

(* the builder's eager duplicate check lets the parser name the line *)
let test_stg_duplicate_edge_line () =
  Alcotest.check_raises "duplicate edge"
    (Failure "STG line 4: Dag.Builder.add_edge: duplicate edge") (fun () ->
      ignore (Stg.parse "# header comment\n2\n0 1 0\n1 1 2 0 0\n"))

let test_stg_edge_volume () =
  let g, _ = Stg.parse ~edge_volume:42. sample_stg in
  check_float "volume" 42. (Dag.edge_volume g 0)

(* ------------------------------------------------------------------ *)
(* DOT                                                                 *)

let test_dot_output () =
  let g = chain3 () in
  let dot = Dot.to_dot ~name:"test" g in
  check_bool "digraph" true (contains dot "digraph \"test\"");
  check_bool "node" true (contains dot "n0 [label=\"a\"]");
  check_bool "edge" true (contains dot "n0 -> n1");
  check_bool "volume label" true (contains dot "label=\"1\"")

let test_dot_escaping () =
  let b = Dag.Builder.create () in
  let _ = Dag.Builder.add_task ~label:"with \"quote\"" b in
  let g = Dag.Builder.build b in
  let dot = Dot.to_dot g in
  check_bool "escaped" true (contains dot "\\\"quote\\\"")

let () =
  Alcotest.run "dag"
    [
      ( "builder",
        [
          Alcotest.test_case "basic" `Quick test_builder_basic;
          Alcotest.test_case "rejects cycle" `Quick test_builder_rejects_cycle;
          Alcotest.test_case "rejects self loop" `Quick test_builder_rejects_self_loop;
          Alcotest.test_case "rejects duplicate" `Quick test_builder_rejects_duplicate;
          Alcotest.test_case "rejects bad volume" `Quick test_builder_rejects_bad_volume;
          Alcotest.test_case "rejects unknown task" `Quick test_builder_rejects_unknown_task;
          Alcotest.test_case "iter_succs/iter_preds on a chain" `Quick
            test_iter_chain;
          Alcotest.test_case "total_volume" `Quick test_total_volume;
          quick prop_topo_order_valid;
          quick prop_succs_preds_dual;
          quick prop_edge_endpoints_consistent;
        ] );
      ( "properties",
        [
          Alcotest.test_case "depth of chain" `Quick test_depth_chain;
          Alcotest.test_case "level sizes" `Quick test_level_sizes;
          Alcotest.test_case "width bound" `Quick test_width_bound_fork_join;
          Alcotest.test_case "longest path" `Quick test_longest_path_chain;
          Alcotest.test_case "critical path tasks" `Quick test_critical_path_tasks;
          Alcotest.test_case "connectivity" `Quick test_connectivity;
          Alcotest.test_case "transitive edges" `Quick test_transitive_edges;
          quick prop_critical_path_achieves_length;
        ] );
      ( "generators",
        [
          quick prop_layered_size_and_connect;
          quick prop_layered_no_isolated_task;
          Alcotest.test_case "erdos extremes" `Quick test_erdos_extremes;
          Alcotest.test_case "fork-join shape" `Quick test_fork_join_shape;
          quick prop_out_tree;
          quick prop_pegasus_shape;
          Alcotest.test_case "chain" `Quick test_chain_gen;
          quick prop_volume_in_range;
          Alcotest.test_case "reject bad counts" `Quick
            test_generators_reject_bad_counts;
          Alcotest.test_case "reject bad volumes" `Quick
            test_generators_reject_bad_volumes;
          Alcotest.test_case "pinned edge lists" `Quick test_generator_pins;
        ] );
      ( "csr",
        [ quick prop_csr_matches_reference; quick prop_entries_exits ] );
      ( "classic",
        [
          Alcotest.test_case "gauss" `Quick test_gauss_structure;
          Alcotest.test_case "fft" `Quick test_fft_structure;
          Alcotest.test_case "fft non-power" `Quick test_fft_rejects_non_power;
          Alcotest.test_case "wavefront" `Quick test_wavefront_structure;
          Alcotest.test_case "diamond" `Quick test_diamond_structure;
          Alcotest.test_case "cholesky" `Quick test_cholesky_structure;
        ]
        @ List.map
            (fun (name, f) -> Alcotest.test_case name `Quick f)
            classic_rejections );
      ( "stg",
        [
          Alcotest.test_case "parse" `Quick test_stg_parse;
          Alcotest.test_case "roundtrip" `Quick test_stg_roundtrip;
          Alcotest.test_case "errors" `Quick test_stg_errors;
          Alcotest.test_case "duplicate edge names its line" `Quick
            test_stg_duplicate_edge_line;
          Alcotest.test_case "edge volume" `Quick test_stg_edge_volume;
          quick prop_stg_roundtrip_random;
        ] );
      ( "dot",
        [
          Alcotest.test_case "output" `Quick test_dot_output;
          Alcotest.test_case "escaping" `Quick test_dot_escaping;
        ] );
    ]
