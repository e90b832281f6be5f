(* Tests for Ftsched_serve: wire protocol, LRU cache, hardened
   Serialize caps, shared CLI converters, and the crash-only server
   itself — a concurrent chaos soak against an in-process server with
   the accounting oracle, file-descriptor stability, and byte-identical
   responses across worker-pool sizes. *)

module Protocol = Ftsched_serve.Protocol
module Cache = Ftsched_serve.Cache
module Server = Ftsched_serve.Server
module Chaos = Ftsched_serve.Chaos_client
module Serialize = Ftsched_schedule.Serialize
module Converters = Ftsched_cli.Converters
open Helpers

(* ------------------------------------------------------------------ *)
(* Protocol framing                                                    *)

let feed_all reader s =
  let b = Bytes.of_string s in
  Protocol.reader_feed reader b (Bytes.length b)

let test_frame_roundtrip () =
  let payload = "schedule ftsa 1 0 infinity\nftsched v1\ninstance 0 1 0" in
  let reader = Protocol.create_reader () in
  feed_all reader (Protocol.encode_frame payload);
  (match Protocol.reader_next reader with
  | `Frame p -> Alcotest.(check string) "payload" payload p
  | _ -> Alcotest.fail "expected a frame");
  match Protocol.reader_next reader with
  | `More -> ()
  | _ -> Alcotest.fail "expected More after the only frame"

let test_frame_split_feed () =
  let payload = String.make 1000 'x' in
  let frame = Protocol.encode_frame payload in
  let reader = Protocol.create_reader () in
  String.iteri
    (fun i c ->
      (match Protocol.reader_next reader with
      | `More -> ()
      | _ when i < String.length frame - 1 ->
          Alcotest.fail "frame completed early"
      | _ -> ());
      feed_all reader (String.make 1 c))
    frame;
  match Protocol.reader_next reader with
  | `Frame p -> Alcotest.(check string) "payload survives 1-byte feeds" payload p
  | _ -> Alcotest.fail "expected a frame after the last byte"

let test_frame_bad_magic () =
  let reader = Protocol.create_reader () in
  feed_all reader "XXXX\x00\x00\x00\x01a";
  (match Protocol.reader_next reader with
  | `Error Protocol.Bad_magic -> ()
  | _ -> Alcotest.fail "expected Bad_magic");
  (* poisoned: further feeds never produce frames *)
  feed_all reader (Protocol.encode_frame "health");
  match Protocol.reader_next reader with
  | `More -> ()
  | _ -> Alcotest.fail "poisoned reader must stay silent"

let test_frame_too_large () =
  let reader = Protocol.create_reader ~max_frame:64 () in
  feed_all reader "FTSB\x00\x01\x00\x00";
  match Protocol.reader_next reader with
  | `Error (Protocol.Frame_too_large { declared; limit }) ->
      check_int "declared" 65536 declared;
      check_int "limit" 64 limit
  | _ -> Alcotest.fail "expected Frame_too_large before any payload byte"

let test_parse_request () =
  (match Protocol.parse_request "schedule ftsa 1 7 infinity\nbody" with
  | Ok (Protocol.Schedule { algo; eps; seed; body }, budget) ->
      Alcotest.(check string) "algo" "ftsa" algo;
      check_int "eps" 1 eps;
      check_int "seed" 7 seed;
      Alcotest.(check string) "body" "body" body;
      check_bool "budget" true (budget = infinity)
  | _ -> Alcotest.fail "schedule request must parse");
  let is_malformed s =
    match Protocol.parse_request s with
    | Error (Protocol.Malformed _) -> true
    | _ -> false
  in
  check_bool "negative eps" true (is_malformed "schedule ftsa -1 0 1.0\nx");
  check_bool "zero budget" true (is_malformed "schedule ftsa 1 0 0\nx");
  check_bool "missing args" true (is_malformed "simulate 1\nx");
  check_bool "empty" true (is_malformed "");
  match Protocol.parse_request "frobnicate 1" with
  | Error (Protocol.Unsupported _) -> ()
  | _ -> Alcotest.fail "unknown tag must be Unsupported"

(* ------------------------------------------------------------------ *)
(* LRU cache                                                           *)

let test_cache_lru () =
  let c = Cache.create ~slots:2 in
  Cache.add c "a" "1";
  Cache.add c "b" "2";
  check_bool "a hit" true (Cache.find c "a" = Some "1");
  Cache.add c "c" "3" (* evicts b, the least recently used *);
  check_bool "b evicted" true (Cache.find c "b" = None);
  check_bool "a kept" true (Cache.find c "a" = Some "1");
  check_bool "c kept" true (Cache.find c "c" = Some "3");
  check_int "length bounded" 2 (Cache.length c);
  check_int "hits" 3 (Cache.hits c);
  check_int "misses" 1 (Cache.misses c);
  Alcotest.check_raises "slots must be positive"
    (Invalid_argument "Cache.create: slots must be positive") (fun () ->
      ignore (Cache.create ~slots:0))

(* ------------------------------------------------------------------ *)
(* Hardened Serialize caps                                             *)

let rejects doc =
  match Serialize.instance_of_string doc with
  | exception Invalid_argument _ -> true
  | exception Failure _ -> true
  | _ -> false

let rejects_with_cap doc =
  match Serialize.instance_of_string doc with
  | exception Invalid_argument msg ->
      check_bool
        (Printf.sprintf "descriptive message %S" msg)
        true
        (String.length msg > 10);
      true
  | exception Failure _ -> false
  | _ -> false

let test_serialize_caps () =
  check_bool "huge task count" true
    (rejects_with_cap "ftsched v1\ninstance 999999999 2 0");
  check_bool "huge edge count" true
    (rejects_with_cap "ftsched v1\ninstance 2 2 999999999");
  check_bool "huge proc count" true
    (rejects_with_cap "ftsched v1\ninstance 2 999999 0");
  check_bool "negative count" true
    (rejects_with_cap "ftsched v1\ninstance -1 2 0");
  check_bool "zero procs" true (rejects "ftsched v1\ninstance 1 0 0");
  (* counts above the input actually present, though below the caps *)
  check_bool "counts exceed remaining input" true
    (rejects_with_cap "ftsched v1\ninstance 1000 4 0\nlabel t0");
  (* oversized label *)
  let big_label = String.make (Serialize.max_label_length + 1) 'x' in
  check_bool "oversized label" true
    (rejects_with_cap
       (Printf.sprintf "ftsched v1\ninstance 1 1 0\nlabel %s\ndelay 1\nexec 1"
          big_label));
  (* the caps themselves are exported and sane *)
  check_bool "caps exported" true
    (Serialize.max_tasks > 0 && Serialize.max_procs > 0
    && Serialize.max_edges > 0
    && Serialize.max_label_length > 0);
  (* a pristine round-trip still works *)
  let inst = random_instance ~n_tasks:12 ~m:3 ~seed:5 () in
  let doc = Serialize.instance_to_string inst in
  check_bool "round-trip unaffected" true
    (Serialize.instance_to_string (Serialize.instance_of_string doc) = doc)

(* ------------------------------------------------------------------ *)
(* Shared CLI converters                                               *)

let conv_ok conv s =
  match Cmdliner.Arg.conv_parser conv s with Ok _ -> true | Error _ -> false

let conv_msg conv s =
  match Cmdliner.Arg.conv_parser conv s with
  | Error (`Msg m) -> m
  | Ok _ -> ""

let test_converters () =
  check_bool "pos_int 4" true (conv_ok Converters.pos_int "4");
  check_bool "pos_int 0" false (conv_ok Converters.pos_int "0");
  check_bool "pos_int -3" false (conv_ok Converters.pos_int "-3");
  check_bool "pos_int junk" false (conv_ok Converters.pos_int "four");
  check_bool "nonneg_int 0" true (conv_ok Converters.nonneg_int "0");
  check_bool "nonneg_int -1" false (conv_ok Converters.nonneg_int "-1");
  check_bool "prob 0.5" true (conv_ok Converters.prob "0.5");
  check_bool "prob 1.5" false (conv_ok Converters.prob "1.5");
  check_bool "prob -0.1" false (conv_ok Converters.prob "-0.1");
  check_bool "pos_float 2.5" true (conv_ok Converters.pos_float "2.5");
  check_bool "pos_float 0" false (conv_ok Converters.pos_float "0");
  check_bool "pos_float inf" false (conv_ok Converters.pos_float "inf");
  check_bool "nonneg_float 0" true (conv_ok Converters.nonneg_float "0");
  check_bool "nonneg_float nan" false (conv_ok Converters.nonneg_float "nan");
  (* errors are descriptive, not bare parse failures *)
  check_bool "descriptive positive-int error" true
    (conv_msg Converters.pos_int "0" = "expected a positive integer");
  check_bool "descriptive probability error" true
    (conv_msg Converters.prob "2" = "expected a probability in [0, 1]")

(* ------------------------------------------------------------------ *)
(* Parser-safety oracle                                                *)

let test_parser_oracle () =
  for seed = 0 to 5 do
    let v1 = Ftsched_fuzz.Fuzz.check_parser ~seed in
    let v2 = Ftsched_fuzz.Fuzz.check_parser ~seed in
    check_int
      (Printf.sprintf "seed %d clean" seed)
      0 (List.length v1);
    check_int "deterministic" (List.length v1) (List.length v2)
  done

(* ------------------------------------------------------------------ *)
(* Soak: concurrent chaos clients vs an in-process server              *)

let count_fds () = Array.length (Sys.readdir "/proc/self/fd")

let test_soak () =
  let fds_before = count_fds () in
  let report = Chaos.self_test ~jobs:2 ~threads:4 ~seeds:12 () in
  let o = report.Chaos.outcome in
  check_int "12 sessions ran" 12 o.Chaos.sessions;
  check_bool "requests were sent" true (o.Chaos.requests_sent > 50);
  check_bool "identity checks ran" true (o.Chaos.identity_checks > 0);
  Alcotest.(check (list string)) "no client-side violations" []
    o.Chaos.violations;
  Alcotest.(check (list string)) "accounting oracle clean" []
    report.Chaos.accounting;
  let m = report.Chaos.metrics in
  check_bool "work was accepted" true (m.Server.requests_accepted > 0);
  check_bool "cache was exercised" true (m.Server.cache_hits > 0);
  let fds_after = count_fds () in
  check_int "no leaked file descriptors" fds_before fds_after

(* ------------------------------------------------------------------ *)
(* Byte-identical responses across worker-pool sizes                   *)

let with_server ~jobs f =
  let path = Filename.temp_file "ftsched-test-" ".sock" in
  Sys.remove path;
  let config =
    { Server.default_config with Server.jobs = Some jobs; capacity = 32 }
  in
  let server = Server.create ~config (Server.Unix_socket path) in
  let thread = Thread.create (fun () -> ignore (Server.serve server)) () in
  Fun.protect
    ~finally:(fun () ->
      Server.stop server;
      Thread.join thread;
      if Sys.file_exists path then Sys.remove path)
    (fun () -> f (Server.Unix_socket path))

let send_and_collect address payloads =
  let fd =
    match address with
    | Server.Unix_socket path ->
        let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX path);
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
        fd
    | Server.Tcp _ -> Alcotest.fail "unix sockets only in this test"
  in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  let reader = Protocol.create_reader () in
  let buf = Bytes.create 4096 in
  List.map
    (fun payload ->
      let frame = Protocol.encode_frame payload in
      let n = String.length frame in
      let off = ref 0 in
      while !off < n do
        off := !off + Unix.write_substring fd frame !off (n - !off)
      done;
      let rec read_one () =
        match Protocol.reader_next reader with
        | `Frame p -> p
        | `Error _ -> Alcotest.fail "client framing broke"
        | `More -> (
            match Unix.read fd buf 0 (Bytes.length buf) with
            | 0 -> Alcotest.fail "server closed mid-response"
            | k ->
                Protocol.reader_feed reader buf k;
                read_one ())
      in
      read_one ())
    payloads

let test_jobs_identical_responses () =
  let payloads =
    List.concat_map
      (fun seed ->
        let inst = random_instance ~n_tasks:15 ~m:4 ~seed () in
        let doc = Serialize.instance_to_string inst in
        let sched =
          Serialize.schedule_to_string
            (Ftsched_core.Ftsa.schedule ~seed inst ~eps:1)
        in
        [
          Printf.sprintf "schedule ftsa 1 %d infinity\n%s" seed doc;
          Printf.sprintf "schedule heft 0 0 infinity\n%s" doc;
          Printf.sprintf "simulate 1 %d infinity\n%s" seed sched;
          Printf.sprintf "stream %d 6.0 4 infinity" seed;
        ])
      [ 11; 22; 33 ]
  in
  let r1 = with_server ~jobs:1 (fun a -> send_and_collect a payloads) in
  let r4 = with_server ~jobs:4 (fun a -> send_and_collect a payloads) in
  List.iteri
    (fun i (a, b) ->
      Alcotest.(check string)
        (Printf.sprintf "response %d identical for -j 1 and -j 4" i)
        a b)
    (List.combine r1 r4);
  (* and every response is a typed ok *)
  List.iter
    (fun r ->
      match Protocol.classify_response r with
      | `Ok _ -> ()
      | `Error (code, detail) ->
          Alcotest.fail (Printf.sprintf "typed error %s: %s" code detail)
      | `Junk -> Alcotest.fail "junk response")
    r1

(* The daemon serves the whole scheduler catalogue: a [schedule] request
   for every registry name answers with that scheduler's own plan, byte
   for byte. *)
let test_schedule_every_registry_name () =
  let inst = random_instance ~n_tasks:12 ~m:4 ~seed:5 () in
  let doc = Serialize.instance_to_string inst in
  let names = Ftsched_core.Schedulers.names in
  let responses =
    with_server ~jobs:2 (fun a ->
        send_and_collect a
          (List.map
             (fun name -> Printf.sprintf "schedule %s 1 7 infinity\n%s" name doc)
             names))
  in
  List.iter2
    (fun name r ->
      let sched = Option.get (Ftsched_core.Schedulers.find name) in
      let expected =
        Serialize.schedule_to_string
          (sched.Ftsched_core.Schedulers.run ~seed:7 inst ~eps:1)
      in
      match Protocol.classify_response r with
      | `Ok (kind, body) ->
          Alcotest.(check string) (name ^ " response kind") "schedule" kind;
          Alcotest.(check string) (name ^ " plan") expected body
      | `Error (code, detail) ->
          Alcotest.failf "%s: typed error %s: %s" name code detail
      | `Junk -> Alcotest.failf "%s: junk response" name)
    names responses

(* A plan whose replica times are NaN or infinite is not a plan: the
   daemon answers [simulate] on it with a typed [malformed] error rather
   than replaying it. *)
let test_simulate_nonfinite_times () =
  let inst = random_instance ~n_tasks:10 ~m:4 ~seed:3 () in
  let doc =
    Serialize.schedule_to_string (Ftsched_core.Ftsa.schedule ~seed:3 inst ~eps:1)
  in
  let with_times word =
    let seen = ref false in
    String.split_on_char '\n' doc
    |> List.map (fun l ->
           match String.split_on_char ' ' l with
           | "replica" :: task :: index :: proc :: _ when not !seen ->
               seen := true;
               String.concat " " [ "replica"; task; index; proc; word; word; word; word ]
           | _ -> l)
    |> String.concat "\n"
  in
  let words = [ "nan"; "infinity"; "-infinity" ] in
  let responses =
    with_server ~jobs:1 (fun a ->
        send_and_collect a
          (List.map
             (fun w -> Printf.sprintf "simulate 1 3 infinity\n%s" (with_times w))
             words))
  in
  List.iter2
    (fun word r ->
      match Protocol.classify_response r with
      | `Error ("malformed", detail) ->
          Alcotest.(check string) (word ^ " detail")
            "Schedule.create: replica time not finite" detail
      | `Error (code, detail) -> Alcotest.failf "%s: %s: %s" word code detail
      | `Ok _ -> Alcotest.failf "%s: a non-finite plan was replayed" word
      | `Junk -> Alcotest.failf "%s: junk response" word)
    words responses

(* Finite exec costs whose sums overflow give a plan with infinite
   times: that is the request's fault, so [schedule] answers [malformed],
   not [internal]. *)
let test_schedule_overflowing_costs () =
  let b = Dag.Builder.create () in
  let t0 = Dag.Builder.add_task b in
  let t1 = Dag.Builder.add_task b in
  Dag.Builder.add_edge b ~src:t0 ~dst:t1 ~volume:1.;
  let inst =
    Instance.create ~dag:(Dag.Builder.build b)
      ~platform:(Platform.homogeneous ~m:2 ~unit_delay:0.5)
      ~exec:(Array.make_matrix 2 2 1.5e308)
  in
  let doc = Serialize.instance_to_string inst in
  let responses =
    with_server ~jobs:1 (fun a ->
        send_and_collect a
          [ Printf.sprintf "schedule ftsa 1 0 infinity\n%s" doc ])
  in
  match List.map Protocol.classify_response responses with
  | [ `Error ("malformed", detail) ] ->
      Alcotest.(check string) "detail"
        "Schedule.create: replica time not finite" detail
  | [ `Error (code, detail) ] -> Alcotest.failf "%s: %s" code detail
  | [ `Ok _ ] -> Alcotest.fail "an overflowing plan was served"
  | _ -> Alcotest.fail "expected one response"

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "frame roundtrip" `Quick test_frame_roundtrip;
          Alcotest.test_case "split feeds" `Quick test_frame_split_feed;
          Alcotest.test_case "bad magic poisons" `Quick test_frame_bad_magic;
          Alcotest.test_case "too-large before alloc" `Quick
            test_frame_too_large;
          Alcotest.test_case "request parsing" `Quick test_parse_request;
        ] );
      ("cache", [ Alcotest.test_case "lru" `Quick test_cache_lru ]);
      ( "hardening",
        [
          Alcotest.test_case "serialize caps" `Quick test_serialize_caps;
          Alcotest.test_case "parser-safety oracle" `Quick test_parser_oracle;
        ] );
      ( "converters",
        [ Alcotest.test_case "shared validators" `Quick test_converters ] );
      ( "server",
        [
          Alcotest.test_case "chaos soak" `Quick test_soak;
          Alcotest.test_case "jobs-count response identity" `Quick
            test_jobs_identical_responses;
          Alcotest.test_case "schedules every registry name" `Quick
            test_schedule_every_registry_name;
          Alcotest.test_case "simulate rejects non-finite times" `Quick
            test_simulate_nonfinite_times;
          Alcotest.test_case "schedule rejects overflowing costs" `Quick
            test_schedule_overflowing_costs;
        ] );
    ]
