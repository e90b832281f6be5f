let parse ?(edge_volume = 1.0) text =
  let lines = String.split_on_char '\n' text in
  let data =
    List.filteri (fun _ _ -> true) lines
    |> List.mapi (fun i l -> (i + 1, String.trim l))
    |> List.filter (fun (_, l) -> l <> "" && l.[0] <> '#')
  in
  let fail line fmt =
    Printf.ksprintf (fun s -> failwith (Printf.sprintf "STG line %d: %s" line s)) fmt
  in
  let words l = String.split_on_char ' ' l |> List.filter (fun w -> w <> "") in
  let int_of line w =
    try int_of_string w with _ -> fail line "bad integer %S" w
  in
  let float_of line w =
    try float_of_string w with _ -> fail line "bad number %S" w
  in
  match data with
  | [] -> failwith "STG: empty input"
  | (hline, header) :: rest ->
      let n =
        match words header with
        | [ w ] -> int_of hline w
        | _ -> fail hline "expected the task count alone"
      in
      if n <= 0 then fail hline "task count must be positive";
      if List.length rest < n then
        failwith (Printf.sprintf "STG: expected %d task lines, got %d" n (List.length rest));
      let b = Dag.Builder.create ~expected_tasks:n () in
      let ids = Array.init n (fun i -> i) in
      Array.iter (fun i -> ignore (Dag.Builder.add_task ~label:(Printf.sprintf "stg%d" i) b)) ids;
      let costs = Array.make n 0. in
      List.iteri
        (fun idx (line, l) ->
          if idx < n then begin
            match words l with
            | id :: cost :: npred :: preds ->
                let id = int_of line id in
                if id <> idx then fail line "task ids must be 0..n-1 in order";
                costs.(id) <- float_of line cost;
                if costs.(id) < 0. then fail line "negative cost";
                let npred = int_of line npred in
                if List.length preds <> npred then
                  fail line "predecessor count mismatch";
                List.iter
                  (fun p ->
                    let p = int_of line p in
                    if p < 0 || p >= n then fail line "predecessor out of range";
                    try Dag.Builder.add_edge b ~src:p ~dst:id ~volume:edge_volume
                    with Invalid_argument m -> fail line "%s" m)
                  preds
            | _ -> fail line "expected <id> <cost> <npred> <preds…>"
          end)
        rest;
      let dag =
        try Dag.Builder.build b
        with Invalid_argument m -> failwith ("STG: " ^ m)
      in
      (dag, costs)

let to_string dag ~costs =
  let n = Dag.n_tasks dag in
  if Array.length costs <> n then invalid_arg "Stg.to_string: costs size";
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Printf.sprintf "%d\n" n);
  for t = 0 to n - 1 do
    Buffer.add_string buf
      (Printf.sprintf "%d %g %d" t costs.(t) (Dag.in_degree dag t));
    Dag.iter_preds dag t (fun _ p _ ->
        Buffer.add_string buf (Printf.sprintf " %d" p));
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf

let load ?edge_volume path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> parse ?edge_volume (really_input_string ic (in_channel_length ic)))

let save dag ~costs ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string dag ~costs))
