(* [compare]: parent runs against change runs, per (workload, metric).

   Each side is summarised by its median and quartiles.  Runs are paired
   by seed (by position when seeds do not pair up), and the verdict
   follows the rule the benchmark was built for:

   - improved: the change wins at least nine tenths of the pairs (ties
     count for neither) and the medians differ by more than the parent's
     own spread (the distance between its quartiles);
   - regressed: the change's median is worse than the parent's by more
     than the metric's bound, or, for a metric without a bound, it loses
     nine tenths of the pairs by more than the parent's spread;
   - unresolved: the parent's own spread is wider than the bound, so
     "within the bound" cannot be told from noise, unless every run of
     the change reads better than every run of the parent;
   - unchanged: otherwise. *)

type direction = Lower | Higher

type spec = {
  unit_ : string;
  better : direction;
  bound : float option;  (** share of the parent's median; end-to-end only *)
}

type verdict = Improved | Unchanged | Regressed | Unresolved

let verdict_name = function
  | Improved -> "improved"
  | Unchanged -> "unchanged"
  | Regressed -> "regressed"
  | Unresolved -> "unresolved"

type side = { median : float; q1 : float; q3 : float }

let summarise xs =
  let q1, median, q3 = Stats.quartiles xs in
  { median; q1; q3 }

(* Is [x] better than [y] in this metric's direction? *)
let better_than spec x y =
  match spec.better with Lower -> x < y | Higher -> x > y

(* [pairs] are (parent, change) values of the same seed. *)
let verdict spec ~parent ~change ~pairs =
  let a = summarise parent and b = summarise change in
  let n = List.length pairs in
  let wins = List.length (List.filter (fun (p, c) -> better_than spec c p) pairs) in
  let losses = List.length (List.filter (fun (p, c) -> better_than spec p c) pairs) in
  let iqr = a.q3 -. a.q1 in
  let apart = Float.abs (b.median -. a.median) > iqr in
  let worse_by =
    (* relative worsening of the change's median; negative = better *)
    let d = (b.median -. a.median) /. Float.abs a.median in
    match spec.better with Lower -> d | Higher -> -.d
  in
  let dominates =
    List.for_all (fun c -> List.for_all (fun p -> better_than spec c p) parent) change
  in
  if n > 0 && 10 * wins >= 9 * n && apart then Improved
  else
    match spec.bound with
    | Some bound ->
        if worse_by > bound then Regressed
        else if iqr /. Float.abs a.median > bound && not dominates then Unresolved
        else Unchanged
    | None -> if n > 0 && 10 * losses >= 9 * n && apart then Regressed else Unchanged

(* ------------------------------------------------------------------ *)
(* Files                                                               *)

type run = {
  workload : string;
  seed : int;
  commit : string;
  ocaml : string;
  nproc : int;
  date : string;
  reps : int;
  values : (string * float) list;
}

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      really_input_string ic (in_channel_length ic))

let load path =
  let j = Json.of_string (String.trim (read_file path)) in
  let str k = Option.value (Json.to_str (Json.member k j)) ~default:"?" in
  let num k = Option.value (Json.to_num (Json.member k j)) ~default:nan in
  let values =
    match Json.member "metrics" j with
    | Json.Obj l ->
        List.filter_map
          (fun (k, v) -> Option.map (fun x -> (k, x)) (Json.to_num (Json.member "value" v)))
          l
    | _ -> failwith (path ^ ": no metrics")
  in
  {
    workload = str "workload";
    seed = int_of_float (num "seed");
    commit = str "commit";
    ocaml = str "ocaml";
    nproc = int_of_float (num "nproc");
    date = str "date";
    reps = int_of_float (num "reps");
    values;
  }

(* Metric directions and bounds, from BENCHMARK.json. *)
let load_specs path =
  let j = Json.of_string (read_file path) in
  let entries key ~bounded =
    match Json.member key j with
    | Json.Arr l ->
        List.map
          (fun e ->
            let name = Option.get (Json.to_str (Json.member "name" e)) in
            let better =
              match Json.to_str (Json.member "better" e) with
              | Some "higher" -> Higher
              | _ -> Lower
            in
            ( name,
              {
                unit_ = Option.value (Json.to_str (Json.member "unit" e)) ~default:"";
                better;
                bound = (if bounded then Json.to_num (Json.member "bound" e) else None);
              } ))
          l
    | _ -> []
  in
  entries "end_to_end" ~bounded:true @ entries "per_layer" ~bounded:false

(* Pair runs by seed when both sides hold the same seeds, else by order. *)
let pair parent change =
  let seeds rs = List.sort compare (List.map (fun r -> r.seed) rs) in
  if seeds parent = seeds change
     && List.length (List.sort_uniq compare (seeds parent)) = List.length parent
  then
    List.map (fun p -> (p, List.find (fun c -> c.seed = p.seed) change)) parent
  else
    let rec zip a b =
      match (a, b) with x :: a, y :: b -> (x, y) :: zip a b | _ -> []
    in
    zip parent change

let provenance label runs =
  let uniq f = String.concat ", " (List.sort_uniq compare (List.map f runs)) in
  let ints f =
    String.concat ", "
      (List.map string_of_int (List.sort_uniq compare (List.map f runs)))
  in
  let dates = List.sort compare (List.map (fun r -> r.date) runs) in
  Printf.printf "%s: %d run(s); commit %s; ocaml %s; nproc %s; reps %s; seeds %s; %s .. %s\n"
    label (List.length runs) (uniq (fun r -> r.commit)) (uniq (fun r -> r.ocaml))
    (ints (fun r -> r.nproc)) (ints (fun r -> r.reps)) (ints (fun r -> r.seed))
    (List.hd dates)
    (List.nth dates (List.length dates - 1))

(* Returns the number of regressions found. *)
let main ~specs parent change =
  let specs = load_specs specs in
  let parent = List.map load parent and change = List.map load change in
  provenance "parent" parent;
  if change <> [] then provenance "change" change;
  let workloads = List.sort_uniq compare (List.map (fun r -> r.workload) parent) in
  let regressions = ref 0 in
  List.iter
    (fun w ->
      let ps = List.filter (fun r -> r.workload = w) parent in
      let cs = List.filter (fun r -> r.workload = w) change in
      Printf.printf "\n== %s ==\n" w;
      let names = List.sort_uniq compare (List.concat_map (fun r -> List.map fst r.values) ps) in
      List.iter
        (fun name ->
          let value r = List.assoc_opt name r.values in
          let pv = List.filter_map value ps in
          let spec =
            match List.assoc_opt name specs with
            | Some s -> s
            | None -> { unit_ = ""; better = Lower; bound = None }
          in
          let a = summarise pv in
          let bound =
            match spec.bound with Some b -> Printf.sprintf "%.0f%%" (100. *. b) | None -> "-"
          in
          let spread =
            if a.median = 0. then 0. else 100. *. (a.q3 -. a.q1) /. Float.abs a.median
          in
          match List.filter_map value cs with
          | [] ->
              Printf.printf "  %-30s %12.6g [%.6g, %.6g] %-6s spread %5.1f%% bound %s\n" name
                a.median a.q1 a.q3 spec.unit_ spread bound
          | cv ->
              let pairs =
                List.filter_map
                  (fun (p, c) ->
                    match (value p, value c) with Some x, Some y -> Some (x, y) | _ -> None)
                  (pair ps cs)
              in
              let b = summarise cv in
              let v = verdict spec ~parent:pv ~change:cv ~pairs in
              if v = Regressed then incr regressions;
              let wins =
                List.length (List.filter (fun (p, c) -> better_than spec c p) pairs)
              in
              let change_pct =
                if a.median = 0. then 0.
                else 100. *. (b.median -. a.median) /. Float.abs a.median
              in
              Printf.printf
                "  %-30s %12.6g [%.6g, %.6g] -> %12.6g [%.6g, %.6g] %-6s %+6.1f%% \
                 wins %d/%d bound %s  %s\n"
                name a.median a.q1 a.q3 b.median b.q1 b.q3 spec.unit_ change_pct wins
                (List.length pairs) bound (verdict_name v))
        names)
    workloads;
  !regressions
