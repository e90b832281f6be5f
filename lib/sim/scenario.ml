module Rng = Ftsched_util.Rng

type t = { failed : int array }

let none = { failed = [||] }

let of_list procs =
  let arr = Array.of_list procs in
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Array.iteri
    (fun i p ->
      if p < 0 then invalid_arg "Scenario.of_list: negative processor";
      if i > 0 && sorted.(i - 1) = p then
        invalid_arg "Scenario.of_list: duplicate processor")
    sorted;
  { failed = arr }

let random rng ~m ~count =
  if count < 0 || count > m then invalid_arg "Scenario.random";
  { failed = Rng.sample_distinct rng ~k:count ~n:m }

let all_of_size ~m ~count =
  if count < 0 || count > m then invalid_arg "Scenario.all_of_size";
  let rec choose lo k =
    if k = 0 then [ [] ]
    else
      List.concat_map
        (fun p -> List.map (fun rest -> p :: rest) (choose (p + 1) (k - 1)))
        (List.init (m - lo) (fun i -> lo + i))
  in
  List.map (fun l -> { failed = Array.of_list l }) (choose 0 count)

let n_of_size ~m ~count =
  let rec go acc n r =
    if r = 0 then acc else go (acc * n / (count - r + 1)) (n - 1) (r - 1)
  in
  if count < 0 || count > m then 0 else go 1 m count

type timed = { proc : int; at : float }

let random_timed rng ~m ~count ~horizon =
  let procs = Rng.sample_distinct rng ~k:count ~n:m in
  Array.to_list
    (Array.map (fun proc -> { proc; at = Rng.float_in rng 0. horizon }) procs)

let exponential rng ~rates =
  let m = Array.length rates in
  let fail_times = Array.make m infinity in
  (* One draw per processor with a positive rate, in processor order —
     rate-0 processors consume no randomness, so adding reliable
     processors to a platform does not shift the stream of the others. *)
  for p = 0 to m - 1 do
    let r = rates.(p) in
    if r < 0. then invalid_arg "Scenario.exponential: negative rate";
    if r > 0. then fail_times.(p) <- Rng.exponential rng ~mean:(1. /. r)
  done;
  fail_times

let exponential_timed rng ~rates ~horizon =
  if horizon < 0. then invalid_arg "Scenario.exponential_timed";
  let fail_times = exponential rng ~rates in
  List.filter_map
    (fun proc ->
      let at = fail_times.(proc) in
      if at < horizon then Some { proc; at } else None)
    (List.init (Array.length rates) (fun p -> p))

let pp ppf t =
  Format.fprintf ppf "failed{%s}"
    (String.concat "," (Array.to_list (Array.map string_of_int t.failed)))

type outage = { link_src : int; link_dst : int; from_t : float; until_t : float }

type comm_faults = {
  loss : float;
  outages : outage list;
  retries : int;
  rtt_factor : float;
  seed : int;
}

let outage ~src ~dst ~from_t ~until_t =
  if src < 0 || dst < 0 then invalid_arg "Scenario.outage: negative processor";
  if src = dst then invalid_arg "Scenario.outage: intra-processor link";
  if from_t < 0. || until_t < from_t || Float.is_nan from_t then
    invalid_arg "Scenario.outage: window";
  { link_src = src; link_dst = dst; from_t; until_t }

let blackout ~src ~dst = outage ~src ~dst ~from_t:0. ~until_t:infinity

let reliable =
  { loss = 0.; outages = []; retries = 0; rtt_factor = 2.; seed = 0 }

let lossy ?(loss = 0.) ?(outages = []) ?(retries = 3) ?(rtt_factor = 2.)
    ?(seed = 0) () =
  if not (loss >= 0. && loss <= 1.) then
    invalid_arg "Scenario.lossy: loss probability outside [0, 1]";
  if retries < 0 then invalid_arg "Scenario.lossy: negative retries";
  if not (rtt_factor >= 1.) then invalid_arg "Scenario.lossy: rtt_factor < 1";
  { loss; outages; retries; rtt_factor; seed }

let is_reliable f = f.loss = 0. && f.outages = []

(* A plain scan: no closure per call on the lossy channel's path. *)
let rec outage_at ~src ~dst ~at = function
  | [] -> false
  | o :: rest ->
      (o.link_src = src && o.link_dst = dst && o.from_t <= at && at < o.until_t)
      || outage_at ~src ~dst ~at rest

let in_outage f ~src ~dst ~at = outage_at ~src ~dst ~at f.outages

let pp_comm_faults ppf f =
  Format.fprintf ppf "loss=%g retries=%d rtt=%g" f.loss f.retries f.rtt_factor;
  List.iter
    (fun o ->
      Format.fprintf ppf " outage(%d->%d)[%g,%g)" o.link_src o.link_dst
        o.from_t o.until_t)
    f.outages
