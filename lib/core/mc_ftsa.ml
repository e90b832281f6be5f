module Rng = Ftsched_util.Rng

type strategy = Greedy | Bottleneck | Redundant of int

let schedule ?(seed = 0) ?rng ?(strategy = Greedy) ?trace inst ~eps =
  let rng = match rng with Some r -> r | None -> Rng.create ~seed in
  let edge_strategy =
    match strategy with
    | Greedy -> Ftsa_policy.Greedy_edges
    | Bottleneck -> Ftsa_policy.Bottleneck_edges
    | Redundant senders -> Ftsa_policy.Redundant_edges senders
  in
  match
    Ftsa_policy.run ~rng ~instance:inst ~eps
      ~mode:(Ftsa_policy.Min_comm edge_strategy) ?trace ()
  with
  | Ok s -> s
  | Error _ -> assert false (* no deadlines supplied: cannot fail *)
