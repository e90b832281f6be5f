type strategy = Greedy | Bottleneck | Redundant of int

let schedule ?seed ?(strategy = Greedy) ?trace inst ~eps =
  let edge_strategy =
    match strategy with
    | Greedy -> Ftsa_policy.Greedy_edges
    | Bottleneck -> Ftsa_policy.Bottleneck_edges
    | Redundant senders -> Ftsa_policy.Redundant_edges senders
  in
  Ftsa_policy.run ?seed ?trace ~instance:inst
    (Ftsa_policy.policy ~instance:inst ~eps
       ~mode:(Ftsa_policy.Min_comm edge_strategy))
