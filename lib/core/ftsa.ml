module Rng = Ftsched_util.Rng

let make_rng ?(seed = 0) ?rng () =
  match rng with Some r -> r | None -> Rng.create ~seed

let schedule ?seed ?rng ?release ?trace ?workspace inst ~eps =
  let rng = make_rng ?seed ?rng () in
  match
    Ftsa_policy.run ~rng ~instance:inst ~eps ~mode:Ftsa_policy.All_to_all_comm
      ?release ?trace ?workspace ()
  with
  | Ok s -> s
  | Error _ -> assert false (* no deadlines supplied: cannot fail *)

let fault_free ?seed inst = schedule ?seed inst ~eps:0
