let schedule ?seed ?release ?trace ?workspace inst ~eps =
  Ftsa_policy.run ?seed ?release ?trace ?workspace ~instance:inst
    (Ftsa_policy.policy ~instance:inst ~eps ~mode:Ftsa_policy.All_to_all_comm)

let fault_free ?seed inst = schedule ?seed inst ~eps:0
