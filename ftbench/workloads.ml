(* The benchmark's workloads, by name. *)

let all =
  [
    (Paper_campaign.name, Paper_campaign.run);
    (Scale.layered.Scale.name, Scale.run Scale.layered);
    (Scale.pegasus.Scale.name, Scale.run Scale.pegasus);
    (Serve_open.name, Serve_open.run);
  ]
