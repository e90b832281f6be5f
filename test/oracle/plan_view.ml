module Comm_plan = Ftsched_schedule.Comm_plan

let pairs_for = Comm_plan.to_list

let senders_to plan ~eps e ~dst_replica =
  List.filter_map
    (fun (p : Comm_plan.pair) ->
      if p.dst_replica = dst_replica then Some p.src_replica else None)
    (pairs_for plan ~eps e)
