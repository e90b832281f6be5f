module Levels = Ftsched_model.Levels
module Driver = Ftsched_kernel.Driver

let schedule ?trace inst =
  let order = Levels.sorted_by_bottom_level inst in
  Driver.schedule ~instance:inst ?trace
    ~policy:
      {
        Insertion_list.policy with
        discipline = Driver.Fixed_order (fun _ -> order);
      }
    ()
