module Dag = Ftsched_dag.Dag
module Instance = Ftsched_model.Instance
module Driver = Ftsched_kernel.Driver

let policy =
  {
    Driver.replicas = 1;
    discipline =
      Driver.Fixed_order
        (fun st -> Dag.topological_order (Instance.dag st.Driver.inst));
    prepare = Driver.prepare_inputs;
    evaluate = Driver.eval_insertion;
    choose = (fun st _ -> Driver.best_by_finish st ~k:1);
    commit = Driver.commit_insertion;
    after_commit = Driver.no_after_commit;
    insertion = true;
    selected_comm = false;
  }
