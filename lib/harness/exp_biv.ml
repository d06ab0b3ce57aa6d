(** EXP-BIV — the proof technique of Theorem 3: valence analysis of the
    configuration graph under the one-crash-per-round adversary. *)

module Biv = Lower_bound.Bivalency.Make (Core.Rwwc)
module Biv_es =
  Lower_bound.Bivalency.Make (Lower_bound.Algo_intf.Of_list (Baselines.Early_stopping))

let add_row table name model report =
  Diag.Table.add_row table
    [
      name;
      Model.Model_kind.to_string model;
      Diag.Table.fmt_int report.Lower_bound.Bivalency.n;
      Diag.Table.fmt_int report.Lower_bound.Bivalency.t;
      Format.asprintf "%a" Lower_bound.Bivalency.pp_valence
        report.Lower_bound.Bivalency.initial_valence;
      Diag.Table.fmt_int report.Lower_bound.Bivalency.max_bivalent_depth;
      Diag.Table.fmt_bool report.Lower_bound.Bivalency.bivalent_with_decision;
      Diag.Table.fmt_int report.Lower_bound.Bivalency.configs_explored;
    ]

let run () =
  let table =
    Diag.Table.create
      ~title:
        "Valence under the one-crash-per-round adversary (binary proposals \
         0,1,..,1).  Synchronization messages do not shrink the worst-case \
         bivalent horizon: that is the paper's 'limit' (Theorem 3)."
      ~header:
        [
          "algorithm";
          "model";
          "n";
          "t";
          "initial valence";
          "max bivalent depth";
          "decision inside a bivalent config";
          "configs explored";
        ]
      ()
  in
  List.iter
    (fun (n, t) ->
      let proposals = Workloads.binary ~n ~zeros:1 in
      add_row table "rwwc (Figure 1)" Model.Model_kind.Extended
        (Biv.analyze ~n ~t ~proposals);
      add_row table "early-stopping" Model.Model_kind.Classic
        (Biv_es.analyze ~n ~t ~proposals))
    [ (3, 0); (3, 1); (4, 1); (4, 2); (5, 2) ];
  [ table ]

let experiment =
  {
    Experiment.id = "BIV";
    title = "bivalency: how long the adversary keeps the outcome open";
    paper_ref = "Theorem 3 (proof technique, after Aguilera-Toueg)";
    run;
  }
