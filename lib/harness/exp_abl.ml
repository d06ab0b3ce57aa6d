(** EXP-ABL — ablation of Figure 1's design choices.

    Not a table from the paper: a study of why the paper's choices are
    load-bearing.  Each variant deletes one ingredient (the descending
    commit order; the commit itself; the prefix semantics of the second
    step) and the exhaustive adversary reports which consensus property
    dies first.  The paper's algorithm survives the same search space
    untouched. *)

let run () =
  let n = 4 and t = 2 and max_f = 2 and max_round = 3 in
  let table =
    Diag.Table.create
      ~title:
        (Printf.sprintf
           "Ablations under the exhaustive adversary (n = %d, f <= %d, \
            crashes in rounds 1..%d)"
           n max_f max_round)
      ~header:
        [
          "variant";
          "removed ingredient";
          "first property violated";
          "witness schedule";
          "schedules searched";
        ]
      ()
  in
  (* The first violation over the full extended space, in enumeration
     order, with the registry's bound (f_actual + 1 for the rwwc family). *)
  let row (name, ingredient, algo) =
    let witness, searched =
      Minimize.Algo.first_violation (Minimize.Algo.get algo) ~n ~t ~max_f
        ~max_round
    in
    let violated, schedule =
      match witness with
      | None -> ("none — correct", "-")
      | Some (s, c) -> (c.Spec.Properties.name, Model.Schedule.to_string s)
    in
    Diag.Table.add_row table
      [ name; ingredient; violated; schedule; Diag.Table.fmt_int searched ]
  in
  List.iter row
    [
      ("rwwc (paper)", "-", "rwwc");
      ("ascending commits", "descending commit order", "ascending-commit");
      ("no commit", "the commit message", "data-decide");
      ("piggybacked commit", "prefix semantics of the 2nd step", "piggyback-commit");
    ];
  [ table ]

let experiment =
  {
    Experiment.id = "ABL";
    title = "ablating Figure 1: every ingredient is load-bearing";
    paper_ref = "Sections 2.1 and 3.2 (design rationale)";
    run;
  }
