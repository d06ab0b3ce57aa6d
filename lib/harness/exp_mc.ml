(** EXP-MC — scaling the exhaustive model checker.

    Not a table from the paper: the verification harness behind the
    correctness claims.  For each algorithm the exhaustive adversary sweeps
    the full crash-schedule space at [n = 4] and, independently, the
    symmetry-reduced space (one representative per {!Adversary.Canonical}
    equivalence class).  The table reports both cardinalities, the
    reduction factor, and — the soundness check — that the set of violating
    equivalence classes found by the reduced sweep equals the canonical
    image of the violations found by the full sweep.  The broken
    [Rwwc_variants.Data_decide] ablation keeps the comparison honest: its
    violations must survive the quotient, not just the zero of the correct
    algorithms. *)

let run () =
  let n = 4 and t = 2 and max_f = 2 and max_round = 3 in
  let table =
    Diag.Table.create
      ~title:
        (Printf.sprintf
           "Exhaustive sweep, full space vs symmetry classes (n = %d, f <= %d, \
            crashes in rounds 1..%d)"
           n max_f max_round)
      ~header:
        [
          "algorithm";
          "full space";
          "classes";
          "reduction";
          "violating classes (full)";
          "violating classes (reduced)";
          "verdict sets agree";
        ]
      ()
  in
  let row (label, name) =
    let algo = Minimize.Algo.get name in
    let sweep ~symmetry =
      let s =
        Minimize.Algo.sweep algo ~n ~t
          (Minimize.Algo.space algo ~symmetry ~n ~t ~max_f ~max_round)
      in
      (s.Minimize.Algo.checked, List.map fst s.Minimize.Algo.violations)
    in
    let full_checked, full = sweep ~symmetry:false in
    let classes, reduced = sweep ~symmetry:true in
    let full_size =
      Adversary.Enumerate.space_size ~model:algo.Minimize.Algo.model ~n ~max_f
        ~max_round
    in
    assert (full_checked = full_size);
    (* canonical forms of the full sweep's violations vs the violating
       representatives of the reduced sweep *)
    let full_classes =
      List.sort_uniq Adversary.Canonical.compare
        (List.map
           (Adversary.Canonical.canonical (Minimize.Algo.profile algo ~n ~t))
           full)
    in
    let reduced = List.sort Adversary.Canonical.compare reduced in
    Diag.Table.add_row table
      [
        label;
        Diag.Table.fmt_int full_size;
        Diag.Table.fmt_int classes;
        Printf.sprintf "%.1fx" (float_of_int full_size /. float_of_int classes);
        Diag.Table.fmt_int (List.length full_classes);
        Diag.Table.fmt_int (List.length reduced);
        (if List.equal Adversary.Canonical.equal full_classes reduced then "yes"
         else "NO");
      ]
  in
  List.iter row
    [
      ("rwwc", "rwwc");
      ("rwwc minus commit (broken)", "data-decide");
      ("flood-set", "flood");
      ("early-stopping", "early-stopping");
    ];
  [ table ]

let experiment =
  {
    Experiment.id = "MC";
    title = "exhaustive model checking: symmetry reduction is sound";
    paper_ref = "verification harness (Theorems 1 and 3 at n = 4)";
    run;
  }
