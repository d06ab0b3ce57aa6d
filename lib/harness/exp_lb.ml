(** EXP-LB — Theorems 3–5: the f+1 lower bound, verified by search.

    For every f: (a) tightness — the silent killer forces the algorithm to
    exactly f+1 rounds; (b) impossibility — the "decide by round f"
    truncation admits a uniform-agreement violation, found by searching
    the configurations the adversary (any number of crashes per round)
    reaches. *)

open Model

module Ex = Lower_bound.Explorer.Make (Core.Rwwc)

let run () =
  let n = 5 in
  let tightness =
    Diag.Table.create
      ~title:(Printf.sprintf "Tightness: silent killer forces round f+1 (n = %d)" n)
      ~header:[ "f"; "last decision round"; "= f+1" ] ()
  in
  for f = 0 to n - 2 do
    let last = Ex.tightness ~n ~f ~proposals:(Workloads.distinct n) in
    Diag.Table.add_row tightness
      [
        Diag.Table.fmt_int f;
        Diag.Table.fmt_int last;
        Diag.Table.fmt_bool (last = f + 1);
      ]
  done;
  let witnesses =
    Diag.Table.create
      ~title:
        (Printf.sprintf
           "Impossibility: a decide-by-f truncation violates uniform \
            agreement (n = %d, exhaustive search)"
           n)
      ~header:
        [ "decide by"; "witness schedule"; "decided values"; "configs searched" ]
      ()
  in
  (* f = 0: no communication at all — trivial, stated directly. *)
  Diag.Table.add_row witnesses
    [
      "0";
      "(none needed: 0 rounds = no communication)";
      (if Ex.zero_round_impossible ~proposals:(Workloads.distinct n) then
         "each its own proposal"
       else "-");
      "0";
    ];
  for decide_by = 1 to n - 2 do
    match
      Ex.truncation_violation ~n ~decide_by ~proposals:(Workloads.distinct n)
    with
    | None ->
      Diag.Table.add_row witnesses
        [ Diag.Table.fmt_int decide_by; "NOT FOUND"; "-"; "-" ]
    | Some w ->
      Diag.Table.add_row witnesses
        [
          Diag.Table.fmt_int decide_by;
          Schedule.to_string w.Lower_bound.Explorer.schedule;
          String.concat ","
            (List.map string_of_int
               (Sync_sim.Run_result.decided_values w.Lower_bound.Explorer.result));
          Diag.Table.fmt_int w.Lower_bound.Explorer.configs_searched;
        ]
  done;
  [ tightness; witnesses ]

let experiment =
  {
    Experiment.id = "LB";
    title = "the f+1 lower bound (tightness + impossibility witnesses)";
    paper_ref = "Theorems 3, 4, 5";
    run;
  }
