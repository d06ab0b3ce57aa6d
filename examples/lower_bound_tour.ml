(* A guided tour of the f+1 lower bound (Theorems 3-5), in three acts.

   Act 1 — tightness: the adversary really can push the Figure 1 algorithm
   to round f+1.
   Act 2 — impossibility: any attempt to always decide by round f is
   destroyed by an exhaustively-found counterexample schedule.
   Act 3 — the proof's engine: bivalent configurations, and how long the
   adversary can keep the outcome undetermined.

     dune exec examples/lower_bound_tour.exe *)

open Model

module Ex = Lower_bound.Explorer.Make (Core.Rwwc)
module Biv = Lower_bound.Bivalency.Make (Core.Rwwc)

let () =
  let n = 5 in
  let proposals = Harness.Workloads.distinct n in

  print_endline "=== Act 1: the bound is reached ===";
  for f = 0 to n - 2 do
    Printf.printf
      "  f = %d silent coordinator crashes: last decision at round %d (f+1 = %d)\n"
      f (Ex.tightness ~n ~f ~proposals) (f + 1)
  done;

  print_endline "\n=== Act 2: the bound cannot be beaten ===";
  Printf.printf
    "  0 rounds: no communication, so with distinct proposals every process\n\
    \  can only output its own value — impossible (%b).\n"
    (Ex.zero_round_impossible ~proposals);
  for decide_by = 1 to n - 2 do
    match Ex.truncation_violation ~n ~decide_by ~proposals with
    | Some w ->
      Printf.printf
        "  decide-by-%d: uniform agreement dies on schedule [%s]\n\
        \    decided values: %s   (found after %d configurations)\n"
        decide_by
        (Schedule.to_string w.Lower_bound.Explorer.schedule)
        (String.concat ", "
           (List.map string_of_int
              (Sync_sim.Run_result.decided_values w.Lower_bound.Explorer.result)))
        w.Lower_bound.Explorer.configs_searched
    | None -> Printf.printf "  decide-by-%d: no witness (unexpected!)\n" decide_by
  done;

  print_endline "\n=== Act 3: why — bivalence ===";
  List.iter
    (fun (n, t) ->
      let r =
        Biv.analyze ~n ~t ~proposals:(Harness.Workloads.binary ~n ~zeros:1)
      in
      Format.printf
        "  n=%d t=%d: initial %a; the adversary keeps the outcome open \
         through round %d (%d configurations)@."
        n t Lower_bound.Bivalency.pp_valence
        r.Lower_bound.Bivalency.initial_valence
        r.Lower_bound.Bivalency.max_bivalent_depth
        r.Lower_bound.Bivalency.configs_explored)
    [ (3, 1); (4, 2); (5, 3) ];
  print_endline
    "\nAs long as a configuration is bivalent nobody can have decided — and\n\
     the adversary sustains bivalence one round per crash it can still\n\
     spend.  That is the 'limit' half of the paper's title."
