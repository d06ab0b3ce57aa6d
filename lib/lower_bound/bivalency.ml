type valence = Univalent of int | Bivalent of int list

type report = {
  n : int;
  t : int;
  initial_valence : valence;
  max_bivalent_depth : int;
  bivalent_with_decision : bool;
  configs_explored : int;
}

let pp_valence ppf = function
  | Univalent v -> Format.fprintf ppf "univalent(%d)" v
  | Bivalent vs ->
    Format.fprintf ppf "bivalent{%s}"
      (String.concat "," (List.map string_of_int vs))

module Make (A : Algo_intf.S) = struct
  module S = Stepper.Make (A)

  (* The configurations the Theorem 3 adversary (at most one crash per
     round) reaches from [root], each with the values decided in its
     extensions.  Successors come after their parents in the search's
     order, so one backward pass settles every value. *)
  let valences root =
    let nodes = S.search ~per_round:1 root in
    let values = Array.make (Array.length nodes) [] in
    for i = Array.length nodes - 1 downto 0 do
      let { S.config; succs; _ } = nodes.(i) in
      values.(i) <-
        (if S.running config = [] then S.decided_values config
         else if succs = [] then
           Printf.ksprintf failwith
             "Bivalency: algorithm %s still undecided after round %d" A.name
             (root.S.t + 2)
         else
           List.sort_uniq Int.compare
             (List.concat_map (fun (s : S.node) -> values.(s.id)) succs))
    done;
    (nodes, values)

  let reachable_values config = (snd (valences config)).(0)

  let analyze ~n ~t ~proposals =
    let nodes, values =
      valences (S.initial (Sync_sim.Engine.config ~n ~t ~proposals ()))
    in
    (* A descendant's values are a subset of the root's, so nothing below a
       univalent root is bivalent. *)
    let bivalent =
      List.filter
        (fun { S.id; _ } -> List.length values.(id) > 1)
        (Array.to_list nodes)
    in
    {
      n;
      t;
      initial_valence =
        (match values.(0) with [ v ] -> Univalent v | vs -> Bivalent vs);
      max_bivalent_depth =
        List.fold_left
          (fun depth { S.config; _ } -> max depth (config.S.next_round - 1))
          0 bivalent;
      bivalent_with_decision =
        List.exists (fun { S.config; _ } -> S.decided_values config <> []) bivalent;
      configs_explored = Array.length nodes;
    }
end
