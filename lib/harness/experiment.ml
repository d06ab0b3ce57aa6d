(** An experiment regenerates one of the paper's evaluation artefacts
    (a theorem's bound, an analysis table, a comparison point) as one or
    more tables with a "paper" column next to the measured one. *)

type t = {
  id : string;  (** e.g. "T1" — the DESIGN.md experiment index key *)
  title : string;
  paper_ref : string;  (** which theorem / section / figure it reproduces *)
  run : unit -> Diag.Table.t list;
}

let pp_header ppf e =
  Format.fprintf ppf "== EXP-%s: %s ==@.   reproduces: %s@." e.id e.title
    e.paper_ref

let print ?(markdown = false) e =
  Format.printf "%a@." pp_header e;
  List.iter
    (fun table ->
      print_string
        (if markdown then Diag.Table.render_markdown table
         else Diag.Table.render table);
      print_newline ())
    (e.run ())

let flush_out () =
  Format.pp_print_flush Format.std_formatter ();
  flush_all ()

let in_child e f =
  flush_out ();
  let pid =
    Live.Children.fork (fun () ->
        Fun.protect ~finally:flush_out (fun () ->
            f e;
            0))
  in
  match Live.Children.wait pid with
  | `Exited 0 -> Ok ()
  | _ -> Error (Printf.sprintf "EXP-%s failed (its output says why)" e.id)
