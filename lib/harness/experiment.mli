(** The experiment abstraction: each value regenerates one of the paper's
    evaluation artefacts as tables with a "paper" column next to the
    measured one. *)

type t = {
  id : string;  (** the DESIGN.md experiment index key, e.g. "T1" *)
  title : string;
  paper_ref : string;  (** which theorem / section / figure it reproduces *)
  run : unit -> Diag.Table.t list;
}

val pp_header : Format.formatter -> t -> unit

val print : ?markdown:bool -> t -> unit
(** Run the experiment and print its tables to stdout. *)

val in_child : t -> (t -> unit) -> (unit, string) result
(** [in_child e f] runs [f e] in a forked child and waits for it; [Error]
    unless it exits 0.  OCaml 5 refuses [Unix.fork] once a domain exists,
    and some experiments spawn domains (EXP-T1) while others fork (EXP-DIST,
    EXP-SERVE): one child each keeps every fork legal. *)
