(** MR99 — the quorum-based ◇S consensus of Mostéfaoui & Raynal (DISC'99),
    the asynchronous end of the paper's Section 4 bridge.

    Rotating coordinator; each asynchronous round has two communication
    steps:
    + the coordinator broadcasts its estimate; every process waits until it
      receives it ([aux := v]) or suspects the coordinator ([aux := ⊥]);
    + everybody broadcasts [aux] and waits for [n - t] of them; a process
      that sees [n - t] copies of a value [v] (no ⊥ among them) decides [v]
      after reliably broadcasting DECIDE; a process that sees at least one
      [v] adopts it as its estimate; otherwise it keeps its estimate.

    Requires [t < n/2] (quorum intersection).  The paper's observation: the
    second step plays exactly the role of Figure 1's commit message — in
    the extended synchronous model, one pipelined one-bit message from the
    coordinator replaces an all-to-all round of [aux] exchanges. *)

type msg =
  | Est of { round : int; value : int }
  | Aux of { round : int; value : int option }
  | Decide of int

include Timed_sim.Process_intf.S with type msg := msg
