(** EXP-SERVE — consensus as a service on the deterministic loopback:
    multiplexed storms complete and stay judge-clean at scale, batching
    collapses write calls by >= 4x without changing a single decision, and
    a mid-storm coordinator kill costs the survivors one expired round per
    in-flight instance while every transcript still matches the abstract
    engine. *)

val experiment : Experiment.t
