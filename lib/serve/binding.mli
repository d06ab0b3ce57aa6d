(** {!Live.Binding} under its old name.  The library itself names
    [Live.Binding]; this alias stays only while the benchmark harness
    names [Serve.Binding.Rwwc]. *)

module type ALGO = Live.Binding.ALGO

module Rwwc = Live.Binding.Rwwc
