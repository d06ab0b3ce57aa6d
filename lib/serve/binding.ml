module type ALGO = Live.Binding.ALGO

module Rwwc = Live.Binding.Rwwc
