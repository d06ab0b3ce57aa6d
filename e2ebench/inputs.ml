(* Everything a workload's seed decides: the proposals each node submits and
   the open-loop arrival times.  The program under test receives only these
   generated inputs, never the seed. *)

(* SplitMix64's finaliser, constants cut to OCaml's 63-bit ints: a cheap,
   stateless mix, so a proposal is a pure function of (seed, instance,
   node). *)
let mix x =
  let x = (x lxor (x lsr 30)) * 0x3f58476d1ce4e5b9 in
  let x = (x lxor (x lsr 27)) * 0x14d049bb133111eb in
  x lxor (x lsr 31)

let proposals ~seed instance node =
  mix ((seed * 0x1e3779b97f4a7c15) + (instance * 64) + node) land 0xfffff

(* Validity: a decided value must be some node's proposal. *)
let proposed ~seed ~n instance value =
  let rec go p = p <= n && (proposals ~seed instance p = value || go (p + 1)) in
  go 1

(* Poisson arrivals at [rate] per second, as offsets from the run's start. *)
let arrivals ~seed ~rate =
  let rng = Prng.Rng.of_int (mix (seed + 0x0a11)) in
  let next = ref 0.0 in
  fun () ->
    next := !next +. Prng.Rng.exponential rng ~mean:(1.0 /. rate);
    !next
