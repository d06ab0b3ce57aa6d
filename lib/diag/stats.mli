(** Summary statistics for experiment measurements. *)

type summary = {
  count : int;
  mean : float;
  stddev : float;  (** sample standard deviation (n-1 denominator) *)
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}
(** Descriptive summary of a sample. *)

val summarize : float list -> summary
(** [summarize xs] computes the summary of a non-empty sample.  Raises
    [Invalid_argument] on the empty list. *)

val summarize_ints : int list -> summary
(** [summarize_ints xs] is [summarize] over [float_of_int]. *)

val mean : float list -> float
(** Arithmetic mean of a non-empty sample. *)

val percentile : float array -> float -> float
(** [percentile sorted q] is the [q]-quantile ([0 <= q <= 1]) of an array
    already sorted in increasing order, with linear interpolation between
    adjacent ranks. *)

val histogram : bins:int -> float list -> (float * float * int) array
(** [histogram ~bins xs] partitions the sample range into [bins] equal-width
    buckets and returns [(lo, hi, count)] per bucket.  The last bucket is
    right-closed. *)
