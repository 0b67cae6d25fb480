(** Order statistics for benchmark samples.

    Percentiles are nearest-rank on tenths of a percent, so "samples
    beyond" a percentile is an exact count. Quartiles follow
    Python's [statistics.quantiles(values, n=4)] (the default
    ["exclusive"] method) so that spreads printed here match the ones an
    external checker computes from the same values. *)

val beyond : n:int -> float -> int
(** [beyond ~n p]: how many of [n] samples lie strictly above the
    nearest-rank [p]-th percentile. *)

val tail_percentile : int -> float option
(** The highest of p99.9 / p99 / p95 / p90 / p75 / p50 that has at
    least 10 of [n] samples beyond it; [None] below 20 samples. *)

val percentile : float array -> float -> float
(** Nearest-rank percentile, [p] in [\[0, 100\]] with at most one
    decimal; needs a non-empty array. *)

val quartiles : float array -> float * float * float
(** [(q1, median, q3)] by Python's exclusive method; needs at least two
    values. *)

val spread : float array -> float
(** Inter-quartile distance as a share of the median. *)

type better = Lower | Higher

val better_of_string : string -> better

val within_bound : better:better -> bound:float -> base:float -> float -> bool
(** [within_bound ~better ~bound ~base v]: [v] is no worse than [base] by
    more than the share [bound] (an increase for [Lower], a decrease for
    [Higher]). *)
