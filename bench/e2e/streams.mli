(** Seeded workload inputs. Everything here is a pure function of the
    seed: the same seed gives the same cells, requests and schedule;
    the program under test only ever sees the generated inputs. *)

val draw_days : seed:int -> int -> int array
(** [draw_days ~seed k]: [k] distinct calibration days from 0–29, in
    seeded order. *)

(** {1 Figures} *)

val figure_configs : Nisq_compiler.Config.t array
(** Fig. 5 ∪ Fig. 10 policies: Qiskit, T-SMT⋆, R-SMT⋆(ω=0.5), GreedyE⋆,
    GreedyV⋆. ω=1 is left out on purpose (see README). *)

type cell = {
  bench : Nisq_bench.Benchmarks.t;
  config : Nisq_compiler.Config.t;
  day : int;
}

val figure_batch : days:int array -> int -> cell array
(** Batch [b] holds every Table-2 program × {!figure_configs} once
    (60 cells); combo [c] runs on day [days.((b + c) mod k)]. Over [k]
    consecutive batches every (program, policy, day) triple appears
    exactly once, and every batch costs about the same. *)

(** {1 Serve} *)

type request = {
  index : int;
  program : string;
  method_ : Nisq_compiler.Config.method_;
  day : int;
  run : bool;  (** [run] with {!run_trials} trials, else [compile] *)
  sim_seed : int;
}

val serve_methods : Nisq_compiler.Config.method_ array
(** qiskit, tsmt*, rsmt:0.5, greedye. *)

val run_trials : int

val serve_stream : seed:int -> days:int array -> int -> request array
(** [n] requests over Table-2 × {!serve_methods}, stratified: each
    consecutive block of 192 holds every (program, method) pair four
    times — one [run], three [compile] — in seeded order; days are drawn
    uniformly from [days]. *)

val verb : request -> Nisq_serve.Protocol.verb

val solver_keys : request array -> int
(** Distinct solver-backed layout keys (program, tsmt*/rsmt, day) — the
    working set the 64-entry layout memo sees. *)

(** {1 Open loop} *)

type event = Send of int  (** request index *) | Reload of int  (** k-th, from 0 *)

val schedule : rate:float -> seconds:float -> period:float -> (float * event) array
(** Due offsets (seconds from the start) of [rate × seconds] requests
    at [i / rate] and of a reload every [period] seconds (the first at
    [period]), merged in due order; a request due at the same instant as
    a reload goes first. *)

val reload_archive : int -> [ `A | `B ]
(** Reload [k] switches to archive B when [k] is even, back to A when
    odd — the daemon starts on A. *)
