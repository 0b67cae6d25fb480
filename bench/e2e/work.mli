(** The untraced workloads and the processes they drive.

    Every file, socket and log lives under {!run_dir} in the current
    directory. Every child process is reaped before the function that
    started it returns, and an [at_exit] hook kills any child left by an
    exception. *)

val now : unit -> float
(** Monotonic seconds. *)

val run_dir : string
val fresh_path : string -> string
(** A path under {!run_dir} unique within this process. *)

(** {1 Processes} *)

val spawn :
  ?stderr:Unix.file_descr -> string -> string list -> stdout:Unix.file_descr -> int
(** Start [prog args]; stderr defaults to the stdout descriptor. *)

val reap : ?timeout:float -> int -> Unix.process_status
(** Wait for a child, sending SIGKILL after [timeout] (default 20 s). *)

val peak_rss_mb : int -> float
(** [VmHWM] of a process, in MiB ([/proc/<pid>/status]). *)

(** {1 The daemon} *)

type daemon

val start_daemon :
  nisqd:string -> ?calib:string -> ?prom:string -> unit -> daemon * float
(** Spawn [nisqd serve --workers 2] on a fresh socket and wait for its
    first [ping] reply; returns the daemon and the seconds from spawn to
    that reply. *)

val socket : daemon -> string
val pid : daemon -> int

val admin : daemon -> Nisq_serve.Protocol.verb -> Nisq_obs.Json.t option
(** One administrative request on a fresh connection. *)

val stop_daemon : daemon -> unit
(** [drain] verb, then reap; raises [Failure] unless it exits 0. *)

(** {1 Serving loops} *)

val encode_request : id:int -> Nisq_serve.Protocol.verb -> string
(** Wire bytes of one request frame. *)

type closed = {
  samples : (int * float) array;  (** (stream index, round trip ms), timed *)
  elapsed : float;  (** seconds from the first timed send to the last reply *)
  first : string option array;  (** first reply frame seen per stream index *)
  repeats_differ : int;  (** later replies for an index that differ *)
  transport_errors : int;
}

val closed_loop :
  socket:string -> requests:string array -> warmup:int -> seconds:float -> closed
(** Two clients, one connection each, each sending the next stream
    request when its previous reply is in. Indices [0, warmup) are sent
    untimed first; then both clients continue from [warmup] (wrapping
    around the stream) until [seconds] have passed. *)

type opened = {
  lat_ms : float array;  (** per request, from its due time; [nan] if lost *)
  late_ms : float array;  (** per request, send time minus due time *)
  replies : string option array;
  reload_ms : float array;  (** per reload, from its due time *)
  reload_replies : string option array;
  span : float;  (** seconds from the first due time to the last reply *)
}

val open_loop :
  socket:string ->
  requests:string array ->
  reloads:string array ->
  schedule:(float * Streams.event) array ->
  opened
(** One pipelined connection: a sender thread writes each event at its
    due time, a receiver thread reads replies as they come. *)

(** {1 Reply checks} *)

val check_reply : Streams.request -> string -> (Nisq_obs.Json.t, string) result
(** Decode one reply frame for a stream request: it must be [ok], echo
    the stream index, name the program, and — for [run] — report the
    program's hand-written expected answer as [ideal_answer]. *)

val digest_prefix : string option array -> int -> string * int
(** MD5 of the first [k] reply frames in index order (stopping early at
    a missing one), and how many went in. *)

(** {1 Figures} *)

val figure_days : seed:int -> int array
(** The 16 seeded calibration days. *)

val batch_calibs :
  days:int array -> (int, Nisq_device.Calibration.t) Hashtbl.t
(** That day's calibration for each day, generated afresh. *)

val trials : int
(** Monte-Carlo trials per figure cell (8192, as in the paper). *)

val sim_seed : int
(** The figure tables' simulation seed. *)

val evaluate_cell :
  (int, Nisq_device.Calibration.t) Hashtbl.t ->
  Streams.cell ->
  Nisq_bench.Experiments.eval
(** [Experiments.evaluate ~trials:8192] on the cell's day. *)

val cell_payload : Streams.cell -> Nisq_bench.Experiments.eval -> string
(** Everything the figure tables print for a cell, exactly. *)

val wrong_answer :
  Nisq_bench.Benchmarks.t -> Nisq_sim.Runner.t -> what:string -> string option
(** [Some violation] unless the compiled program's noiseless answer is
    the benchmark's hand-written expected answer; [what] names the cell
    or request in the message. *)

val cell_label : Streams.cell -> string

type figures = {
  cell_ms : float array;
  wall : float;  (** seconds inside [map_cells], summed over batches *)
  digest : string;  (** over the first {!digest_batches} batches *)
  digest_cells : int;
  violations : string list;
}

val digest_batches : int

val figures : seed:int -> seconds:float -> figures
(** Whole batches through [Experiments.map_cells] until [seconds] of
    cell time have passed; batches cycle through the 16-batch plan, and
    a cell seen again must reproduce its first payload. *)
