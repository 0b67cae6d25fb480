(* The traced pass: the workload's own inputs replayed in this process
   through the public calls the program makes, each call timed from
   outside, with the library's Trace spans and Metrics counters on.

   The replay runs twice over the same items from the same cleared
   cache state: first plain (spans off) for a third of the time, then
   traced for the rest. The items both replays ran give the cost of
   tracing itself as a paired difference — heavy-tailed items (one cold
   solve) would swamp any comparison of different items. Every layer
   number is a mean over the traced replay's timed items. *)

module Trace = Nisq_obs.Trace
module Metrics = Nisq_obs.Metrics
module Protocol = Nisq_serve.Protocol
module Frame = Nisq_serve.Frame
module Benchmarks = Nisq_bench.Benchmarks
module Experiments = Nisq_bench.Experiments
module Compile = Nisq_compiler.Compile
module Config = Nisq_compiler.Config
module Calib_cache = Nisq_device.Calib_cache
module Calib_io = Nisq_device.Calib_io
module Calib_sanitize = Nisq_device.Calib_sanitize
module Ibmq16 = Nisq_device.Ibmq16
module Runner = Nisq_sim.Runner

(* Seconds (and counts) summed over the traced replay's timed items. *)
type acc = {
  mutable calib_s : float;
  mutable paths_s : float;
  mutable prepare_s : float;
  mutable sim_s : float;
  mutable codec_s : float;
  mutable trials : int;
  mutable clifford_trials : int;
  mutable minor_words : float;
  mutable rungs : int;
  spans : (string, float) Hashtbl.t;  (* per span name *)
}

let acc () =
  {
    calib_s = 0.0;
    paths_s = 0.0;
    prepare_s = 0.0;
    sim_s = 0.0;
    codec_s = 0.0;
    trials = 0;
    clifford_trials = 0;
    minor_words = 0.0;
    rungs = 0;
    spans = Hashtbl.create 8;
  }

let timed f =
  let t0 = Work.now () in
  let v = f () in
  (v, Work.now () -. t0)

let harvest acc =
  List.iter
    (fun (s : Trace.span) ->
      let prev = Option.value (Hashtbl.find_opt acc.spans s.Trace.name) ~default:0.0 in
      Hashtbl.replace acc.spans s.Trace.name (prev +. (Int64.to_float s.Trace.dur_ns *. 1e-9)))
    (Trace.spans ());
  Trace.reset ()

(* Trials run in the calling domain, so Gc.minor_words sees all of them. *)
let pool0 = lazy (Nisq_util.Pool.create ~size:0 ())

(* The calls a compile (and, with [sim], a simulation) makes: the Paths
   table first — so the compile's own lookup hits — then the compile,
   the runner preparation and the trials. [on]: add to [acc]. Returns
   the runner of a simulated item. *)
let core acc ~on ~calib ~config circuit ~sim =
  let _, paths_s = timed (fun () -> Calib_cache.paths calib) in
  let r = Compile.run ~config ~calib circuit in
  let runner =
    Option.map
      (fun (trials, seed) ->
        let runner, prepare_s = timed (fun () -> Experiments.runner_of r) in
        let words = Gc.minor_words () in
        let _, sim_s =
          timed (fun () ->
              Runner.success_rate ~trials ~pool:(Lazy.force pool0) ~seed runner)
        in
        if on then begin
          acc.prepare_s <- acc.prepare_s +. prepare_s;
          acc.sim_s <- acc.sim_s +. sim_s;
          acc.trials <- acc.trials + trials;
          if Runner.clifford_capable runner then
            acc.clifford_trials <- acc.clifford_trials + trials;
          acc.minor_words <- acc.minor_words +. (Gc.minor_words () -. words)
        end;
        runner)
      sim
  in
  if on then begin
    acc.paths_s <- acc.paths_s +. paths_s;
    match r.Compile.rung with
    | Some (Compile.Rung_capped | Compile.Rung_greedy) -> acc.rungs <- acc.rungs + 1
    | Some Compile.Rung_full | None -> ()
  end;
  runner

let counter name =
  Option.value (List.assoc_opt name (Metrics.counter_values ())) ~default:0

type counts = { paths_hit : int; paths_miss : int; layout_hit : int; layout_miss : int }

let counts () =
  {
    paths_hit = counter "cache.device.paths.hit";
    paths_miss = counter "cache.device.paths.miss";
    layout_hit = counter "cache.compiler.layout.hit";
    layout_miss = counter "cache.compiler.layout.miss";
  }

type result = {
  acc : acc;
  plain_s : float array;  (** plain replay, seconds per timed item *)
  traced_s : float array;  (** traced replay, same items first *)
  wall : float;  (** seconds the traced replay's timed steps took *)
  c0 : counts;  (** counters when the traced replay's timing began *)
  c1 : counts;
  nodes : int;  (** solver.nodes over the first [nodes_items] traced items *)
  nodes_items : int;
  violations : string list;
}

(* Both replays. [step k ~on] runs step [k] (one request, or one figure
   batch) and returns its items' seconds; the first [warmup] steps are
   untimed and plain. [reset] restores the starting state (cold caches)
   before each replay. *)
let paired ~acc ~seconds ~warmup ~node_items ~reset ~violations step =
  Metrics.set_enabled true;
  let replay ~on ~until =
    reset ();
    for k = 0 to warmup - 1 do
      ignore (step k ~on:false)
    done;
    let c0 = counts () and nodes0 = counter "solver.nodes" in
    let nodes = ref None in
    let t0 = Work.now () in
    let rec go k count items =
      if until count then Array.of_list (List.rev items)
      else begin
        Trace.set_enabled on;
        let s = step k ~on in
        Trace.set_enabled false;
        let count = count + List.length s in
        if !nodes = None && count >= node_items then
          nodes := Some (counter "solver.nodes" - nodes0, count);
        go (k + 1) count (List.rev_append s items)
      end
    in
    let items = go warmup 0 [] in
    let nodes =
      Option.value !nodes ~default:(counter "solver.nodes" - nodes0, Array.length items)
    in
    (items, Work.now () -. t0, c0, nodes)
  in
  let start = Work.now () in
  let plain, _, _, _ =
    replay ~on:false ~until:(fun n -> n > 0 && Work.now () >= start +. (seconds /. 3.0))
  in
  (* At least the plain replay's items, for the paired difference, and
     the node-count prefix, so short runs still cover the mix. *)
  let k = Array.length plain in
  let traced, wall, c0, (nodes, nodes_items) =
    replay ~on:true ~until:(fun n ->
        n >= Int.max k node_items && Work.now () >= start +. seconds)
  in
  {
    acc;
    plain_s = plain;
    traced_s = traced;
    wall;
    c0;
    c1 = counts ();
    nodes;
    nodes_items;
    violations = List.rev !violations;
  }

(* ------------------------------ figures ----------------------------- *)

let figures ~seed ~seconds =
  let days = Work.figure_days ~seed in
  let a = acc () and violations = ref [] in
  let step b ~on =
    let cells = Streams.figure_batch ~days (b mod Array.length days) in
    let calibs, calib_s = timed (fun () -> Work.batch_calibs ~days) in
    if on then a.calib_s <- a.calib_s +. calib_s;
    let times =
      Experiments.map_cells
        (Array.to_list
           (Array.map
              (fun (c : Streams.cell) () ->
                let runner, s =
                  timed (fun () ->
                      core a ~on ~calib:(Hashtbl.find calibs c.day) ~config:c.config
                        c.bench.Benchmarks.circuit ~sim:(Some (Work.trials, Work.sim_seed)))
                in
                Option.iter
                  (fun r ->
                    Option.iter
                      (fun v -> violations := v :: !violations)
                      (Work.wrong_answer c.bench r ~what:(Work.cell_label c)))
                  runner;
                s)
              cells))
    in
    if on then harvest a;
    times
  in
  (* The exact solver-node count covers the first two batches. *)
  paired ~acc:a ~seconds ~warmup:0 ~node_items:120 ~reset:Calib_cache.clear ~violations step

(* ------------------------------- serve ------------------------------ *)

type source =
  | Synthetic  (** per-request Ibmq16.calibration, as nisqd without --calib *)
  | Archives of { paths : string array; per_reload : int }
      (** a file-backed daemon: start on [paths.(0)], then every
          [per_reload] requests load the next archive (cycling) and flush
          the retired calibration's cache entries, as a promotion does *)

let load path ~previous =
  match Calib_io.load_raw ~path with
  | Ok raw -> fst (Calib_sanitize.sanitize ?previous raw)
  | Error e -> failwith (Printf.sprintf "%s: %s" path e.Calib_io.message)

let serve ~(stream : Streams.request array) ~warmup ~seconds ~source ~recorded =
  let n = Array.length stream in
  let a = acc () and violations = ref [] in
  let current = ref None and reloads = ref 0 in
  let reset () =
    Calib_cache.clear ();
    reloads := 0;
    current :=
      match source with
      | Synthetic -> None
      | Archives { paths; _ } -> Some (load paths.(0) ~previous:None)
  in
  (* An archive load serves every request until the next load: its cost
     is spread over the requests of its period. *)
  let reload ~on =
    match (source, !current) with
    | Archives { paths; _ }, Some old ->
        incr reloads;
        let next, s =
          timed (fun () -> load paths.(!reloads mod Array.length paths) ~previous:(Some old))
        in
        if on then a.calib_s <- a.calib_s +. s;
        Calib_cache.flush_digest (Calib_cache.digest old);
        current := Some next
    | _ -> ()
  in
  let step i ~on =
    let req = stream.(i mod n) in
    let bench = Benchmarks.by_name req.Streams.program in
    let t0 = Work.now () in
    let (), codec_req =
      timed (fun () ->
          match Frame.scan_string (Work.encode_request ~id:req.Streams.index (Streams.verb req)) with
          | Ok [ j ] -> ignore (Protocol.request_of_json j)
          | _ -> failwith "request codec")
    in
    let calib, calib_s =
      timed (fun () ->
          match !current with
          | Some c -> c
          | None -> Ibmq16.calibration ~day:req.Streams.day ())
    in
    let runner =
      core a ~on ~calib ~config:(Config.make req.Streams.method_) bench.Benchmarks.circuit
        ~sim:(if req.Streams.run then Some (Streams.run_trials, req.Streams.sim_seed) else None)
    in
    let codec_reply =
      match recorded.(i mod n) with
      | None -> 0.0
      | Some frame ->
          snd
            (timed (fun () ->
                 match Frame.scan_string frame with
                 | Ok [ j ] -> (
                     match Protocol.reply_of_json j with
                     | Ok reply -> ignore (Frame.encode (Protocol.reply_to_json reply))
                     | Error e -> failwith e)
                 | _ -> failwith "reply codec"))
    in
    let s = Work.now () -. t0 in
    Option.iter
      (fun r ->
        Option.iter
          (fun v -> violations := v :: !violations)
          (Work.wrong_answer bench r ~what:(Printf.sprintf "request %d" req.Streams.index)))
      runner;
    if on then begin
      (match source with Synthetic -> a.calib_s <- a.calib_s +. calib_s | Archives _ -> ());
      a.codec_s <- a.codec_s +. codec_req +. codec_reply;
      harvest a
    end;
    (match source with
    | Archives { per_reload; _ } when (i + 1) mod per_reload = 0 -> reload ~on
    | _ -> ());
    [ s ]
  in
  paired ~acc:a ~seconds ~warmup ~node_items:600 ~reset ~violations step
