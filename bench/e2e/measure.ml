(* One workload, one pass: set-up probes, the timed pass, the checks.
   The result carries the metrics BENCHMARK.json names for the pass
   (end-to-end untraced, per-layer traced) plus extra lines that only
   some workloads have. *)

module Json = Nisq_obs.Json
module Protocol = Nisq_serve.Protocol
module Frame = Nisq_serve.Frame
module Server = Nisq_serve.Server
module Calib_io = Nisq_device.Calib_io
module Calib_diff = Nisq_device.Calib_diff
module Calib_sanitize = Nisq_device.Calib_sanitize
module Calibration = Nisq_device.Calibration
module Ibmq16 = Nisq_device.Ibmq16
module Stats = Nisq_util.Stats

type metric = { name : string; value : float; unit_ : string; n : int }

type outcome = {
  workload : string;
  metrics : metric list;
  extras : metric list;
  attempted : int;
  failed : int;
  violations : string list;
  digest : (string * int) option;
}

let workloads = [ "figures"; "serve-hot"; "serve-wide"; "serve-reload" ]

let m ?(n = 0) name value unit_ = { name; value; unit_; n }

(* Cold starts per set-up measurement; the median is reported. *)
let setup_runs = 5

let median_setup probe = Stats.median (Array.init setup_runs (fun _ -> probe ()))

let latency_metrics lat =
  let n = Array.length lat in
  [
    m ~n "latency_p50_ms" (Quant.percentile lat 50.0) "ms";
    m ~n "latency_p99_ms" (Quant.percentile lat 99.0) "ms";
  ]

(* ------------------------------ figures ----------------------------- *)

(* Spawn-to-first-cell: the probe child generates the batch's
   calibrations and evaluates the first cell of the seeded plan, then
   writes one line to the pipe this process is blocked on. *)
let figures_setup ~seed () =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let t0 = Work.now () in
  let pid =
    Work.spawn Sys.executable_name
      [ "figures-probe"; "--seed"; string_of_int seed ]
      ~stdout:wr ~stderr:Unix.stderr
  in
  Unix.close wr;
  let got = Unix.read rd (Bytes.create 1) 0 1 in
  let t = Work.now () -. t0 in
  Unix.close rd;
  (match Work.reap pid with
  | Unix.WEXITED 0 when got = 1 -> ()
  | _ -> failwith "figures-probe failed");
  t

let figures_probe ~seed =
  let days = Work.figure_days ~seed in
  let calibs = Work.batch_calibs ~days in
  ignore (Work.evaluate_cell calibs (Streams.figure_batch ~days 0).(0));
  print_endline "first-cell";
  exit 0

let figures ~seed ~seconds =
  let setup = median_setup (figures_setup ~seed) in
  let f = Work.figures ~seed ~seconds in
  let n = Array.length f.Work.cell_ms in
  {
    workload = "figures";
    metrics =
      [ m ~n:setup_runs "setup_s" setup "s"; m ~n "throughput_per_s" (float_of_int n /. f.Work.wall) "1/s" ]
      @ latency_metrics f.Work.cell_ms
      @ [ m "peak_rss_mb" (Work.peak_rss_mb (Unix.getpid ())) "MiB" ];
    extras = [];
    attempted = n;
    failed = List.length f.Work.violations;
    violations = f.Work.violations;
    digest = Some (f.Work.digest, f.Work.digest_cells);
  }

(* ------------------------------- serve ------------------------------ *)

type serve_shape = { days : int array; warmup : int; stream_len : int }

(* The serve workloads use fixed calibration days: the seed draws the
   request sequence, not the days, because which days are drawn moves
   solver cost (and so throughput) more than the system's own noise. *)
let serve_shape = function
  | "serve-hot" -> { days = [| 0 |]; warmup = 500; stream_len = 9500 }
  | "serve-wide" -> { days = Array.init 16 Fun.id; warmup = 500; stream_len = 6500 }
  | w -> invalid_arg ("serve_shape: " ^ w)

(* Replies whose bytes go into result_digest, by stream index. *)
let digest_items = 1000

let encode_stream stream =
  Array.map (fun r -> Work.encode_request ~id:r.Streams.index (Streams.verb r)) stream

let daemon_setup ~nisqd ?calib () =
  let d, t = Work.start_daemon ~nisqd ?calib () in
  Work.stop_daemon d;
  t

let stats_int path stats =
  List.fold_left
    (fun j k -> Option.bind j (Json.member k))
    (Some stats) path
  |> function
  | Some (Json.Int i) -> i
  | _ -> -1

(* The closed-loop pass shared by the untraced run and the traced run's
   reference pass. *)
let closed_pass ~nisqd ?prom ~seed workload ~seconds =
  let shape = serve_shape workload in
  let stream = Streams.serve_stream ~seed ~days:shape.days shape.stream_len in
  let d, _ = Work.start_daemon ~nisqd ?prom () in
  let c =
    Work.closed_loop ~socket:(Work.socket d) ~requests:(encode_stream stream)
      ~warmup:shape.warmup ~seconds
  in
  let stats = Option.value (Work.admin d Protocol.Stats) ~default:Json.Null in
  let rss = Work.peak_rss_mb (Work.pid d) in
  Work.stop_daemon d;
  let bad = Hashtbl.create 16 and violations = ref [] in
  Array.iteri
    (fun k frame ->
      match frame with
      | None -> ()
      | Some frame -> (
          match Work.check_reply stream.(k) frame with
          | Ok _ -> ()
          | Error e ->
              Hashtbl.replace bad k ();
              violations := Printf.sprintf "request %d: %s" k e :: !violations))
    c.Work.first;
  if c.Work.repeats_differ > 0 then
    violations :=
      Printf.sprintf "%d repeated requests got different replies" c.Work.repeats_differ
      :: !violations;
  let failed =
    Array.fold_left
      (fun acc (k, _) -> if Hashtbl.mem bad k then acc + 1 else acc)
      c.Work.transport_errors c.Work.samples
  in
  (stream, c, stats, rss, failed, List.rev !violations)

let serve_closed ~nisqd ~seed workload ~seconds =
  let setup = median_setup (daemon_setup ~nisqd) in
  let _, c, stats, rss, failed, violations =
    closed_pass ~nisqd ~seed workload ~seconds
  in
  let lat = Array.map snd c.Work.samples in
  let n = Array.length lat in
  {
    workload;
    metrics =
      [ m ~n:setup_runs "setup_s" setup "s";
        m ~n "throughput_per_s" (float_of_int n /. c.Work.elapsed) "1/s" ]
      @ latency_metrics lat
      @ [ m "peak_rss_mb" rss "MiB" ];
    extras =
      [
        m "error_ratio" (float_of_int failed /. float_of_int (max 1 n)) "ratio";
        m "serve.coalesced" (float_of_int (stats_int [ "coalesced" ] stats)) "count";
        m "serve.shed" (float_of_int (stats_int [ "shed" ] stats)) "count";
      ];
    attempted = n + c.Work.transport_errors;
    failed;
    violations;
    digest = Some (Work.digest_prefix c.Work.first digest_items);
  }

(* ------------------------------ reload ------------------------------ *)

let reload_rate = 200.0
let reload_period = 0.5
let slo_ms = 250.0
let reload_warmup = int_of_float (reload_rate *. reload_period)

(* The first two days (in day order) whose drift passes the reload gate
   both ways, so the alternating reloads promote. Fixed for the same
   reason as [serve_shape]'s days. *)
let archive_days () =
  let days = Array.init 30 Fun.id in
  let calib day = Ibmq16.calibration ~day () in
  let passes a b =
    Calib_diff.gate (Calib_diff.diff ~old_:(calib a) ~candidate:(calib b)) = []
    && Calib_diff.gate (Calib_diff.diff ~old_:(calib b) ~candidate:(calib a)) = []
  in
  let rec pick i j =
    if i >= 30 then failwith "no archive pair passes the drift gate"
    else if j >= 30 then pick (i + 1) (i + 2)
    else if passes days.(i) days.(j) then (days.(i), days.(j))
    else pick i (j + 1)
  in
  pick 0 1

(* Load an archive the way the daemon does (raw parse + sanitize). *)
let load_archive path =
  match Calib_io.load_raw ~path with
  | Ok raw -> fst (Calib_sanitize.sanitize raw)
  | Error e -> failwith (Printf.sprintf "%s:%d: %s" path e.Calib_io.line e.Calib_io.message)

type reload_setup = {
  path_a : string;
  path_b : string;
  calib_a : Calibration.t;
  calib_b : Calibration.t;
  rstream : Streams.request array;
  schedule : (float * Streams.event) array;
  reloads : string array;
}

let reload_setup ~seed ~seconds =
  let day_a, day_b = archive_days () in
  let path_a = Work.fresh_path "calib-a" ^ ".txt" in
  let path_b = Work.fresh_path "calib-b" ^ ".txt" in
  Calib_io.save (Ibmq16.calibration ~day:day_a ()) ~path:path_a;
  Calib_io.save (Ibmq16.calibration ~day:day_b ()) ~path:path_b;
  let schedule = Streams.schedule ~rate:reload_rate ~seconds ~period:reload_period in
  let n =
    Array.fold_left
      (fun a (_, ev) -> match ev with Streams.Send _ -> a + 1 | Streams.Reload _ -> a)
      0 schedule
  in
  let nreloads = Array.length schedule - n in
  let rstream = Streams.serve_stream ~seed ~days:[| 0 |] n in
  let reloads =
    Array.init nreloads (fun k ->
        let path = match Streams.reload_archive k with `A -> path_a | `B -> path_b in
        Work.encode_request ~id:(n + k) (Protocol.Reload { path = Some path }))
  in
  {
    path_a;
    path_b;
    calib_a = load_archive path_a;
    calib_b = load_archive path_b;
    rstream;
    schedule;
    reloads;
  }

(* Each reply must be byte-identical to [Server.handle_work] under the
   archive whose day it reports. Compile results repeat, so they are
   memoized by coalesce key and day. *)
let oracle_check rs (o : Work.opened) =
  let memo = Hashtbl.create 256 in
  let expected (req : Streams.request) calib =
    let verb = Streams.verb req in
    let key = (Protocol.coalesce_key verb, calib.Calibration.day) in
    let body =
      match (req.Streams.run, Hashtbl.find_opt memo key) with
      | false, Some body -> body
      | _ ->
          let body = Server.handle_work ~calib verb in
          if not req.Streams.run then Hashtbl.replace memo key body;
          body
    in
    Frame.encode (Protocol.reply_to_json { Protocol.id = req.Streams.index; body })
  in
  let bad = Array.make (Array.length o.Work.replies) false in
  let violations = ref [] in
  let fail i msg =
    bad.(i) <- true;
    violations := Printf.sprintf "request %d: %s" i msg :: !violations
  in
  Array.iteri
    (fun i frame ->
      let req = rs.rstream.(i) in
      match frame with
      | None -> fail i "no reply"
      | Some frame -> (
          match Work.check_reply req frame with
          | Error e -> fail i e
          | Ok result ->
              let day = Json.member "day" result in
              let calib =
                if day = Some (Json.Int rs.calib_a.Calibration.day) then Some rs.calib_a
                else if day = Some (Json.Int rs.calib_b.Calibration.day) then Some rs.calib_b
                else None
              in
              (match calib with
              | None -> fail i "reply day is neither archive's"
              | Some calib ->
                  if expected req calib <> frame then
                    fail i "reply differs from Server.handle_work under its archive")))
    o.Work.replies;
  (bad, List.rev !violations)

let reload_decisions (o : Work.opened) =
  Array.fold_left
    (fun (p, r) frame ->
      let decision =
        Option.bind frame (fun f ->
            match Frame.scan_string f with
            | Ok [ j ] -> Option.bind (Json.member "result" j) (Json.member "decision")
            | _ -> None)
      in
      match decision with
      | Some (Json.String "promoted") -> (p + 1, r)
      | _ -> (p, r + 1))
    (0, 0) o.Work.reload_replies

(* Requests due before the first reload warm the daemon up: the timed
   ones start at the first promotion, so every timed period begins with
   one. Element [j] is request [j + reload_warmup]; a lost reply times
   as infinitely late. *)
let reload_latencies (o : Work.opened) =
  Array.map
    (fun x -> if Float.is_nan x then Float.infinity else x)
    (Array.sub o.Work.lat_ms reload_warmup (Array.length o.Work.lat_ms - reload_warmup))

let open_pass ~nisqd ?prom rs =
  let d, _ = Work.start_daemon ~nisqd ~calib:rs.path_a ?prom () in
  let o =
    Work.open_loop ~socket:(Work.socket d)
      ~requests:(encode_stream rs.rstream) ~reloads:rs.reloads ~schedule:rs.schedule
  in
  let stats = Option.value (Work.admin d Protocol.Stats) ~default:Json.Null in
  let rss = Work.peak_rss_mb (Work.pid d) in
  Work.stop_daemon d;
  (o, stats, rss)

let serve_reload ~nisqd ~seed ~seconds =
  let rs = reload_setup ~seed ~seconds in
  let setup = median_setup (daemon_setup ~nisqd ~calib:rs.path_a) in
  let o, stats, rss = open_pass ~nisqd rs in
  let bad, violations = oracle_check rs o in
  let violations =
    if stats_int [ "calib"; "pins" ] stats = 0 then violations
    else violations @ [ "calibration epoch pins leaked" ]
  in
  let attempted = Array.length o.Work.lat_ms in
  let failed = Array.fold_left (fun a b -> if b then a + 1 else a) 0 bad in
  let lat = reload_latencies o in
  let n = Array.length lat in
  let slo_miss = ref 0 in
  Array.iteri (fun j ms -> if ms > slo_ms || bad.(j + reload_warmup) then incr slo_miss) lat;
  let got = Array.fold_left (fun a r -> if Option.is_some r then a + 1 else a) 0 o.Work.replies in
  let promoted, rolled_back = reload_decisions o in
  {
    workload = "serve-reload";
    metrics =
      [ m ~n:setup_runs "setup_s" setup "s";
        m ~n "throughput_per_s" (float_of_int got /. o.Work.span) "1/s" ]
      @ latency_metrics lat
      @ [ m "peak_rss_mb" rss "MiB" ];
    extras =
      [
        m ~n:attempted "error_ratio" (float_of_int failed /. float_of_int attempted) "ratio";
        m ~n "slo_miss_ratio" (float_of_int !slo_miss /. float_of_int n) "ratio";
        m ~n "load.gen_late_p99_ms" (Quant.percentile o.Work.late_ms 99.0) "ms";
        m ~n:(Array.length o.Work.reload_ms) "serve.reload_p50_ms" (Quant.percentile o.Work.reload_ms 50.0) "ms";
        m ~n:(Array.length o.Work.reload_ms) "serve.reload_max_ms" (Quant.percentile o.Work.reload_ms 100.0) "ms";
        m "serve.reload_promotions" (float_of_int promoted) "count";
        m "serve.reload_rollbacks" (float_of_int rolled_back) "count";
        m "serve.coalesced" (float_of_int (stats_int [ "coalesced" ] stats)) "count";
        m "serve.shed" (float_of_int (stats_int [ "shed" ] stats)) "count";
      ];
    attempted;
    failed;
    violations;
    digest = None;
  }

(* ------------------------------ traced ------------------------------ *)

(* Per-item means over the traced replay's items, in ms, and the derived
   lines. [e2e_ms] is the untraced mean time per item; [codec] says
   whether the wire codec is one of the layers that add up to it. *)
let layer_metrics ~e2e_ms ~concurrency ~codec (r : Layers.result) =
  let a = r.Layers.acc in
  let n = Array.length r.Layers.traced_s in
  let per s = s *. 1e3 /. float_of_int (max 1 n) in
  let span name = per (Option.value (Hashtbl.find_opt a.Layers.spans name) ~default:0.0) in
  let compile = span "compile" in
  let phases = List.map (fun p -> (p, span p)) [ "layout"; "route"; "schedule"; "emit" ] in
  let self = compile -. List.fold_left (fun s (_, v) -> s +. v) 0.0 phases in
  let layers =
    (if codec then per a.Layers.codec_s else 0.0)
    +. per a.Layers.calib_s +. per a.Layers.paths_s +. compile
    +. per a.Layers.prepare_s +. per a.Layers.sim_s
  in
  let trials = float_of_int (max 1 a.Layers.trials) in
  (* The items both replays ran, traced against plain. *)
  let k = Array.length r.Layers.plain_s in
  let sum xs = Array.fold_left ( +. ) 0.0 (Array.sub xs 0 k) in
  let overhead = 100.0 *. ((sum r.Layers.traced_s /. sum r.Layers.plain_s) -. 1.0) in
  let ratio hit miss =
    let h = float_of_int hit and m = float_of_int miss in
    if h +. m = 0.0 then Float.nan else h /. (h +. m)
  in
  let c0 = r.Layers.c0 and c1 = r.Layers.c1 in
  let m = m ~n in
  [
    m "e2e.mean_ms" e2e_ms "ms";
    m "device.calib_ms" (per a.Layers.calib_s) "ms";
    m "device.paths_ms" (per a.Layers.paths_s) "ms";
    m "device.paths_hit_ratio"
      (ratio (c1.Layers.paths_hit - c0.Layers.paths_hit) (c1.Layers.paths_miss - c0.Layers.paths_miss))
      "ratio";
    m "compiler.compile_ms" compile "ms";
  ]
  @ List.map (fun (p, v) -> m ("compiler." ^ p ^ "_ms") v "ms") phases
  @ [
      m "compiler.self_ms" self "ms";
      m "compiler.layout_hit_ratio"
        (ratio (c1.Layers.layout_hit - c0.Layers.layout_hit) (c1.Layers.layout_miss - c0.Layers.layout_miss))
        "ratio";
      { name = "solver.nodes"; value = float_of_int r.Layers.nodes; unit_ = "count"; n = r.Layers.nodes_items };
      m "sim.prepare_ms" (per a.Layers.prepare_s) "ms";
      m "sim.run_ms" (per a.Layers.sim_s) "ms";
      m "sim.trials_per_s" (float_of_int a.Layers.trials /. a.Layers.sim_s) "1/s";
      m "sim.tableau_share" (float_of_int a.Layers.clifford_trials /. trials) "ratio";
      m "sim.minor_words_per_trial" (a.Layers.minor_words /. trials) "words";
      m "unattributed_ms" (e2e_ms -. layers) "ms";
      m "load.concurrency" concurrency "items";
      { name = "trace.overhead_pct"; value = overhead; unit_ = "%"; n = k };
    ]

let layer_extras ~codec (r : Layers.result) =
  let a = r.Layers.acc and n = Array.length r.Layers.traced_s in
  (if codec then
     [ m ~n "serve.codec_us" (a.Layers.codec_s *. 1e6 /. float_of_int (max 1 n)) "us" ]
   else [])
  @ [ m ~n "compiler.fallback_rungs" (float_of_int a.Layers.rungs) "count" ]

(* Mean worker time per request from the daemon's own
   serve.latency_ms.{compile,run} histograms in its --prom scrape. *)
let prom_handler_ms path =
  let ic = open_in path in
  let rec read acc =
    match input_line ic with
    | line -> (
        match String.split_on_char ' ' line with
        | [ name; v ] -> (
            match float_of_string_opt v with
            | Some v -> read ((name, v) :: acc)
            | None -> read acc)
        | _ -> read acc)
    | exception End_of_file -> acc
  in
  let series = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> read []) in
  let get s = Option.value (List.assoc_opt ("nisq_serve_latency_ms_" ^ s) series) ~default:0.0 in
  (get "compile_sum" +. get "run_sum") /. (get "compile_count" +. get "run_count")

let serve_extras ~prom ~stats =
  [
    m "serve.handler_ms" (prom_handler_ms prom) "ms";
    m "serve.coalesced" (float_of_int (stats_int [ "coalesced" ] stats)) "count";
    m "serve.shed" (float_of_int (stats_int [ "shed" ] stats)) "count";
  ]

let traced_outcome workload ~metrics ~extras ~attempted ~failed ~violations =
  { workload; metrics; extras; attempted; failed; violations; digest = None }

(* The traced run: for the serve workloads an untraced reference pass
   against nisqd (with --prom, then the stats verb) for half the time,
   then the in-process replay for the other half; figures replays
   alternately traced and plain batches for the whole time. *)
let traced ~nisqd ~seed ~seconds workload =
  let half = seconds /. 2.0 in
  match workload with
  | "figures" ->
      let r = Layers.figures ~seed ~seconds in
      let traced = r.Layers.traced_s in
      traced_outcome workload
        ~metrics:
          (layer_metrics ~e2e_ms:(1e3 *. Stats.mean r.Layers.plain_s)
             ~concurrency:(Array.fold_left ( +. ) 0.0 traced /. r.Layers.wall)
             ~codec:false r)
        ~extras:(layer_extras ~codec:false r)
        ~attempted:(Array.length r.Layers.plain_s + Array.length traced)
        ~failed:(List.length r.Layers.violations) ~violations:r.Layers.violations
  | "serve-hot" | "serve-wide" ->
      let prom = Work.fresh_path "prom" ^ ".txt" in
      let stream, c, stats, _, failed, violations =
        closed_pass ~nisqd ~prom ~seed workload ~seconds:half
      in
      let lat = Array.map snd c.Work.samples in
      let sum = Array.fold_left ( +. ) 0.0 lat in
      let r =
        Layers.serve ~stream ~warmup:(serve_shape workload).warmup ~seconds:half
          ~source:Layers.Synthetic ~recorded:c.Work.first
      in
      traced_outcome workload
        ~metrics:
          (layer_metrics ~e2e_ms:(Stats.mean lat)
             ~concurrency:(sum /. (c.Work.elapsed *. 1e3)) ~codec:true r)
        ~extras:(layer_extras ~codec:true r @ serve_extras ~prom ~stats)
        ~attempted:(Array.length lat) ~failed
        ~violations:(violations @ r.Layers.violations)
  | "serve-reload" ->
      let rs = reload_setup ~seed ~seconds:half in
      let prom = Work.fresh_path "prom" ^ ".txt" in
      let o, stats, _ = open_pass ~nisqd ~prom rs in
      let bad, violations = oracle_check rs o in
      let failed = Array.fold_left (fun a b -> if b then a + 1 else a) 0 bad in
      let lat = reload_latencies o in
      let r =
        Layers.serve ~stream:rs.rstream ~warmup:0 ~seconds:half
          ~source:
            (Layers.Archives
               {
                 paths = [| rs.path_a; rs.path_b |];
                 per_reload = int_of_float (reload_rate *. reload_period);
               })
          ~recorded:o.Work.replies
      in
      traced_outcome workload
        ~metrics:
          (layer_metrics ~e2e_ms:(Stats.mean lat)
             ~concurrency:(Array.fold_left ( +. ) 0.0 lat /. (o.Work.span *. 1e3))
             ~codec:true r)
        ~extras:(layer_extras ~codec:true r @ serve_extras ~prom ~stats)
        ~attempted:(Array.length o.Work.lat_ms) ~failed
        ~violations:(violations @ r.Layers.violations)
  | w -> invalid_arg ("unknown workload " ^ w)

let untraced ~nisqd ~seed ~seconds = function
  | "figures" -> figures ~seed ~seconds
  | ("serve-hot" | "serve-wide") as w -> serve_closed ~nisqd ~seed w ~seconds
  | "serve-reload" -> serve_reload ~nisqd ~seed ~seconds
  | w -> invalid_arg ("unknown workload " ^ w)
