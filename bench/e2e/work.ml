module Json = Nisq_obs.Json
module Clock = Nisq_obs.Clock
module Protocol = Nisq_serve.Protocol
module Frame = Nisq_serve.Frame
module Benchmarks = Nisq_bench.Benchmarks
module Experiments = Nisq_bench.Experiments
module Config = Nisq_compiler.Config
module Compile = Nisq_compiler.Compile
module Layout = Nisq_compiler.Layout
module Ibmq16 = Nisq_device.Ibmq16
module Runner = Nisq_sim.Runner

let now () = Int64.to_float (Clock.now_ns ()) *. 1e-9

let run_dir = "_e2e"
let counter = ref 0

let fresh_path name =
  if not (Sys.file_exists run_dir) then Unix.mkdir run_dir 0o755;
  incr counter;
  Printf.sprintf "%s/%s-%d-%d" run_dir name (Unix.getpid ()) !counter

(* ----------------------------- processes ---------------------------- *)

let live = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

let spawn ?stderr prog args ~stdout =
  let stderr = Option.value stderr ~default:stdout in
  let pid =
    Unix.create_process prog (Array.of_list (prog :: args)) Unix.stdin stdout
      stderr
  in
  live := pid :: !live;
  pid

let reap ?(timeout = 20.0) pid =
  let give_up = now () +. timeout in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when now () < give_up ->
        Unix.sleepf 0.005;
        wait ()
    | 0, _ ->
        Unix.kill pid Sys.sigkill;
        snd (Unix.waitpid [] pid)
    | _, status -> status
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  let status = wait () in
  live := List.filter (( <> ) pid) !live;
  status

let peak_rss_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
    | _ -> scan ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* ------------------------------ daemon ------------------------------ *)

type daemon = { pid : int; socket : string }

let socket d = d.socket
let pid d = d.pid

let connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () -> Some fd
  | exception Unix.Unix_error _ ->
      Unix.close fd;
      None

let rec write_all fd s pos =
  if pos < String.length s then
    match Unix.write_substring fd s pos (String.length s - pos) with
    | n -> write_all fd s (pos + n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd s pos

let rec read_exact fd buf pos len =
  pos >= len
  ||
  match Unix.read fd buf pos (len - pos) with
  | 0 -> false
  | n -> read_exact fd buf (pos + n) len
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_exact fd buf pos len

(* One frame's wire bytes, undecoded: the load generator leaves decoding
   to the checks after timing, so its own CPU use stays small next to
   the daemon's on the shared cores. *)
let read_frame fd =
  let header = Bytes.create 4 in
  if not (read_exact fd header 0 4) then None
  else
    let n = Int32.to_int (Bytes.get_int32_be header 0) in
    let frame = Bytes.extend header 0 n in
    if read_exact fd frame 4 (4 + n) then Some (Bytes.unsafe_to_string frame) else None

let encode_request ~id verb =
  Frame.encode (Protocol.request_to_json { Protocol.id; deadline_ms = None; verb })

let admin_on fd verb =
  match
    write_all fd (encode_request ~id:0 verb) 0;
    Frame.read fd
  with
  | Ok json -> (
      match Protocol.reply_of_json json with
      | Ok { Protocol.body = Protocol.Result v; _ } -> Some v
      | _ -> None)
  | Error _ -> None
  | exception Unix.Unix_error _ -> None

let admin d verb =
  match connect d.socket with
  | None -> None
  | Some fd -> Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> admin_on fd verb)

let start_daemon ~nisqd ?calib ?prom () =
  let socket = fresh_path "nisqd" ^ ".sock" in
  let opt flag = function None -> [] | Some v -> [ flag; v ] in
  let args =
    [ "serve"; "--socket"; socket; "--workers"; "2" ]
    @ opt "--calib" calib @ opt "--prom" prom
  in
  let log =
    Unix.openfile (socket ^ ".log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let t0 = now () in
  let pid =
    Fun.protect ~finally:(fun () -> Unix.close log) (fun () -> spawn nisqd args ~stdout:log)
  in
  let rec ready () =
    if now () -. t0 > 30.0 then failwith ("nisqd gave no ping reply; see " ^ socket ^ ".log");
    if fst (Unix.waitpid [ Unix.WNOHANG ] pid) <> 0 then begin
      live := List.filter (( <> ) pid) !live;
      failwith ("nisqd exited during startup; see " ^ socket ^ ".log")
    end;
    let answered =
      match connect socket with
      | None -> false
      | Some fd ->
          Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
              Option.is_some (admin_on fd Protocol.Ping))
    in
    if answered then now () -. t0
    else begin
      Unix.sleepf 0.0001;
      ready ()
    end
  in
  let d = { pid; socket } in
  (d, ready ())

let stop_daemon d =
  ignore (admin d Protocol.Drain);
  match reap d.pid with
  | Unix.WEXITED 0 -> ()
  | _ -> failwith ("nisqd did not drain cleanly; see " ^ d.socket ^ ".log")

(* ---------------------------- closed loop --------------------------- *)

type closed = {
  samples : (int * float) array;
  elapsed : float;
  first : string option array;
  repeats_differ : int;
  transport_errors : int;
}

let closed_loop ~socket ~requests ~warmup ~seconds =
  let n = Array.length requests in
  let first = Array.make n None in
  let differ = Atomic.make 0 and errors = Atomic.make 0 in
  let next = Atomic.make 0 in
  (* One request/reply on [fd]; the reply frame is kept for the checks
     that run after timing. *)
  let exchange fd i =
    let k = i mod n in
    let t0 = now () in
    match
      write_all fd requests.(k) 0;
      read_frame fd
    with
    | Some reply ->
        let ms = (now () -. t0) *. 1e3 in
        (match first.(k) with
        | None -> first.(k) <- Some reply
        | Some s -> if s <> reply then Atomic.incr differ);
        Some ms
    | None | (exception Unix.Unix_error _) ->
        Atomic.incr errors;
        None
  in
  let phase ~stop =
    let client out () =
      match connect socket with
      | None -> Atomic.incr errors
      | Some fd ->
          let rec loop () =
            let i = Atomic.fetch_and_add next 1 in
            if not (stop i) then
              match exchange fd i with
              | Some ms ->
                  out := (i mod n, ms) :: !out;
                  loop ()
              | None -> ()
          in
          loop ();
          Unix.close fd
    in
    let outs = [ ref []; ref [] ] in
    List.map (fun out -> Thread.create (client out) ()) outs |> List.iter Thread.join;
    Array.of_list (List.concat_map (fun out -> List.rev !out) outs)
  in
  ignore (phase ~stop:(fun i -> i >= warmup));
  Atomic.set next warmup;
  let t0 = now () in
  let deadline = t0 +. seconds in
  let samples = phase ~stop:(fun _ -> now () >= deadline) in
  {
    samples;
    elapsed = now () -. t0;
    first;
    repeats_differ = Atomic.get differ;
    transport_errors = Atomic.get errors;
  }

(* ----------------------------- open loop ---------------------------- *)

type opened = {
  lat_ms : float array;
  late_ms : float array;
  replies : string option array;
  reload_ms : float array;
  reload_replies : string option array;
  span : float;
}

let open_loop ~socket ~requests ~reloads ~schedule =
  let n = Array.length requests and r = Array.length reloads in
  let fd =
    match connect socket with Some fd -> fd | None -> failwith "open loop: connect"
  in
  (* The receiver wakes at least once a second to notice a lost reply. *)
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 1.0;
  let lat_ms = Array.make n Float.nan and late_ms = Array.make n Float.nan in
  let replies = Array.make n None in
  let reload_ms = Array.make r Float.nan and reload_replies = Array.make r None in
  (* Reloads take the ids after the requests'. *)
  let due = Array.make (n + r) 0.0 in
  let t0 = now () +. 0.05 in
  Array.iter
    (fun (off, ev) ->
      match ev with
      | Streams.Send i -> due.(i) <- t0 +. off
      | Streams.Reload k -> due.(n + k) <- t0 +. off)
    schedule;
  let last_reply = ref t0 in
  let sender () =
    Array.iter
      (fun (off, ev) ->
        let wait = t0 +. off -. now () in
        if wait > 0.0 then Unix.sleepf wait;
        match ev with
        | Streams.Send i ->
            late_ms.(i) <- (now () -. due.(i)) *. 1e3;
            write_all fd requests.(i) 0
        | Streams.Reload k -> write_all fd reloads.(k) 0)
      schedule
  in
  let receiver () =
    let give_up = t0 +. fst schedule.(Array.length schedule - 1) +. 30.0 in
    let rec loop got =
      if got < Array.length schedule && now () < give_up then begin
        let reply = ref "" in
        match Frame.read ~record:(fun s -> reply := s) fd with
        | Ok json ->
            let t = now () in
            last_reply := t;
            (match Json.member "id" json with
            | Some (Json.Int id) when id >= 0 && id < n ->
                lat_ms.(id) <- (t -. due.(id)) *. 1e3;
                replies.(id) <- Some !reply
            | Some (Json.Int id) when id >= n && id < n + r ->
                reload_ms.(id - n) <- (t -. due.(id)) *. 1e3;
                reload_replies.(id - n) <- Some !reply
            | _ -> ());
            loop (got + 1)
        | Error _ -> ()
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
          ->
            loop got
        | exception Unix.Unix_error _ -> ()
      end
    in
    loop 0
  in
  let rx = Thread.create receiver () in
  sender ();
  Thread.join rx;
  Unix.close fd;
  { lat_ms; late_ms; replies; reload_ms; reload_replies; span = !last_reply -. t0 }

(* ------------------------------ checks ------------------------------ *)

let check_reply (req : Streams.request) frame =
  let ( let* ) = Result.bind in
  let* json =
    match Frame.scan_string frame with
    | Ok [ json ] -> Ok json
    | Ok _ -> Error "not one frame"
    | Error e -> Error e
  in
  let* reply = Protocol.reply_of_json json in
  let* result =
    match reply.Protocol.body with
    | Protocol.Result v -> Ok v
    | Protocol.Overloaded _ -> Error "overloaded"
    | Protocol.Failed { code; message; _ } -> Error (code ^ ": " ^ message)
  in
  let expected = (Benchmarks.by_name req.program).Benchmarks.expected in
  if reply.Protocol.id <> req.index then Error "reply id is not the request's"
  else if Json.member "program" result <> Some (Json.String req.program) then
    Error "reply names another program"
  else if req.run && Json.member "ideal_answer" result <> Some (Json.Int expected)
  then Error (Printf.sprintf "%s: ideal_answer is not %d" req.program expected)
  else Ok result

let digest_prefix frames k =
  let buf = Buffer.create 4096 in
  let rec go i =
    if i >= k || i >= Array.length frames then i
    else
      match frames.(i) with
      | None -> i
      | Some s ->
          Buffer.add_string buf (Digest.string s);
          go (i + 1)
  in
  let n = go 0 in
  (Digest.to_hex (Digest.string (Buffer.contents buf)), n)

(* ------------------------------ figures ----------------------------- *)

let figure_days ~seed = Streams.draw_days ~seed 16

let batch_calibs ~days =
  let t = Hashtbl.create 16 in
  Array.iter (fun day -> Hashtbl.replace t day (Ibmq16.calibration ~day ())) days;
  t

let trials = 8192

(* [Experiments.evaluate]'s default simulation seed, which the paper's
   figure tables use. *)
let sim_seed = 424242

let evaluate_cell calibs (c : Streams.cell) =
  Experiments.evaluate ~trials ~seed:sim_seed ~config:c.config
    ~calib:(Hashtbl.find calibs c.day) c.bench

let cell_payload (c : Streams.cell) (ev : Experiments.eval) =
  let r = ev.Experiments.result in
  Printf.sprintf "%s|%s|%d|%h|%h|%d|%d|%s" c.bench.Benchmarks.name
    (Config.name c.config) c.day ev.Experiments.success r.Compile.esp
    r.Compile.swap_count r.Compile.duration
    (String.concat "," (Array.to_list (Array.map string_of_int (Layout.to_array r.Compile.layout))))

let wrong_answer (b : Benchmarks.t) runner ~what =
  let got = Runner.ideal_answer runner in
  if got = b.Benchmarks.expected then None
  else
    Some
      (Printf.sprintf "%s: %s's noiseless answer is %d, expected %d" what
         b.Benchmarks.name got b.Benchmarks.expected)

let cell_label (c : Streams.cell) = Printf.sprintf "%s on day %d" (Config.name c.config) c.day

type figures = {
  cell_ms : float array;
  wall : float;
  digest : string;
  digest_cells : int;
  violations : string list;
}

let digest_batches = 2

let figures ~seed ~seconds =
  let days = figure_days ~seed in
  let plan = Array.length days in
  let seen = Hashtbl.create 1024 in
  let digest = Buffer.create 4096 and digest_cells = ref 0 in
  let violations = ref [] and cell_ms = ref [] in
  let rec batch b wall =
    if wall >= seconds then wall
    else begin
      let cells = Streams.figure_batch ~days (b mod plan) in
      let t0 = now () in
      let calibs = batch_calibs ~days in
      let evals =
        Experiments.map_cells
          (Array.to_list
             (Array.map
                (fun c () ->
                  let t = now () in
                  let ev = evaluate_cell calibs c in
                  (ev, (now () -. t) *. 1e3))
                cells))
      in
      let wall = wall +. (now () -. t0) in
      List.iteri
        (fun i (ev, ms) ->
          let c = cells.(i) in
          cell_ms := ms :: !cell_ms;
          let payload = cell_payload c ev in
          if b < digest_batches then begin
            Buffer.add_string digest (Digest.string payload);
            incr digest_cells
          end;
          (match Hashtbl.find_opt seen (b mod plan, i) with
          | None -> Hashtbl.replace seen (b mod plan, i) payload
          | Some p ->
              if p <> payload then
                violations := ("cell payload changed on repeat: " ^ payload) :: !violations);
          Option.iter
            (fun v -> violations := v :: !violations)
            (wrong_answer c.bench
               (Experiments.runner_of ev.Experiments.result)
               ~what:(cell_label c)))
        evals;
      batch (b + 1) wall
    end
  in
  let wall = batch 0 0.0 in
  {
    cell_ms = Array.of_list (List.rev !cell_ms);
    wall;
    digest = Digest.to_hex (Digest.string (Buffer.contents digest));
    digest_cells = !digest_cells;
    violations = List.rev !violations;
  }
